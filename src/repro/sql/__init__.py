"""SQL lexer, parser and AST shared by the schema-aware frontend.

Parses the analytic-query subset data warehousing needs -- filters, joins,
computed expressions, grouped aggregation, ordering, subqueries and set
operations -- into a :class:`Query` AST:

>>> from repro.sql import parse
>>> query = parse('''
...     SELECT l_returnflag, SUM(l_quantity) AS total
...     FROM lineitem
...     WHERE l_discount < 0.05
...     GROUP BY l_returnflag
...     ORDER BY l_returnflag
... ''')
>>> query.table, query.group_by
('lineitem', ['l_returnflag'])

Binding against a schema and lowering to a fusable plan is
:func:`repro.frontend.compile_sql`'s job.
"""

from .ast import Aggregate, Query, SelectItem
from .lexer import SqlError, Token, tokenize
from .parser import parse

__all__ = ["Aggregate", "Query", "SelectItem", "SqlError", "Token",
           "tokenize", "parse"]
