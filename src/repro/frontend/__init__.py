"""Schema-aware SQL frontend: parse, bind, lower, and validate.

The one SQL compiler: it binds the :mod:`repro.sql` parser's AST
against a :class:`Catalog` and handles the TPC-H-class shapes --
multi-join chains, outer joins, subqueries (decorrelated), CASE/LIKE/date
arithmetic, HAVING, top-N, and set operations -- and pairs every compiled
plan with an independent reference interpreter for byte-for-byte
differential validation.
"""

from .binder import BoundQuery, bind, bind_sql
from .catalog import BindError, Catalog, Column, Table, table_row_nbytes
from .common import UnsupportedError
from .lower import CompiledQuery, compile_sql, lower
from .reference import execute as reference_execute
from .validate import (
    CoverageReport, QueryReport, compare_relations, run_plan, validate_sql,
    validate_suite,
)

__all__ = [
    "BindError", "BoundQuery", "Catalog", "Column", "CompiledQuery",
    "CoverageReport", "QueryReport", "Table", "UnsupportedError",
    "bind", "bind_sql", "compare_relations", "compile_sql", "lower",
    "reference_execute", "run_plan", "table_row_nbytes", "validate_sql",
    "validate_suite",
]
