"""Schema-aware binder: parsed SQL -> bound query.

Binding resolves every column reference against the catalog, producing
*canonical* column names that are unique across the whole query:

* columns of an unaliased table keep their SQL names (``l_orderkey``);
* columns reached through an alias get prefixed (``n1.n_name`` ->
  ``n1_n_name``), which is also how the lowering names the physical
  rename it emits for self-joins;
* references to an *enclosing* query's columns (correlation) become
  ``__corr_<canonical>`` fields -- the decorrelation pass consumes these,
  and the PLN010 lint proves none survive into the final plan.

The binder also type-checks comparisons (stable, actionable errors) and
rewrites string operations over dictionary-encoded columns into integer
form: ``p_type LIKE 'PROMO%'`` becomes an ``InList`` over the matching
pool codes, ``r_name = 'ASIA'`` becomes a comparison with the code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from ..analyze.plan_lints import CORR_PREFIX
from ..ra.expr import (
    And, BinOp, Case, Compare, Const, Expr, Field, Func, InList, Like, Not,
    Or, Predicate, TruePredicate, like_to_regex,
)
from ..sql.ast import (
    AggExpr, Exists, InSubquery, Query, ScalarSubquery, SelectItem, TableRef,
)
from ..sql.parser import parse
from .catalog import BindError, Catalog, Column, NUMERIC_KINDS, Table

_EQ_OPS = ("==", "!=")


@dataclass
class BoundRel:
    """One relation in scope: a FROM entry or a JOIN clause."""

    name: str                      # scope name (alias or table name)
    table: str | None              # catalog table name (None for derived)
    prefix: str                    # '' or '<alias>_'
    columns: dict[str, Column]     # SQL-visible name -> column meta
    kind: str                      # 'from' | 'inner' | 'left' | 'cross'
    on: Predicate | None = None    # bound ON predicate (join entries)
    subquery: "BoundQuery | None" = None

    def canonical(self, col: str) -> str:
        return self.prefix + col


@dataclass
class BoundItem:
    alias: str
    expr: Expr                     # bound; may contain AggExpr leaves
    kind: str
    pool: tuple[str, ...] | None = None   # carried for plain code columns


@dataclass
class BoundQuery:
    rels: list[BoundRel]
    items: list[BoundItem]
    where: Predicate | None
    group_by: list[str] = field(default_factory=list)        # canonical
    group_item_aliases: list[str] = field(default_factory=list)
    having: Predicate | None = None
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False
    set_op: "tuple[str, BoundQuery] | None" = None
    correlated: dict[str, str] = field(default_factory=dict)  # __corr_x -> x

    @property
    def has_aggregates(self) -> bool:
        return any(_contains_agg(i.expr) for i in self.items) or (
            self.having is not None and _pred_contains_agg(self.having))

    def describe(self) -> str:
        """Human-readable summary of the bound query (CLI ``--explain``)."""
        lines = ["bound query:"]
        for rel in self.rels:
            src = "(subquery)" if rel.subquery is not None else rel.table
            alias = "" if rel.name == rel.table else f" AS {rel.name}"
            on = f" ON {_short_pred(rel.on)}" if rel.on is not None else ""
            lines.append(f"  {rel.kind:>5s} {src}{alias}{on}")
        for item in self.items:
            lines.append(f"   item {item.alias} = {item.expr}")
        if self.where is not None:
            lines.append(f"  where {_short_pred(self.where)}")
        if self.group_by:
            lines.append(f"  group by {', '.join(self.group_by)}")
        if self.having is not None:
            lines.append(f" having {_short_pred(self.having)}")
        if self.order_by:
            lines.append("  order by " + ", ".join(
                f"{n} DESC" if d else n for n, d in self.order_by))
        if self.limit is not None:
            lines.append(f"  limit {self.limit}")
        if self.correlated:
            lines.append(f"   corr {self.correlated}")
        if self.set_op is not None:
            op, rhs = self.set_op
            rhs_desc = "\n".join("  " + ln for ln in
                                 rhs.describe().splitlines())
            lines.append(f" {op}:\n{rhs_desc}")
        return "\n".join(lines)


def _short_pred(pred: Predicate) -> str:
    """Predicate rendering that does not dump nested bound subqueries."""
    if isinstance(pred, And):
        return f"({_short_pred(pred.left)} AND {_short_pred(pred.right)})"
    if isinstance(pred, Or):
        return f"({_short_pred(pred.left)} OR {_short_pred(pred.right)})"
    if isinstance(pred, Not):
        return f"NOT {_short_pred(pred.inner)}"
    if isinstance(pred, Exists):
        kw = "NOT EXISTS" if pred.negated else "EXISTS"
        corr = sorted(pred.query.correlated.values())
        return f"{kw}(subquery, correlated on {corr})" if corr \
            else f"{kw}(subquery)"
    if isinstance(pred, InSubquery):
        kw = "NOT IN" if pred.negated else "IN"
        return f"{pred.expr} {kw} (subquery)"
    if isinstance(pred, Compare):
        left = ("(scalar subquery)"
                if isinstance(pred.left, ScalarSubquery) else pred.left)
        right = ("(scalar subquery)"
                 if isinstance(pred.right, ScalarSubquery) else pred.right)
        return f"{left} {pred.op} {right}"
    return str(pred)


def _contains_agg(expr: Expr) -> bool:
    if isinstance(expr, AggExpr):
        return True
    if isinstance(expr, BinOp):
        return _contains_agg(expr.left) or _contains_agg(expr.right)
    if isinstance(expr, Case):
        return (_contains_agg(expr.default)
                or any(_pred_contains_agg(p) or _contains_agg(e)
                       for p, e in expr.whens))
    if isinstance(expr, Func):
        return _contains_agg(expr.arg)
    return False


def _pred_contains_agg(pred: Predicate) -> bool:
    if isinstance(pred, (And, Or)):
        return _pred_contains_agg(pred.left) or _pred_contains_agg(pred.right)
    if isinstance(pred, Not):
        return _pred_contains_agg(pred.inner)
    if isinstance(pred, Compare):
        return _contains_agg(pred.left) or _contains_agg(pred.right)
    return False


@dataclass(frozen=True)
class _Typed:
    """A bound expression plus its inferred kind (and pool, for plain
    references to dictionary-encoded columns)."""

    expr: Expr
    kind: str
    pool: tuple[str, ...] | None = None


def _describe(t: _Typed) -> str:
    if isinstance(t.expr, Field):
        return f"{t.expr.name} ({t.kind})"
    if isinstance(t.expr, Const):
        return f"{t.expr.value!r} ({t.kind})"
    return f"expression ({t.kind})"


class _Binder:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- scope handling ------------------------------------------------------
    def bind(self, query: Query,
             outer: list[list[BoundRel]] | None = None) -> BoundQuery:
        outer = outer or []
        rels: list[BoundRel] = []
        correlated: dict[str, str] = {}
        scope_stack = [rels] + outer  # innermost first

        for ref in query.tables:
            rels.append(self._bind_ref(ref.table, ref.alias, ref.subquery,
                                       "from", outer))
        for clause in query.joins:
            rel = self._bind_ref(clause.table, clause.alias, clause.subquery,
                                 clause.kind, outer)
            rels.append(rel)
            if clause.using:
                lhs = self._resolve(clause.using, [rels[:-1]] + outer,
                                    correlated)
                rhs = self._resolve(clause.using, [[rel]], correlated)
                rel.on = Compare("==", lhs.expr, rhs.expr)
            elif clause.on is not None:
                rel.on = self._bind_pred(clause.on, scope_stack, correlated)

        where = (self._bind_pred(query.where, scope_stack, correlated)
                 if query.where is not None else None)

        items: list[BoundItem] = []
        for item in query.items:
            items.append(self._bind_item(item, scope_stack, correlated))
        by_alias = {i.alias: i for i in items}

        group_by: list[str] = []
        group_item_aliases: list[str] = []
        for name in query.group_by:
            try:
                typed = self._resolve(name, scope_stack, correlated)
                group_by.append(typed.expr.name)
            except BindError:
                if name in by_alias and not _contains_agg(by_alias[name].expr):
                    group_by.append(name)
                    group_item_aliases.append(name)
                else:
                    raise

        self._check_grouping(items, group_by, by_alias)

        having = None
        if query.having is not None:
            having = self._bind_pred(query.having, scope_stack, correlated,
                                     items=by_alias)

        order_by: list[tuple[str, bool]] = []
        for name, desc in query.order_by:
            if name not in by_alias:
                raise BindError(
                    f"ORDER BY column {name!r} must appear in the SELECT list")
            order_by.append((name, desc))

        set_op = None
        if query.set_op is not None:
            op, rhs_query = query.set_op
            rhs = self.bind(rhs_query, outer)
            if len(rhs.items) != len(items):
                raise BindError(
                    f"set operation arity mismatch: {len(items)} vs "
                    f"{len(rhs.items)} columns")
            set_op = (op, rhs)

        return BoundQuery(rels=rels, items=items, where=where,
                          group_by=group_by,
                          group_item_aliases=group_item_aliases,
                          having=having, order_by=order_by,
                          limit=query.limit, distinct=query.distinct,
                          set_op=set_op, correlated=correlated)

    def _bind_ref(self, table: str, alias: str | None, subquery,
                  kind: str, outer) -> BoundRel:
        if subquery is not None:
            sub = self.bind(subquery)  # derived tables are uncorrelated
            columns = {i.alias: Column(i.alias, i.kind, i.pool)
                       for i in sub.items}
            return BoundRel(name=alias or table, table=None, prefix="",
                            columns=columns, kind=kind, subquery=sub)
        cat_table = self.catalog.table(table)
        prefix = f"{alias}_" if alias else ""
        return BoundRel(name=alias or table, table=table, prefix=prefix,
                        columns={c.name: c for c in cat_table.columns},
                        kind=kind)

    def _resolve(self, name: str, scope_stack, correlated) -> _Typed:
        if "." in name:
            alias, col = name.split(".", 1)
            for depth, scope in enumerate(scope_stack):
                for rel in scope:
                    if rel.name != alias:
                        continue
                    if col not in rel.columns:
                        raise BindError(
                            f"unknown column {col!r} in table {alias!r}")
                    return self._hit(rel, col, depth, correlated)
            raise BindError(f"unknown table or alias {alias!r}")
        for depth, scope in enumerate(scope_stack):
            hits = [rel for rel in scope if name in rel.columns]
            if len(hits) > 1:
                names = ", ".join(sorted(r.name for r in hits))
                raise BindError(
                    f"ambiguous column {name!r}: present in {names}")
            if hits:
                return self._hit(hits[0], name, depth, correlated)
        raise BindError(f"unknown column {name!r}")

    def _hit(self, rel: BoundRel, col: str, depth: int,
             correlated) -> _Typed:
        meta = rel.columns[col]
        canonical = rel.canonical(col)
        if depth > 0:
            corr = f"{CORR_PREFIX}_{canonical}"
            correlated[corr] = canonical
            return _Typed(Field(corr), meta.kind, meta.pool)
        return _Typed(Field(canonical), meta.kind, meta.pool)

    # -- expressions ---------------------------------------------------------
    def _bind_expr(self, expr: Expr, scopes, correlated,
                   items=None) -> _Typed:
        if isinstance(expr, Field):
            try:
                return self._resolve(expr.name, scopes, correlated)
            except BindError:
                if items and expr.name in items:
                    it = items[expr.name]
                    return _Typed(it.expr, it.kind, it.pool)
                raise
        if isinstance(expr, Const):
            kind = ("str" if isinstance(expr.value, str)
                    else "float" if isinstance(expr.value, float) else "int")
            return _Typed(expr, kind)
        if isinstance(expr, BinOp):
            left = self._bind_expr(expr.left, scopes, correlated, items)
            right = self._bind_expr(expr.right, scopes, correlated, items)
            for side in (left, right):
                if side.kind not in NUMERIC_KINDS:
                    raise BindError(
                        f"arithmetic needs numeric operands, got "
                        f"{_describe(side)}")
            kind = ("float" if expr.op == "/"
                    or "float" in (left.kind, right.kind) else "int")
            return _Typed(BinOp(expr.op, left.expr, right.expr), kind)
        if isinstance(expr, Func):
            arg = self._bind_expr(expr.arg, scopes, correlated, items)
            if expr.func == "year":
                if arg.kind != "date":
                    raise BindError(
                        f"EXTRACT(YEAR ...) needs a date column, got "
                        f"{_describe(arg)}")
                return _Typed(Func("year", arg.expr, expr.meta), "int")
            if arg.kind != "str":
                raise BindError(
                    f"SUBSTRING needs a string column, got {_describe(arg)}")
            return _Typed(Func("substring", arg.expr, expr.meta), "str")
        if isinstance(expr, Case):
            whens = tuple(
                (self._bind_pred(p, scopes, correlated, items=items),
                 self._bind_expr(e, scopes, correlated, items).expr)
                for p, e in expr.whens)
            default = self._bind_expr(expr.default, scopes, correlated, items)
            return _Typed(Case(whens, default.expr), "float")
        if isinstance(expr, AggExpr):
            if expr.argument is None:
                return _Typed(AggExpr(expr.func, None), "int")
            arg = self._bind_expr(expr.argument, scopes, correlated, items)
            kind = ("int" if expr.func in ("count", "count_distinct")
                    else "float" if expr.func in ("sum", "mean") else arg.kind)
            return _Typed(AggExpr(expr.func, arg.expr), kind)
        if isinstance(expr, ScalarSubquery):
            sub = self.bind(expr.query, outer=scopes)
            if len(sub.items) != 1:
                raise BindError("a scalar subquery must select one column")
            return _Typed(ScalarSubquery(sub), sub.items[0].kind)
        raise BindError(f"cannot bind expression {expr!r}")

    def _bind_item(self, item: SelectItem, scopes, correlated) -> BoundItem:
        if item.agg is not None:
            agg = AggExpr(item.agg.func, item.agg.argument)
            typed = self._bind_expr(agg, scopes, correlated)
        else:
            typed = self._bind_expr(item.expr, scopes, correlated)
        return BoundItem(alias=item.alias, expr=typed.expr, kind=typed.kind,
                         pool=typed.pool)

    def _check_grouping(self, items, group_by, by_alias) -> None:
        grouped = set(group_by)
        for item in items:
            if _contains_agg(item.expr):
                continue
            if item.alias in grouped:
                continue
            if isinstance(item.expr, Field) and item.expr.name in grouped:
                continue
            if group_by or any(_contains_agg(i.expr) for i in items):
                raise BindError(
                    f"column {item.alias!r} must appear in GROUP BY or inside "
                    "an aggregate")

    # -- predicates ----------------------------------------------------------
    def _bind_pred(self, pred: Predicate, scopes, correlated,
                   items=None) -> Predicate:
        if isinstance(pred, TruePredicate):
            return pred
        if isinstance(pred, And):
            return And(self._bind_pred(pred.left, scopes, correlated, items),
                       self._bind_pred(pred.right, scopes, correlated, items))
        if isinstance(pred, Or):
            return Or(self._bind_pred(pred.left, scopes, correlated, items),
                      self._bind_pred(pred.right, scopes, correlated, items))
        if isinstance(pred, Not):
            inner = self._bind_pred(pred.inner, scopes, correlated, items)
            if isinstance(inner, (Exists, InSubquery)):
                return replace(inner, negated=not inner.negated)
            return Not(inner)
        if isinstance(pred, Compare):
            return self._bind_compare(pred, scopes, correlated, items)
        if isinstance(pred, InList):
            return self._bind_in_list(pred, scopes, correlated, items)
        if isinstance(pred, Like):
            return self._bind_like(pred, scopes, correlated, items)
        if isinstance(pred, Exists):
            sub = self.bind(pred.query, outer=scopes)
            return Exists(sub, pred.negated)
        if isinstance(pred, InSubquery):
            typed = self._bind_expr(pred.expr, scopes, correlated, items)
            sub = self.bind(pred.query, outer=scopes)
            if len(sub.items) != 1:
                raise BindError("IN (subquery) must select one column")
            return InSubquery(typed.expr, sub, pred.negated)
        raise BindError(f"cannot bind predicate {pred!r}")

    def _bind_compare(self, pred: Compare, scopes, correlated,
                      items) -> Predicate:
        left = self._bind_expr(pred.left, scopes, correlated, items)
        right = self._bind_expr(pred.right, scopes, correlated, items)
        # dictionary-encoded column vs string literal -> integer compare
        for a, b in ((left, right), (right, left)):
            if a.pool is not None and isinstance(b.expr, Const) \
                    and b.kind == "str":
                if pred.op not in _EQ_OPS:
                    raise BindError(
                        f"only =/<> comparisons are supported on encoded "
                        f"string column {_describe(a)}")
                code = (a.pool.index(b.expr.value)
                        if b.expr.value in a.pool else -1)
                if a is left:
                    return Compare(pred.op, a.expr, Const(code))
                return Compare(pred.op, Const(code), a.expr)
        lk = "code" if left.pool is not None else left.kind
        rk = "code" if right.pool is not None else right.kind
        numeric = set(NUMERIC_KINDS)
        if (lk in numeric) != (rk in numeric) or ("str" in (lk, rk)
                                                  and lk != rk):
            raise BindError(
                f"type mismatch: cannot compare {_describe(left)} with "
                f"{_describe(right)}")
        if lk == "str" and pred.op not in _EQ_OPS:
            raise BindError("ordering comparisons on string columns are not "
                            "supported")
        return Compare(pred.op, left.expr, right.expr)

    def _bind_in_list(self, pred: InList, scopes, correlated,
                      items) -> Predicate:
        typed = self._bind_expr(pred.expr, scopes, correlated, items)
        str_values = all(isinstance(v, str) for v in pred.values)
        if typed.pool is not None:
            if not str_values:
                raise BindError(
                    f"IN list for encoded string column {_describe(typed)} "
                    "must hold string literals")
            codes = tuple(typed.pool.index(v) for v in pred.values
                          if v in typed.pool)
            return InList(typed.expr, codes)
        if typed.kind == "str":
            if not str_values:
                raise BindError(
                    f"type mismatch: IN list for {_describe(typed)} must "
                    "hold string literals")
            return InList(typed.expr, pred.values)
        if str_values and pred.values:
            raise BindError(
                f"type mismatch: cannot compare {_describe(typed)} with "
                "string literals")
        return InList(typed.expr, pred.values)

    def _bind_like(self, pred: Like, scopes, correlated, items) -> Predicate:
        typed = self._bind_expr(pred.expr, scopes, correlated, items)
        if typed.pool is not None:
            rx = re.compile(like_to_regex(pred.pattern))
            codes = tuple(i for i, s in enumerate(typed.pool)
                          if rx.match(s) is not None)
            return InList(typed.expr, codes)
        if typed.kind != "str":
            raise BindError(
                f"LIKE needs a string column, got {_describe(typed)}")
        return Like(typed.expr, pred.pattern)


def bind(query: Query, catalog: Catalog) -> BoundQuery:
    """Bind a parsed query against the catalog."""
    return _Binder(catalog).bind(query)


def bind_sql(sql: str, catalog: Catalog) -> BoundQuery:
    """Parse + bind in one call."""
    return bind(parse(sql), catalog)
