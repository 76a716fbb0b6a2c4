"""Differential validation: plan execution vs. the reference interpreter.

Both executors produce NumPy relations; equality is *byte-for-byte* after
a canonical sort on every output column (the two paths agree on values,
not necessarily on row order).  Queries with ORDER BY are additionally
checked for the ordering property itself: a stable re-sort of the plan
output on the ORDER BY keys must be a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..plans.interp import evaluate
from ..ra.relation import Relation
from ..sql.lexer import SqlError
from .binder import bind_sql
from .catalog import BindError, Catalog
from .common import UnsupportedError, order_spec
from .lower import CompiledQuery, lower
from .reference import execute as reference_execute, lexsort_order


def canonical(rel: Relation) -> Relation:
    """Sort on all columns; ties cannot survive over the full width."""
    if rel.num_rows <= 1:
        return rel
    order = lexsort_order(rel.columns, by=list(rel.fields))
    return rel.take(order)


def compare_relations(got: Relation, want: Relation) -> str | None:
    """Byte-level comparison after canonical sorting; None when equal."""
    if got.fields != want.fields:
        return f"field mismatch: {got.fields} vs {want.fields}"
    if got.num_rows != want.num_rows:
        return f"row count mismatch: {got.num_rows} vs {want.num_rows}"
    g, w = canonical(got), canonical(want)
    for name in g.fields:
        a, b = g.column(name), w.column(name)
        if a.dtype != b.dtype:
            return f"dtype mismatch on {name!r}: {a.dtype} vs {b.dtype}"
        if a.tobytes() != b.tobytes():
            diff = int(np.count_nonzero(a != b)) if a.dtype.kind != "f" else \
                int(np.count_nonzero(a.view(np.uint8) != b.view(np.uint8)))
            return f"value mismatch on {name!r} ({diff} diffs)"
    return None


def ordering_violation(rel: Relation, by: list[str],
                       descending) -> str | None:
    """A stable re-sort on the ORDER BY keys must leave every byte alone.

    The check always sorts with per-field directions: a single ``True``
    would reverse ties too, so re-sorting a correctly ordered result
    would not be the identity.
    """
    if rel.num_rows <= 1:
        return None
    if not isinstance(descending, list):
        descending = [descending] * len(by)
    order = lexsort_order(rel.columns, by=by, descending=descending)
    if not np.array_equal(order, np.arange(rel.num_rows)):
        return f"output is not ordered by {by}"
    return None


def run_plan(compiled: CompiledQuery, tables: dict[str, Relation]) -> Relation:
    """Execute the lowered plan over the given base tables."""
    results = evaluate(compiled.plan, sources=tables)
    return results[compiled.sink.name]


@dataclass
class QueryReport:
    """Coverage/validation record for one query (JSON-friendly)."""

    query: str
    status: str                  # ok | parse_error | bind_error | unsupported
                                 # | mismatch | error
    detail: str = ""
    rows: int = -1

    def to_json(self) -> dict:
        return {"query": self.query, "status": self.status,
                "detail": self.detail, "rows": self.rows}


def validate_sql(name: str, sql: str, catalog: Catalog,
                 tables: dict[str, Relation],
                 source_rows: dict[str, int] | None = None) -> QueryReport:
    """Compile + execute + differentially validate one query."""
    try:
        bound = bind_sql(sql, catalog)
    except BindError as exc:
        return QueryReport(name, "bind_error", str(exc))
    except SqlError as exc:
        return QueryReport(name, "parse_error", str(exc))
    try:
        compiled = lower(bound, catalog, source_rows=source_rows, name=name)
    except UnsupportedError as exc:
        return QueryReport(name, "unsupported", str(exc))
    try:
        got = run_plan(compiled, tables)
        want = reference_execute(bound, tables)
    except UnsupportedError as exc:
        return QueryReport(name, "unsupported", str(exc))
    diff = compare_relations(got, want)
    if diff is not None:
        return QueryReport(name, "mismatch", diff, rows=got.num_rows)
    if bound.order_by:
        by, descending = order_spec(bound)
        for rel in (got, want):
            diff = ordering_violation(rel, by, descending)
            if diff is not None:
                return QueryReport(name, "mismatch", diff, rows=got.num_rows)
    return QueryReport(name, "ok", rows=got.num_rows)


@dataclass
class CoverageReport:
    reports: list[QueryReport] = field(default_factory=list)

    @property
    def covered(self) -> list[str]:
        return [r.query for r in self.reports if r.status == "ok"]

    @property
    def failed(self) -> list[QueryReport]:
        return [r for r in self.reports
                if r.status in ("mismatch", "error", "parse_error")]

    def to_json(self) -> dict:
        return {
            "covered": len(self.covered),
            "total": len(self.reports),
            "queries": {r.query: r.to_json() for r in self.reports},
        }


def validate_suite(queries: dict[str, str], catalog: Catalog,
                   tables: dict[str, Relation],
                   source_rows: dict[str, int] | None = None
                   ) -> CoverageReport:
    """Differentially validate every query; never raises per-query."""
    report = CoverageReport()
    for name, sql in queries.items():
        try:
            report.reports.append(
                validate_sql(name, sql, catalog, tables,
                             source_rows=source_rows))
        except Exception as exc:   # a crash is a reportable failure, not
            report.reports.append(  # a suite abort
                QueryReport(name, "error", f"{type(exc).__name__}: {exc}"))
    return report
