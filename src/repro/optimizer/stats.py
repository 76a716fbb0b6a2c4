"""Per-table data statistics the cost model prices against.

Two construction paths:

* :meth:`DataStats.from_rows` -- from annotated row counts only (the
  timing path's input), widths taken from the plan's source declarations;
* :meth:`DataStats.from_relations` -- observed from real relations
  (rows, widths, per-column distinct counts, and skew measured as the
  heaviest value's frequency share).  Per-node observed rows, to audit
  the plan's annotations against, are an observed
  :class:`~repro.runtime.sizes.PlanShape`'s ``sizes``.

``digest()`` is the stats component of every optimizer cache key: any
change in cardinality, width, group count, or skew re-keys the entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.opmodels import out_row_nbytes
from ..plans.plan import Plan
from ..ra.relation import Relation
from .fingerprint import digest

#: cap on per-column distinct counting (full counting on huge relations
#: would defeat the point of cheap stats)
_DISTINCT_SAMPLE_ROWS = 1_000_000


@dataclass(frozen=True)
class TableStats:
    """Statistics of one source table."""

    rows: int
    row_nbytes: int = 4
    #: (column, distinct-count) pairs -- group cardinalities for the
    #: aggregate/exchange estimates; empty when unobserved
    distinct: tuple[tuple[str, int], ...] = ()
    #: heaviest single value's frequency share in the first key column
    #: (0.0 = unobserved/uniform, 1.0 = one value everywhere); prices
    #: the straggler shard under hash partitioning
    skew: float = 0.0

    @property
    def nbytes(self) -> float:
        return float(self.rows) * self.row_nbytes


@dataclass(frozen=True)
class DataStats:
    """Immutable per-source statistics for one optimization call."""

    tables: tuple[tuple[str, TableStats], ...]

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_rows(plan: Plan, source_rows: dict[str, int] | None) -> "DataStats":
        """Annotation-only stats: rows from the caller, widths from the
        plan's source declarations, no distinct/skew observations."""
        rows = source_rows or {}
        tables = tuple(
            (src.name, TableStats(rows=int(rows.get(src.name, 0)),
                                  row_nbytes=out_row_nbytes(src)))
            for src in sorted(plan.sources(), key=lambda s: s.name))
        return DataStats(tables=tables)

    @staticmethod
    def from_relations(plan: Plan, sources: dict[str, Relation]) -> "DataStats":
        """Observed stats: per-column distinct counts and value skew
        measured on the real relations feeding the plan."""
        import numpy as np

        tables = []
        for src in sorted(plan.sources(), key=lambda s: s.name):
            rel = sources.get(src.name)
            if rel is None:
                tables.append((src.name, TableStats(
                    rows=0, row_nbytes=out_row_nbytes(src))))
                continue
            n = rel.num_rows
            distinct: list[tuple[str, int]] = []
            skew = 0.0
            for i, fld in enumerate(rel.fields):
                col = rel.column(fld)[:_DISTINCT_SAMPLE_ROWS]
                if not np.issubdtype(col.dtype, np.number):
                    continue
                _, counts = np.unique(col, return_counts=True)
                distinct.append((fld, int(len(counts))))
                if i == 0 and n > 0:
                    skew = float(counts.max()) / len(col)
            tables.append((src.name, TableStats(
                rows=n, row_nbytes=out_row_nbytes(src),
                distinct=tuple(distinct), skew=skew)))
        return DataStats(tables=tuple(tables))

    # -- views ----------------------------------------------------------
    def table(self, name: str) -> TableStats:
        for tname, ts in self.tables:
            if tname == name:
                return ts
        raise KeyError(name)

    def source_rows(self) -> dict[str, int]:
        """The ``{source: rows}`` mapping the executors take."""
        return {name: ts.rows for name, ts in self.tables}

    @property
    def max_skew(self) -> float:
        return max((ts.skew for _, ts in self.tables), default=0.0)

    def scaled(self, factor: float) -> "DataStats":
        """Same stats with every row count scaled (monotonicity probes)."""
        return DataStats(tables=tuple(
            (name, replace(ts, rows=max(0, int(ts.rows * factor))))
            for name, ts in self.tables))

    def digest(self) -> str:
        return digest("stats", self.tables)
