"""Arithmetic (ARITH) and AGGREGATION operators.

Data-warehousing queries mix RA operators with arithmetic over fields --
the paper's canonical example is the total discounted price
``sum((1 - discount) * price)`` (Fig 2(h)) -- and grouped aggregation
(Fig 2(g)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import RelationError
from .expr import Expr
from .relation import Relation, _as_column, _Source
from .rows import mixed_radix, pack_rows, stable_order

#: Supported aggregate functions.
AGG_FUNCS = ("sum", "mean", "count", "count_distinct", "min", "max")


def arith(rel: Relation, outputs: Mapping[str, Expr], keep: list[str] | None = None
          ) -> Relation:
    """ARITH: compute new fields from expressions over existing fields.

    `keep` lists input fields to retain; by default all inputs are kept
    (PROJECT discards sources explicitly, per Fig 2(h)).
    """
    base = rel.fields if keep is None else keep
    for n in base:
        if n not in rel.columns:
            raise RelationError(f"keep field {n!r} not in relation")
    cols = {n: rel._sources[n] for n in base}
    for name, expr in outputs.items():
        missing = expr.fields() - set(rel.fields)
        if missing:
            raise RelationError(f"expression for {name!r} uses unknown fields {missing}")
        value = expr.evaluate(rel.columns)
        value = np.broadcast_to(np.asarray(value), (rel.num_rows,)).copy()
        cols[name] = _Source(_as_column(value))
    if not cols:
        raise RelationError("a relation needs at least one column")
    key = rel.key if rel.key in cols else next(iter(cols))
    return Relation._of(cols, rel.num_rows, key)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: `func` applied to `field` (field ignored for count)."""

    func: str
    field: str | None = None

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise RelationError(f"unknown aggregate {self.func!r}; have {AGG_FUNCS}")
        if self.func not in ("count",) and self.field is None:
            raise RelationError(f"aggregate {self.func!r} needs a field")


def aggregate(rel: Relation, group_by: list[str],
              aggs: Mapping[str, AggSpec]) -> Relation:
    """AGGREGATION: grouped reduction, sort then reduce by segment.

    Returns one tuple per distinct `group_by` value combination, in the
    order ``np.unique(pack_rows(rel, group_by))`` gives, with one output
    field per entry of `aggs`.  Each group's key values are those of its
    first row.  Integer SUM, MIN, MAX, COUNT and COUNT DISTINCT are exact;
    a float SUM accumulates in float64, left to right in input row order,
    and is cast back to the column's dtype.  MEAN is that float64 sum over
    the count, cast to a float column's dtype (float64 for integers).
    """
    if not aggs:
        raise RelationError("aggregate needs at least one output")
    for n in group_by:
        if n not in rel.columns:
            raise RelationError(f"group-by field {n!r} not in relation")
    for spec in aggs.values():
        if spec.func in ("sum", "mean", "min", "max") and \
                rel.dtype(spec.field).kind not in "biuf":
            raise RelationError(f"aggregate {spec.func!r} needs a numeric "
                                f"field; {spec.field!r} is "
                                f"{rel.dtype(spec.field)}")

    if rel.num_rows == 0:
        return _aggregate_empty(rel, group_by, aggs)

    # the group-ordered rows: each aggregated field is gathered once, at
    # its source index composed with the group order
    if group_by:
        order, starts = _group_order(rel, group_by)
        firsts = rel.take(order[starts])
        out: dict[str, np.ndarray] = {n: firsts[n] for n in group_by}
        ordered = rel.take(order)
    else:
        ordered, starts, out = rel, np.zeros(1, dtype=np.intp), {}
    counts = np.diff(starts, append=rel.num_rows)
    for name, spec in aggs.items():
        if spec.func == "count":
            out[name] = counts.astype(np.int64)
            continue
        values = ordered[spec.field]
        if spec.func == "count_distinct":
            out[name] = _count_distinct(values, counts)
        elif spec.func == "min":
            out[name] = np.minimum.reduceat(values, starts)
        elif spec.func == "max":
            out[name] = np.maximum.reduceat(values, starts)
        elif spec.func == "sum" and values.dtype.kind != "f":
            out[name] = np.add.reduceat(values, starts,
                                        dtype=values[:0].sum().dtype)
        else:  # float sum, or mean
            result = _sums64(values, starts, counts)
            if spec.func == "mean":
                result = result / counts
            out[name] = (result.astype(values.dtype, copy=False)
                         if values.dtype.kind == "f" else result)

    key = group_by[0] if group_by else next(iter(out))
    return Relation(out, key=key)


def _aggregate_empty(rel: Relation, group_by: list[str],
                     aggs: Mapping[str, AggSpec]) -> Relation:
    """No rows: no groups under GROUP BY (empty output typed as the
    non-empty path types it), else one global group over nothing
    (MIN/MAX raise)."""
    cols: dict[str, np.ndarray] = {n: rel.column(n) for n in group_by}
    for name, spec in aggs.items():
        if spec.func in ("count", "count_distinct"):
            cols[name] = np.zeros(0 if group_by else 1, dtype=np.int64)
        elif group_by:
            col = rel.column(spec.field)[:0]
            if col.dtype.kind != "f" and spec.func in ("sum", "mean"):
                col = col.astype(col.sum().dtype if spec.func == "sum"
                                 else np.float64)
            cols[name] = col  # float sum and mean, min and max: as is
        elif spec.func == "mean":
            cols[name] = np.array([np.nan])
        else:
            col = rel.column(spec.field)
            cols[name] = np.array([getattr(col, spec.func)()])
    return Relation(cols, key=group_by[0] if group_by else next(iter(cols)))


def _group_order(rel: Relation, group_by: list[str]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Stable permutation making each group contiguous, and where each
    group starts in it; groups come in packed-key ``np.unique`` order.

    The rows are coded by one order-preserving integer per row (the
    column itself, or :func:`~repro.ra.rows.mixed_radix` over several)
    and put in :func:`~repro.ra.rows.stable_order`, so an integer key
    costs one SIMD sort of unique composites rather than a stable
    argsort."""
    cols = [rel.column(n) for n in group_by]
    if any(c.dtype.kind == "f" and np.isnan(c).any() for c in cols):
        # a NaN never equals itself, so np.unique makes every NaN row its
        # own group; packing the rows reproduces that exactly
        _, codes = np.unique(pack_rows(rel, group_by), return_inverse=True)
    elif len(cols) == 1:
        codes = cols[0]
    else:
        codes = mixed_radix(cols)
    order = stable_order(codes)
    ordered = codes[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            ordered[1:] != ordered[:-1])))
    return order, starts


def _count_distinct(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Distinct values per contiguous group (``np.unique`` equality)."""
    uniq, code = np.unique(values, return_inverse=True)
    group = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pairs = np.unique(group * len(uniq) + code)
    return np.bincount(pairs // len(uniq), minlength=len(counts))


#: a group of more rows than this is summed alone, over its own slice
_LONG_GROUP = 256


def _sums64(values: np.ndarray, starts: np.ndarray,
            counts: np.ndarray) -> np.ndarray:
    """Float64 sum of each contiguous group, left to right in row order.

    A cumulative sum adds strictly in order (``np.add.reduce`` and
    ``reduceat`` reassociate), so each group's sum is the last entry of
    one.  A group of more than ``_LONG_GROUP`` rows takes a 1-D
    ``np.cumsum`` over its slice.  Shorter groups are bucketed by
    power-of-two length, and each bucket is laid out as a ``(width,
    groups)`` block padded with -0.0, which leaves every sum unchanged,
    and summed down the block at once.
    """
    x = values.astype(np.float64, copy=False)
    out = np.empty(len(counts))
    long = counts > _LONG_GROUP
    for g in np.flatnonzero(long):
        out[g] = np.cumsum(x[starts[g]:starts[g] + counts[g]])[-1]
    short = np.flatnonzero(~long)
    width = np.int64(1) << np.frexp((counts[short] - 1).astype(np.float64))[1]
    for w in np.unique(width):
        groups = short[width == w]
        step = np.arange(w)[:, None]
        rows = np.minimum(starts[groups] + step, len(x) - 1)
        block = np.where(step < counts[groups], x[rows], -0.0)
        out[groups] = np.cumsum(block, axis=0)[-1]
    return out
