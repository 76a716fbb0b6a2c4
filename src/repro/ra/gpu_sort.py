"""Staged (GPU-style) sort and unique: the algorithms behind the barrier.

The cost model charges SORT as local-sort + log(n) merge passes over the
data (Diamos et al.'s structure).  This module implements that algorithm
*functionally*, pass by pass, so the barrier operators have a real staged
implementation -- mirroring what :mod:`repro.ra.stages` does for SELECT:

1. **local sort** -- each CTA chunk is sorted independently (one pass);
2. **merge passes** -- pairs of sorted runs merge into double-length runs,
   one full pass over the data per doubling, until one run remains;
3. (unique) **adjacent-difference compact** -- one filter pass keeps each
   first-of-run tuple, using the same buffer/gather skeleton as SELECT.

`staged_sort` is checked against ``np.lexsort`` and `staged_unique`
against the set semantics; the pass counter is checked against the cost
model's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import RelationError
from .relation import Relation
from .rows import pack_rows, stable_order


@dataclass
class SortStats:
    """Work accounting of one staged sort (compared to the cost model)."""

    n_rows: int
    local_sort_passes: int = 0
    merge_passes: int = 0
    elements_moved: int = 0

    @property
    def total_passes(self) -> int:
        return self.local_sort_passes + self.merge_passes


def _merge_runs(keys: np.ndarray, order: np.ndarray, run_length: int,
                stats: SortStats) -> np.ndarray:
    """One merge pass: merge adjacent sorted runs of `run_length`."""
    n = len(order)
    out = np.empty_like(order)
    pos = 0
    for start in range(0, n, 2 * run_length):
        left = order[start:start + run_length]
        right = order[start + run_length:start + 2 * run_length]
        if len(right) == 0:
            out[pos:pos + len(left)] = left
            pos += len(left)
            continue
        # classic two-finger merge on the packed keys (stable: ties prefer
        # the left run, which holds the earlier original positions)
        li = ri = 0
        lk, rk = keys[left], keys[right]
        while li < len(left) and ri < len(right):
            if rk[ri] < lk[li]:
                out[pos] = right[ri]
                ri += 1
            else:
                out[pos] = left[li]
                li += 1
            pos += 1
        for v in left[li:]:
            out[pos] = v
            pos += 1
        for v in right[ri:]:
            out[pos] = v
            pos += 1
    stats.merge_passes += 1
    stats.elements_moved += n
    return out


def staged_sort(rel: Relation, by: list[str] | None = None,
                num_ctas: int = 16) -> tuple[Relation, SortStats]:
    """Sort via CTA-local sorts + pairwise merge passes.

    Returns the sorted relation and the pass statistics.  Semantically
    identical (and stable, like ``np.lexsort``) to :func:`repro.ra.sort.sort`.
    """
    fields_ = by if by is not None else [rel.key]
    for name in fields_:
        if name not in rel.columns:
            raise RelationError(f"sort field {name!r} not in relation")
    n = rel.num_rows
    stats = SortStats(n_rows=n)
    if n <= 1:
        return rel, stats

    # encode the (possibly multi-field) key as a dense stable rank: NumPy
    # structured scalars are not orderable with <, and ranking also bakes
    # in the original-position tie-break, making the merges trivially
    # stable.  The merge passes below still do all the data movement.
    packed = pack_rows(rel, fields_)
    rank_order = np.argsort(packed, kind="stable")
    keys = np.empty(n, dtype=np.int64)
    keys[rank_order] = np.arange(n)
    # fixed-stride chunks so run boundaries stay aligned across merge
    # passes (the last CTA may get a short run)
    run_length = _initial_run_length(n, num_ctas)
    order = np.arange(n, dtype=np.int64)

    # stage 1: CTA-local sorts (one pass over the data)
    for start in range(0, n, run_length):
        chunk = slice(start, min(start + run_length, n))
        local = order[chunk]
        if len(local) > 1:
            order[chunk] = local[stable_order(keys[local])]
    stats.local_sort_passes = 1
    stats.elements_moved += n

    # stage 2: merge passes, doubling the run length each time
    while run_length < n:
        order = _merge_runs(keys, order, run_length, stats)
        run_length *= 2

    return rel.take(order), stats


def staged_unique(rel: Relation, num_ctas: int = 16
                  ) -> tuple[Relation, SortStats]:
    """UNIQUE as sort + adjacent-difference compaction.

    Output keeps one representative per distinct tuple, in sorted order
    (set-equal to :func:`repro.ra.sort.unique`).
    """
    n = rel.num_rows
    if n <= 1:
        return rel, SortStats(n_rows=n)
    sorted_rel, stats = staged_sort(rel, by=list(rel.fields), num_ctas=num_ctas)
    packed = pack_rows(sorted_rel)
    keep = np.ones(n, dtype=bool)
    keep[1:] = packed[1:] != packed[:-1]  # the adjacent-difference filter
    stats.elements_moved += n
    return sorted_rel.take(keep), stats


def _initial_run_length(n_rows: int, num_ctas: int) -> int:
    """Fixed per-CTA run length: ceil(n / ctas)."""
    ctas = max(1, min(num_ctas, n_rows))
    return -(-n_rows // ctas)


def expected_merge_passes(n_rows: int, num_ctas: int = 16) -> int:
    """Merge passes the staged sort performs (for cost-model cross-checks)."""
    if n_rows <= 1:
        return 0
    run = _initial_run_length(n_rows, num_ctas)
    passes = 0
    while run < n_rows:
        run *= 2
        passes += 1
    return passes
