"""Row helpers: packed tuples, the interpreter's one stable order, and
the sort-merge join's index pairs.

Set-semantics operators (UNION, INTERSECTION, DIFFERENCE, UNIQUE) need to
compare whole tuples; packing columns into a NumPy structured array lets us
use sorted/set primitives (`np.unique`, `np.isin`) directly.

JOIN, AGGREGATION and the exchange's row-order restore are sort-based
(paper SS II) and each needs a *stable* order of an integer key.
:func:`stable_order` is the one place that order is computed: it sorts the
unique composite ``(key - min) * n + row`` with NumPy's default (SIMD)
sort instead of running the stable timsort ``np.argsort(kind="stable")``
picks for integers, and returns exactly that argsort's permutation.
"""

from __future__ import annotations

import numpy as np

from .relation import Relation


_INT64_MAX = int(np.iinfo(np.int64).max)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")``, cheaper on integers.

    For a bool or integer key of ``n`` rows whose ``(max - min + 1) * n``
    fits in int64, the composites ``(key - min) * n + row`` are unique
    and order rows by (key, row), so any sort of them yields the stable
    permutation (``composite % n``), byte for byte.  Any other key --
    float, string, structured, or an integer range too wide -- takes the
    stable argsort itself.
    """
    n = len(keys)
    if keys.dtype.kind in "biu" and n:
        lo, hi = int(keys.min()), int(keys.max())
        if (hi - lo + 1) * n <= _INT64_MAX:
            composite = int64_offsets(keys, lo)
            composite *= n
            composite += np.arange(n)
            composite.sort()
            return composite % n
    return np.argsort(keys, kind="stable")


def int64_offsets(keys: np.ndarray, lo: int) -> np.ndarray:
    """``keys - lo`` as a new int64 array, for integer keys whose range
    above ``lo`` fits int64 (``lo`` at most their minimum)."""
    if keys.dtype.kind == "u" and lo >= 0:  # uint64 may not fit unshifted
        return (keys - keys.dtype.type(lo)).astype(np.int64)
    out = keys.astype(np.int64)
    out -= lo
    return out


def mixed_radix(cols: list[np.ndarray]) -> np.ndarray:
    """One int64 per row whose order is the rows' lexicographic order
    over ``cols`` (the first column most significant); equal rows get
    equal codes."""
    limit = np.iinfo(np.int64).max
    codes, card = np.zeros(len(cols[0]), dtype=np.int64), 1
    for col in cols:
        digit, base = _column_codes(col)
        if card * base > limit:
            # re-compress the prefix to dense codes, at most one per row
            prefix, codes = np.unique(codes, return_inverse=True)
            card = len(prefix)
        codes = codes * base + digit
        card *= base
    return codes


def _column_codes(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving int64 codes of one column, and their count: an
    integer column whose range is at most its row count is coded as
    ``col - min`` (no sort), any other by its ``np.unique`` inverse."""
    if col.dtype.kind in "biu":
        lo = int(col.min())
        base = int(col.max()) - lo + 1
        if base <= len(col):
            return int64_offsets(col, lo), base
    uniq, inverse = np.unique(col, return_inverse=True)
    return inverse, len(uniq)


def pack_rows(rel: Relation, fields: list[str] | None = None) -> np.ndarray:
    """Pack the given fields (default: all) into a structured array."""
    names = fields if fields is not None else rel.fields
    dtype = np.dtype([(f"c{i}", rel.column(n).dtype) for i, n in enumerate(names)])
    out = np.empty(rel.num_rows, dtype=dtype)
    for i, n in enumerate(names):
        out[f"c{i}"] = rel.column(n)
    return out


def rows_isin(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Boolean mask: which packed rows of `left` appear anywhere in `right`."""
    if left.dtype != right.dtype:
        raise ValueError(f"dtype mismatch: {left.dtype} vs {right.dtype}")
    if len(right) == 0:
        return np.zeros(len(left), dtype=bool)
    sorted_right = np.sort(right)
    idx = np.searchsorted(sorted_right, left)
    idx = np.minimum(idx, len(sorted_right) - 1)
    return sorted_right[idx] == left


def unique_rows_mask(packed: np.ndarray) -> np.ndarray:
    """Mask keeping the first occurrence of each distinct row (stable)."""
    _, first_idx = np.unique(packed, return_index=True)
    mask = np.zeros(len(packed), dtype=bool)
    mask[first_idx] = True
    return mask


def inner_join_indices(left_keys: np.ndarray, right_keys: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (li, ri) such that left_keys[li] == right_keys[ri].

    A sort-merge join: both sides are put in :func:`stable_order`, and
    each sorted left key finds its run of equal right keys.  Duplicate
    keys on both sides give the full cross product per key group.
    Output is ordered by key, then by left index, then right index.
    """
    if len(left_keys) == 0 or len(right_keys) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    lorder = stable_order(left_keys)
    rorder = stable_order(right_keys)
    lsorted = left_keys[lorder]
    rsorted = right_keys[rorder]

    lo, counts = _probe(lsorted, rsorted)  # first match, matches per left row
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    li_sorted = np.repeat(np.arange(len(lsorted)), counts)
    # right positions: for each left row, the run lo[i]..hi[i]
    starts = np.repeat(lo, counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    ri_sorted = starts + within

    return lorder[li_sorted], rorder[ri_sorted]


def _probe(lsorted: np.ndarray, rsorted: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """For each sorted left key, where its run of equal keys starts in
    the sorted right keys, and how long the run is.

    Integer keys whose joint range is at most the row count are counted
    into per-key bins (one ``bincount``); other keys binary-search the
    right side twice.  Both give the same two arrays.
    """
    if lsorted.dtype.kind in "biu" and rsorted.dtype.kind in "biu":
        lo = min(int(lsorted[0]), int(rsorted[0]))
        span = max(int(lsorted[-1]), int(rsorted[-1])) - lo + 1
        if span <= len(lsorted) + len(rsorted):
            per_key = np.bincount(int64_offsets(rsorted, lo), minlength=span)
            ends = np.cumsum(per_key)
            slot = int64_offsets(lsorted, lo)
            counts = per_key[slot]
            return ends[slot] - counts, counts
    first = np.searchsorted(rsorted, lsorted, side="left")
    return first, np.searchsorted(rsorted, lsorted, side="right") - first
