"""SORT and UNIQUE operators.

These maintain ordering relations amongst tuples (paper SS II).  They are
the fusion *barriers*: SORT and UNIQUE "cannot be fused with any other
operators" (SS III-C) because every output element depends on the entire
input.
"""

from __future__ import annotations

import numpy as np

from ..errors import RelationError
from .relation import Relation
from .rows import mixed_radix, pack_rows, stable_order, unique_rows_mask


def sort_order(columns, by: list[str],
               descending: "bool | list[bool]" = False) -> np.ndarray:
    """The stable row permutation sorting ``columns`` by ``by``.

    ``descending`` may be a single bool (legacy semantics: a fully
    reversed order, ties reversed too) or a per-field list, in which
    case descending fields sort by *inverted ranks* -- a stable
    multi-direction sort where ties keep their original order.  When
    every key is bool or integer (a descending field's ranks always
    are), the keys are coded into one int64 (:func:`mixed_radix`) and
    put in :func:`stable_order`; any other key takes ``np.lexsort``.
    Both give the one stable permutation, byte for byte.
    """
    if not by:
        raise RelationError("sort needs at least one field")
    for n in by:
        if n not in columns:
            raise RelationError(f"sort field {n!r} not in relation")
    directions = (descending if isinstance(descending, list)
                  else [False] * len(by))
    if len(directions) != len(by):
        raise RelationError(
            f"{len(by)} sort field(s) but {len(directions)} direction(s)")
    keys = []
    for name, desc in zip(by, directions):
        col = np.asarray(columns[name])
        if desc:
            values, inverse = np.unique(col, return_inverse=True)
            col = (len(values) - 1) - inverse
        keys.append(col)
    if len(keys[0]) and all(k.dtype.kind in "biu" for k in keys):
        order = stable_order(keys[0] if len(keys) == 1 else mixed_radix(keys))
    else:
        # np.lexsort sorts by the *last* key first
        order = np.lexsort(tuple(reversed(keys)))
    if not isinstance(descending, list) and descending:
        order = order[::-1]
    return order


def sort(rel: Relation, by: list[str] | None = None,
         descending: "bool | list[bool]" = False) -> Relation:
    """SORT: stable sort by the given fields (default: the key field)."""
    fields = by if by is not None else [rel.key]
    return rel.take(sort_order(rel.columns, fields, descending))


def top_n(rel: Relation, by: list[str], n: int,
          descending: "bool | list[bool]" = False) -> Relation:
    """TOP-N: the first ``n`` tuples of the sorted relation (ORDER BY +
    LIMIT).  Ties at the cut are broken by the stable sort order."""
    if n < 0:
        raise RelationError(f"top_n needs n >= 0, got {n}")
    order = sort_order(rel.columns, by, descending)
    return rel.take(order[:n])


def unique(rel: Relation) -> Relation:
    """UNIQUE: drop duplicate tuples, keeping first occurrences."""
    mask = unique_rows_mask(pack_rows(rel))
    return rel.take(mask)


def is_sorted(rel: Relation, by: list[str] | None = None) -> bool:
    """True if the relation is non-decreasing in the given fields."""
    fields = by if by is not None else [rel.key]
    packed = pack_rows(rel, fields)
    if len(packed) <= 1:
        return True
    # structured (void) dtypes don't support <= directly; a row sequence is
    # sorted iff it equals its own (lexicographic) sort
    return bool(np.array_equal(np.sort(packed), packed))
