"""Functional implementations of the relational-algebra operators (Table I).

These compute *results*; simulated execution cost is attached separately by
the kernel layer (:mod:`repro.core.kernel`).  Semantics follow the paper's
Table I: relations are sets of tuples, the first field is the key, set
operators compare whole tuples, and JOIN matches on the key field.
"""

from __future__ import annotations

import numpy as np

from ..errors import RelationError
from .expr import Predicate
from .relation import Relation, _Source
from .rows import (
    inner_join_indices, pack_rows, rows_isin, stable_order, unique_rows_mask,
)


def select(rel: Relation, predicate: Predicate) -> Relation:
    """SELECT: keep the tuples satisfying `predicate`."""
    mask = predicate.evaluate(rel.columns)
    return rel.take(np.asarray(mask, dtype=bool))


def project(rel: Relation, fields: list[str] | list[int]) -> Relation:
    """PROJECT: keep only the named fields (or field positions)."""
    if not fields:
        raise RelationError("projection needs at least one field")
    names = [rel.fields[f] if isinstance(f, int) else f for f in fields]
    for n in names:
        if n not in rel.columns:
            raise RelationError(f"projecting unknown field {n!r}")
    return Relation._of({n: rel._sources[n] for n in names}, rel.num_rows,
                        names[0])


def _check_union_compatible(x: Relation, y: Relation) -> None:
    if len(x.fields) != len(y.fields):
        raise RelationError(
            f"set operation on incompatible arities {len(x.fields)} vs {len(y.fields)}")


def _align(y: Relation, x: Relation) -> Relation:
    """View `y` with `x`'s field names (set ops match positionally)."""
    return Relation._of(dict(zip(x.fields, y._sources.values())),
                        y.num_rows, x.key)


def union(x: Relation, y: Relation) -> Relation:
    """UNION: set union of tuples, keeping x's order then new tuples of y."""
    _check_union_compatible(x, y)
    y = _align(y, x)
    px, py = pack_rows(x), pack_rows(y)
    if px.dtype != py.dtype:
        py = py.astype(px.dtype)
    fresh_y = ~rows_isin(py, px) & unique_rows_mask(py)
    x_unique = unique_rows_mask(px)
    cols = {
        n: np.concatenate([x.column(n)[x_unique], y.column(n)[fresh_y]])
        for n in x.fields
    }
    return Relation(cols, key=x.key)


def intersection(x: Relation, y: Relation) -> Relation:
    """INTERSECTION: tuples appearing in both x and y."""
    _check_union_compatible(x, y)
    y = _align(y, x)
    px, py = pack_rows(x), pack_rows(y)
    if px.dtype != py.dtype:
        py = py.astype(px.dtype)
    mask = rows_isin(px, py) & unique_rows_mask(px)
    return x.take(mask)


def difference(x: Relation, y: Relation) -> Relation:
    """DIFFERENCE: tuples of x not appearing in y."""
    _check_union_compatible(x, y)
    y = _align(y, x)
    px, py = pack_rows(x), pack_rows(y)
    if px.dtype != py.dtype:
        py = py.astype(px.dtype)
    mask = ~rows_isin(px, py) & unique_rows_mask(px)
    return x.take(mask)


def product(x: Relation, y: Relation) -> Relation:
    """PRODUCT: cartesian product; y's fields are appended (renamed on clash)."""
    nx, ny = x.num_rows, y.num_rows
    xi = np.repeat(np.arange(nx), ny)
    yi = np.tile(np.arange(ny), nx)
    return Relation._of(_joined(x._taken(xi), y._taken(yi), skip=None),
                        nx * ny, x.key)


def _joined(xs: dict[str, _Source], ys: dict[str, _Source],
            skip: str | None) -> dict[str, _Source]:
    """x's fields, then y's but ``skip``, each renamed with a ``_r``
    suffix when it clashes with an x field."""
    for n, src in ys.items():
        if n != skip:
            xs[n if n not in xs else f"{n}_r"] = src
    return xs


def _join_keys(x: Relation, y: Relation,
               on: "str | tuple[str, str] | None") -> tuple[str, str]:
    """Resolve ``on`` to (left key, right key).

    ``on`` may be a single shared column name, a ``(left, right)`` pair
    for differently-named equi-join columns, or None (both relations'
    declared key fields).
    """
    if on is None:
        kx, ky = x.key, y.key
    elif isinstance(on, tuple):
        kx, ky = on
    else:
        kx = ky = on
    if kx not in x.columns:
        raise RelationError(f"join key {kx!r} missing from left relation")
    if ky not in y.columns:
        raise RelationError(f"join key {ky!r} missing from right relation")
    return kx, ky


def join(x: Relation, y: Relation, on: str | tuple[str, str] | None = None,
         preserve_order: bool = False) -> Relation:
    """JOIN: inner equi-join on the key field (Table I).

    Output tuples are x's fields followed by y's non-key fields, renamed
    with a ``_r`` suffix when they clash with x's field names.  The
    default output order is (key, left index, right index); with
    ``preserve_order`` the pairs are re-sorted to (left index, right
    index), i.e. x's row order with each row's matches in y order.
    """
    kx, ky = _join_keys(x, y, on)
    li, ri = inner_join_indices(x.column(kx), y.column(ky))
    if preserve_order:
        # each left row's matches share one key, so they already come in
        # right-index order: a stable sort on the left index suffices
        order = stable_order(li)
        li, ri = li[order], ri[order]
    return Relation._of(_joined(x._taken(li), y._taken(ri), skip=ky),
                        len(li), kx)


def left_join(x: Relation, y: Relation,
              on: str | tuple[str, str] | None = None,
              match_field: str = "__matched") -> Relation:
    """LEFT OUTER JOIN with an explicit match indicator.

    Every x row appears at least once, in x's row order, with its y
    matches in y order.  Unmatched rows carry zero / empty-string pads in
    y's fields and ``match_field`` = 0 (matched rows = 1); downstream
    predicates and counts consult the indicator instead of SQL NULLs.
    """
    kx, ky = _join_keys(x, y, on)
    li, ri = inner_join_indices(x.column(kx), y.column(ky))
    # x order with each row's matches in y order (see join), and one
    # padded slot in place of each x row without a match
    ri = ri[stable_order(li)]
    hits = np.bincount(li, minlength=x.num_rows)
    slots = np.maximum(hits, 1)
    full_li = np.repeat(np.arange(x.num_rows), slots)
    pad = np.repeat(hits == 0, slots)
    full_ri = np.zeros(len(full_li), dtype=ri.dtype)
    full_ri[~pad] = ri
    # y's fields are gathered now, to be padded: each is a fresh array
    # that only this relation holds
    ys = {}
    for n, src in y._taken(full_ri).items():
        if n == ky:
            continue
        col = (src.read() if y.num_rows
               else np.zeros(len(full_ri), dtype=src.base.dtype))
        col[pad] = "" if col.dtype.kind in ("U", "S") else 0
        ys[n] = _Source(col)
    cols = _joined(x._taken(full_li), ys, skip=None)
    if match_field in cols:
        raise RelationError(f"match field {match_field!r} clashes with a "
                            "relation field")
    cols[match_field] = _Source((~pad).astype(np.int32))
    return Relation._of(cols, len(full_li), kx)


def semi_join(x: Relation, y: Relation,
              on: str | tuple[str, str] | None = None) -> Relation:
    """Tuples of x whose key appears in y (EXISTS; used by Q21)."""
    kx, ky = _join_keys(x, y, on)
    ykeys = y.column(ky)
    mask = np.isin(x.column(kx), ykeys)
    return x.take(mask)


def anti_join(x: Relation, y: Relation,
              on: str | tuple[str, str] | None = None) -> Relation:
    """Tuples of x whose key does NOT appear in y (NOT EXISTS; Q21)."""
    kx, ky = _join_keys(x, y, on)
    ykeys = y.column(ky)
    mask = ~np.isin(x.column(kx), ykeys)
    return x.take(mask)


def union_all(x: Relation, y: Relation) -> Relation:
    """UNION ALL: bag union -- every x tuple, then every y tuple."""
    _check_union_compatible(x, y)
    y = _align(y, x)
    cols = {n: np.concatenate([x.column(n), y.column(n)])
            for n in x.fields}
    return Relation(cols, key=x.key)


def except_all(x: Relation, y: Relation) -> Relation:
    """EXCEPT ALL: bag difference.

    Each tuple keeps ``max(count_x - count_y, 0)`` occurrences; the
    *earliest* ``count_y`` occurrences in x order are the ones removed,
    so the result preserves x's relative order deterministically.
    """
    _check_union_compatible(x, y)
    y = _align(y, x)
    px, py = pack_rows(x), pack_rows(y)
    if px.dtype != py.dtype:
        py = py.astype(px.dtype)
    n = len(px)
    if n == 0:
        return x.take(np.zeros(0, dtype=bool))
    # occurrence index of each x row among equal rows (0 for the first)
    sorted_idx = np.argsort(px, kind="stable")
    ps = px[sorted_idx]
    new_run = np.concatenate([[True], ps[1:] != ps[:-1]])
    run_starts = np.where(new_run, np.arange(n), 0)
    pos_in_run = np.arange(n) - np.maximum.accumulate(run_starts)
    occurrence = np.empty(n, dtype=np.int64)
    occurrence[sorted_idx] = pos_in_run
    # per-row count of equal tuples in y
    y_vals, y_counts = np.unique(py, return_counts=True)
    slot = np.searchsorted(y_vals, px)
    slot = np.clip(slot, 0, max(len(y_vals) - 1, 0))
    if len(y_vals):
        in_y = y_vals[slot] == px
        y_count = np.where(in_y, y_counts[slot], 0)
    else:
        y_count = np.zeros(n, dtype=np.int64)
    return x.take(occurrence >= y_count)
