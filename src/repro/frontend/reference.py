"""Reference interpreter: bound SQL -> NumPy result, no plan IR.

The differential oracle for the frontend.  It replays the shared recipes
(:mod:`repro.frontend.common`) over plain relations but takes the *naive*
road everywhere the lowering optimizes:

* no filter pushdown -- WHERE conjuncts run after the full join chain;
* no decorrelation -- EXISTS/IN/scalar subqueries are evaluated directly,
  correlated ones by probing per outer row;
* no vectorized GROUP BY -- :func:`_aggregate` is this module's private
  copy of the per-group kernel: factorize on the packed key with
  ``np.unique``, split, and reduce each group in Python.  It shares no
  code with :func:`repro.ra.arithmetic.aggregate`, so a bug in the plan
  path's sort-and-segment kernel shows up in the differential;
* no sort-merge join -- :func:`_join` and :func:`_left_join` are private
  copies too: factorize both key columns over their joint ``np.unique``
  domain, bucket the right rows by key with a counting pass, and walk
  the left rows in the defined order, each taking its key's bucket.
  They share no code with :func:`repro.ra.rows.inner_join_indices`.
* its own ORDER BY, LIMIT and DISTINCT -- :func:`lexsort_order` orders
  rows with ``np.lexsort`` (descending fields by inverted ``np.unique``
  ranks) and :func:`_distinct` keeps each packed row's first occurrence;
  they share no code with :mod:`repro.ra.sort`, whose integer keys go
  through :func:`repro.ra.rows.stable_order` instead.

Both aggregate kernels follow one definition of the float results: a
float SUM accumulates in float64, left to right in input row order
(``np.cumsum(seg, dtype=float64)[-1]``), and is cast back to the column's
dtype; MEAN is that float64 sum over the count, cast to a float column's
dtype (float64 for integer columns).  The join-key choices, the
select/project/set primitives from :mod:`repro.ra` and the
aggregate-naming recipe are shared with the plan path.  A disagreement
in the byte-for-byte comparison therefore points at a real semantic
divergence, not float noise.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import RelationError
from ..ra import arithmetic, operators
from ..ra.arithmetic import AggSpec
from ..ra.expr import Compare, Field, Predicate, conjoin
from ..ra.relation import Relation
from ..ra.rows import pack_rows
from ..sql.ast import Exists, InSubquery, ScalarSubquery
from .binder import BoundQuery
from .common import (
    UnsupportedError, item_outputs, order_spec, plan_aggregate, plan_chain,
    subst_expr, subst_pred,
)


def execute(bq: BoundQuery, tables: dict[str, Relation]) -> Relation:
    """Execute a bound query over ``tables`` (SQL column names)."""
    return _Reference(tables).query(bq)


def _aggregate(rel: Relation, group_by: list[str],
               aggs: dict[str, AggSpec]) -> Relation:
    """Naive AGGREGATION: one Python-level reduction per group.

    Groups come in packed-key ``np.unique`` order, each keyed by its first
    row's values; no rows under GROUP BY give no groups.
    """
    if rel.num_rows == 0 and group_by:
        cols: dict[str, np.ndarray] = {n: rel.column(n)[:0] for n in group_by}
        for name, spec in aggs.items():
            if spec.func in ("count", "count_distinct"):
                cols[name] = np.empty(0, dtype=np.int64)
                continue
            col = rel.column(spec.field)[:0]
            if spec.func == "sum":
                col = col.astype(np.asarray(_sum(col)).dtype)
            elif spec.func == "mean" and col.dtype.kind != "f":
                col = col.astype(np.float64)
            cols[name] = col  # float mean, min and max: the column's type
        return Relation(cols, key=group_by[0])

    if group_by:
        packed = pack_rows(rel, group_by)
        _, inverse, counts = np.unique(packed, return_inverse=True,
                                       return_counts=True)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(counts)[:-1]
        first = order[np.concatenate([[0], boundaries])]
        out: dict[str, np.ndarray] = {n: rel.column(n)[first]
                                      for n in group_by}
    else:
        counts = np.array([rel.num_rows])
        order = np.arange(rel.num_rows)
        boundaries = np.array([], dtype=np.int64)
        out = {}

    for name, spec in aggs.items():
        if spec.func == "count":
            out[name] = counts.astype(np.int64)
            continue
        segments = np.split(rel.column(spec.field)[order], boundaries)
        if spec.func == "count_distinct":
            result = np.array([len(np.unique(seg)) for seg in segments],
                              dtype=np.int64)
        elif spec.func == "sum":
            result = np.array([_sum(seg) for seg in segments])
        elif spec.func == "mean":
            result = np.array([_mean(seg) if len(seg) else np.nan
                               for seg in segments])
        elif spec.func == "min":
            result = np.array([seg.min() for seg in segments])
        else:
            result = np.array([seg.max() for seg in segments])
        out[name] = result
    return Relation(out, key=group_by[0] if group_by else next(iter(out)))


def _match_pairs(x: Relation, y: Relation, on: str | tuple[str, str],
                 key_major: bool, pad: bool
                 ) -> tuple[str, str, np.ndarray, np.ndarray, np.ndarray]:
    """Left and right key fields, then the (left row, right row) pairs
    of every match and a mask of which pairs are real matches.

    Pairs come by (key, left row, right row) with ``key_major``, else by
    (left row, right row).  With ``pad`` every unmatched left row adds
    one pair ``(row, 0)``, masked False, in its place.  Both key columns
    are coded over their joint ``np.unique`` domain, so codes order like
    the keys; the right rows are bucketed by code, each bucket's offset
    counted, and each left row takes its code's bucket.
    """
    kx, ky = (on, on) if isinstance(on, str) else on
    lk, rk = x.column(kx), y.column(ky)
    uniq, codes = np.unique(np.concatenate([lk, rk]), return_inverse=True)
    lcode, rcode = codes[:len(lk)], codes[len(lk):]
    per_code = np.bincount(rcode, minlength=len(uniq))
    bucket_start = np.cumsum(per_code) - per_code
    # right rows by (code, row): bucket c is bucket[bucket_start[c]:]
    bucket = np.argsort(rcode, kind="stable")
    probe = (np.argsort(lcode, kind="stable") if key_major
             else np.arange(len(lk)))
    matches = per_code[lcode[probe]]
    take = np.maximum(matches, 1) if pad else matches
    li = np.repeat(probe, take)
    real = np.repeat(matches > 0, take)
    slot = (np.repeat(bucket_start[lcode[probe]], take) + np.arange(len(li))
            - np.repeat(np.cumsum(take) - take, take))
    ri = np.zeros(len(li), dtype=np.int64)
    ri[real] = bucket[slot[real]]
    return kx, ky, li, ri, real


def _joined(x: Relation, y: Relation, ky: str, li: np.ndarray,
            ri: np.ndarray, real: np.ndarray) -> dict[str, np.ndarray]:
    """x's fields at ``li``, then y's non-key fields (``_r`` suffixed on
    a name clash) at ``ri`` where ``real``, else zero / empty-string."""
    cols = {n: x.column(n)[li] for n in x.fields}
    for n in y.fields:
        if n != ky:
            col = np.zeros(len(li), dtype=y.column(n).dtype)
            col[real] = y.column(n)[ri[real]]
            cols[n if n not in cols else f"{n}_r"] = col
    return cols


def _join(x: Relation, y: Relation, on: str | tuple[str, str]) -> Relation:
    """Naive inner equi-join, ordered by (key, left row, right row)."""
    kx, ky, li, ri, real = _match_pairs(x, y, on, key_major=True,
                                        pad=False)
    return Relation(_joined(x, y, ky, li, ri, real), key=kx)


def _left_join(x: Relation, y: Relation, on: str | tuple[str, str],
               match_field: str) -> Relation:
    """Naive LEFT OUTER JOIN, ordered by (left row, right row).  An
    unmatched left row appears once, with ``match_field`` 0 and zero /
    empty-string pads in y's fields; matched rows carry 1."""
    kx, ky, li, ri, real = _match_pairs(x, y, on, key_major=False, pad=True)
    cols = _joined(x, y, ky, li, ri, real)
    if match_field in cols:
        raise UnsupportedError(f"match field {match_field!r} clashes with "
                               "a relation field")
    cols[match_field] = real.astype(np.int32)
    return Relation(cols, key=kx)


def lexsort_order(columns, by: list[str],
                  descending: "bool | list[bool]" = False) -> np.ndarray:
    """The stable row permutation ordering ``columns`` by ``by``, by
    ``np.lexsort``.  A single ``descending`` bool reverses the whole
    order, ties too; a per-field list sorts each descending field by its
    inverted ``np.unique`` rank, so ties keep their input order."""
    if not by:
        raise RelationError("sort needs at least one field")
    for n in by:
        if n not in columns:
            raise RelationError(f"sort field {n!r} not in relation")
    if isinstance(descending, list):
        if len(descending) != len(by):
            raise RelationError(
                f"{len(by)} sort field(s) but {len(descending)} direction(s)")
        keys = []
        for name, desc in zip(by, descending):
            col = np.asarray(columns[name])
            if desc:
                values, inverse = np.unique(col, return_inverse=True)
                col = (len(values) - 1) - inverse
            keys.append(col)
        # np.lexsort sorts by the *last* key first
        return np.lexsort(tuple(reversed(keys)))
    order = np.lexsort(tuple(np.asarray(columns[n]) for n in reversed(by)))
    return order[::-1] if descending else order


def _distinct(rel: Relation) -> Relation:
    """Each distinct row once, at its first occurrence, in input order."""
    _, first = np.unique(pack_rows(rel), return_index=True)
    keep = np.zeros(rel.num_rows, dtype=bool)
    keep[first] = True
    return rel.take(keep)


def _sum64(seg: np.ndarray) -> np.float64:
    """Float64 sum, left to right in row order."""
    return np.cumsum(seg, dtype=np.float64)[-1] if len(seg) else np.float64(0)


def _sum(seg: np.ndarray):
    if seg.dtype.kind != "f":
        return seg.sum()
    return seg.dtype.type(_sum64(seg))


def _mean(seg: np.ndarray):
    mean = _sum64(seg) / len(seg)
    return seg.dtype.type(mean) if seg.dtype.kind == "f" else mean


class _Reference:
    def __init__(self, tables: dict[str, Relation]):
        self.tables = tables

    # -- relations -----------------------------------------------------------
    def _rel(self, bq: BoundQuery, i: int) -> Relation:
        rel = bq.rels[i]
        if rel.subquery is not None:
            return self.query(rel.subquery)
        if rel.table not in self.tables:
            raise UnsupportedError(f"no data bound for table {rel.table!r}")
        base = self.tables[rel.table]
        return Relation({rel.canonical(c): base.column(c)
                         for c in rel.columns})

    def _chain(self, bq: BoundQuery, recipe) -> Relation:
        cur = self._rel(bq, 0)
        for step in recipe.steps:
            right = self._rel(bq, step.index)
            for pred in step.push_right:
                right = operators.select(right, pred)
            if step.kind == "left":
                cur = _left_join(cur, right, step.key, step.match_field)
            elif step.key is not None:
                cur = _join(cur, right, step.key)
            else:
                cur = operators.product(cur, right)
        return cur

    # -- subquery predicates -------------------------------------------------
    def _subquery_mask(self, cur: Relation, pred: Predicate,
                       repr_map: dict[str, str]) -> np.ndarray:
        if isinstance(pred, Exists):
            return self._exists_mask(cur, pred, repr_map)
        if isinstance(pred, InSubquery):
            inner = self.query(pred.query)
            vals = inner.column(inner.fields[0])
            arr = np.asarray(
                subst_expr(pred.expr, repr_map).evaluate(cur.columns))
            mask = np.isin(arr, vals)
            return ~mask if pred.negated else mask
        if isinstance(pred, Compare):
            return self._scalar_mask(cur, pred, repr_map)
        raise UnsupportedError(
            "subquery predicates must be top-level EXISTS / IN / "
            "comparisons, not nested under OR")

    def _inner_chain(self, inner: BoundQuery):
        recipe = plan_chain(inner)
        if recipe.subqueries:
            raise UnsupportedError(
                "a subquery nested inside another subquery's WHERE clause "
                "is not supported")
        rel = self._chain(inner, recipe)
        if recipe.post_chain:
            rel = operators.select(rel, conjoin(
                [subst_pred(p, recipe.repr_map) for p in recipe.post_chain]))
        pairs = [(oc, recipe.repr_map.get(ic, ic))
                 for oc, ic in recipe.corr_pairs]
        return rel, recipe, pairs

    def _exists_mask(self, cur: Relation, pred: Exists,
                     repr_map: dict[str, str]) -> np.ndarray:
        inner = pred.query
        rel, recipe, pairs = self._inner_chain(inner)
        pairs = [(repr_map.get(oc, oc), ic) for oc, ic in pairs]
        n = cur.num_rows
        if not pairs and not recipe.corr_resid:
            mask = np.full(n, rel.num_rows > 0)
        elif not recipe.corr_resid:
            if len(pairs) == 1:
                oc, ic = pairs[0]
                mask = np.isin(cur.column(oc), rel.column(ic))
            else:
                inner_keys = set(zip(*(rel.column(ic) for _, ic in pairs)))
                mask = np.fromiter(
                    (t in inner_keys
                     for t in zip(*(cur.column(oc) for oc, _ in pairs))),
                    dtype=bool, count=n)
        else:
            # general correlation: probe candidate rows per outer row with
            # the outer values bound to the __corr columns
            resid = [subst_pred(p, recipe.repr_map)
                     for p in recipe.corr_resid]
            groups: dict[tuple, list[int]] = defaultdict(list)
            for idx, t in enumerate(zip(*(rel.column(ic)
                                          for _, ic in pairs))):
                groups[t].append(idx)
            outer_eq = [cur.column(oc) for oc, _ in pairs]
            corr_outer = {
                cn: cur.column(repr_map.get(oc, oc))
                for cn, oc in inner.correlated.items()}
            mask = np.zeros(n, dtype=bool)
            for r in range(n):
                idxs = groups.get(tuple(c[r] for c in outer_eq))
                if not idxs:
                    continue
                cols = {f: rel.column(f)[idxs] for f in rel.fields}
                for cn, col in corr_outer.items():
                    cols[cn] = np.full(len(idxs), col[r])
                ok = np.ones(len(idxs), dtype=bool)
                for p in resid:
                    ok &= np.asarray(p.evaluate(cols), dtype=bool)
                mask[r] = bool(ok.any())
        return ~mask if pred.negated else mask

    def _scalar_mask(self, cur: Relation, pred: Compare,
                     repr_map: dict[str, str]) -> np.ndarray:
        sub_left = isinstance(pred.left, ScalarSubquery)
        sub = pred.left if sub_left else pred.right
        other = pred.right if sub_left else pred.left
        if not isinstance(sub, ScalarSubquery) or isinstance(
                other, ScalarSubquery):
            raise UnsupportedError(
                "exactly one comparison side may be a scalar subquery")
        other = subst_expr(other, repr_map)
        inner = sub.query
        n = cur.num_rows
        if not inner.correlated:
            res = self.query(inner)
            col = res.column(res.fields[0])
            if len(col) == 0:
                return np.zeros(n, dtype=bool)
            values = np.full(n, col[0])
            matched = np.ones(n, dtype=bool)
        else:
            rel, recipe, pairs = self._inner_chain(inner)
            if recipe.corr_resid:
                raise UnsupportedError(
                    "correlated scalar subqueries support equality "
                    "correlation only")
            pairs = [(repr_map.get(oc, oc), ic) for oc, ic in pairs]
            group_cols = list(dict.fromkeys(ic for _, ic in pairs))
            arecipe = plan_aggregate(inner, recipe.repr_map, recipe.nullable,
                                     group_override=group_cols)
            if arecipe is None or len(inner.items) != 1:
                raise UnsupportedError(
                    "a correlated scalar subquery must compute one "
                    "aggregate")
            if arecipe.pre:
                rel = arithmetic.arith(rel, arecipe.pre)
            grouped = _aggregate(rel, group_cols, arecipe.aggs)
            if arecipe.post:
                grouped = arithmetic.arith(grouped, arecipe.post)
            alias = inner.items[0].alias
            vcol = grouped.column(alias)
            probe = {t: vcol[i] for i, t in enumerate(
                zip(*(grouped.column(g) for g in group_cols)))}
            outer_cols = [cur.column(oc) for oc, _ in pairs]
            # dedup outer columns in the same order as group_cols
            seen: dict[str, np.ndarray] = {}
            for (oc, ic), col in zip(pairs, outer_cols):
                seen.setdefault(ic, col)
            keyed = [seen[g] for g in group_cols]
            values = np.zeros(n, dtype=vcol.dtype)
            matched = np.zeros(n, dtype=bool)
            for r in range(n):
                v = probe.get(tuple(c[r] for c in keyed))
                if v is not None:
                    values[r] = v
                    matched[r] = True
        cols = dict(cur.columns)
        cols["__scalar"] = values
        cmp = (Compare(pred.op, Field("__scalar"), other) if sub_left
               else Compare(pred.op, other, Field("__scalar")))
        return np.asarray(cmp.evaluate(cols), dtype=bool) & matched

    # -- full query ----------------------------------------------------------
    def query(self, bq: BoundQuery) -> Relation:
        recipe = plan_chain(bq)
        if recipe.corr_pairs or recipe.corr_resid:
            raise UnsupportedError(
                "correlated references are only supported inside "
                "decorrelatable EXISTS / scalar subqueries")
        cur = self._chain(bq, recipe)
        if recipe.post_chain:
            cur = operators.select(cur, conjoin(
                [subst_pred(p, recipe.repr_map) for p in recipe.post_chain]))
        for sq in recipe.subqueries:
            cur = cur.take(self._subquery_mask(cur, sq, recipe.repr_map))

        arecipe = plan_aggregate(bq, recipe.repr_map, recipe.nullable)
        if arecipe is not None:
            if arecipe.pre:
                cur = arithmetic.arith(cur, arecipe.pre)
            cur = _aggregate(cur, arecipe.group_by, arecipe.aggs)
            if arecipe.post:
                cur = arithmetic.arith(cur, arecipe.post)
            for c in arecipe.having_plain:
                cur = operators.select(cur, c)
            for sq in arecipe.having_subqueries:
                cur = cur.take(self._subquery_mask(cur, sq, {}))
        else:
            outs = item_outputs(bq, recipe.repr_map)
            if outs:
                cur = arithmetic.arith(cur, outs)

        out_fields = [i.alias for i in bq.items]
        cur = operators.project(cur, list(out_fields))
        if bq.distinct:
            cur = _distinct(cur)
        if bq.set_op is not None:
            op, rhs_bq = bq.set_op
            rhs = self.query(rhs_bq)
            if op.startswith("union"):
                cur = operators.union_all(cur, rhs)
            else:
                cur = operators.except_all(cur, rhs)
            if op in ("union", "except"):
                cur = _distinct(cur)
        if bq.order_by:
            by, descending = order_spec(bq)
            order = lexsort_order(cur.columns, by, descending)
            if bq.limit is not None:
                if bq.limit < 0:
                    raise RelationError(f"top_n needs n >= 0, got {bq.limit}")
                order = order[:bq.limit]
            cur = cur.take(order)
        elif bq.limit is not None:
            raise UnsupportedError("LIMIT without ORDER BY has no "
                                   "deterministic meaning here")
        return cur
