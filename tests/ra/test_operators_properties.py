"""Property-based tests of relational-algebra laws (hypothesis), and of
operator chains over lazily gathered relations against NumPy fancy
indexing."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ra import (
    Field,
    Relation,
    anti_join,
    conjoin,
    difference,
    intersection,
    join,
    select,
    semi_join,
    union,
)
from repro.ra.arithmetic import AggSpec, aggregate
from repro.ra.operators import left_join, project

# strategy: small relations of (int key, int value) tuples
tuples_st = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 5)), min_size=1, max_size=40)


def mk(tuples):
    return Relation.from_tuples(tuples)


@given(tuples_st, tuples_st)
def test_union_commutative_as_sets(a, b):
    x, y = mk(a), mk(b)
    assert union(x, y).to_tuple_set() == union(y, x).to_tuple_set()


@given(tuples_st, tuples_st)
def test_intersection_commutative(a, b):
    x, y = mk(a), mk(b)
    assert intersection(x, y).to_tuple_set() == intersection(y, x).to_tuple_set()


@given(tuples_st, tuples_st)
def test_union_matches_python_sets(a, b):
    assert union(mk(a), mk(b)).to_tuple_set() == set(a) | set(b)


@given(tuples_st, tuples_st)
def test_intersection_matches_python_sets(a, b):
    assert intersection(mk(a), mk(b)).to_tuple_set() == set(a) & set(b)


@given(tuples_st, tuples_st)
def test_difference_matches_python_sets(a, b):
    assert difference(mk(a), mk(b)).to_tuple_set() == set(a) - set(b)


@given(tuples_st, tuples_st)
def test_difference_subset_of_left(a, b):
    assert difference(mk(a), mk(b)).to_tuple_set() <= set(a)


@given(tuples_st, tuples_st)
def test_inclusion_exclusion(a, b):
    x, y = mk(a), mk(b)
    u = len(union(x, y).to_tuple_set())
    i = len(intersection(x, y).to_tuple_set())
    assert u + i == len(set(a)) + len(set(b))


@given(tuples_st)
def test_union_idempotent(a):
    x = mk(a)
    assert union(x, x).to_tuple_set() == set(a)


@given(tuples_st, tuples_st)
def test_semi_plus_anti_is_identity_partition(a, b):
    x, y = mk(a), mk(b)
    s = semi_join(x, y)
    t = anti_join(x, y)
    assert s.num_rows + t.num_rows == x.num_rows
    assert s.to_tuple_set() | t.to_tuple_set() == x.to_tuple_set()
    keys = set(int(k) for k in y.key_column)
    assert all(int(k) in keys for k in s.key_column)
    assert all(int(k) not in keys for k in t.key_column)


@given(tuples_st, tuples_st)
@settings(max_examples=50)
def test_join_key_set_is_intersection_of_keys(a, b):
    x, y = mk(a), mk(b)
    out = join(x, y)
    expected = set(int(k) for k in x.key_column) & set(int(k) for k in y.key_column)
    assert set(int(k) for k in out.key_column) == expected


@given(tuples_st, st.integers(0, 15), st.integers(0, 15))
def test_select_conjunction_equals_chained_select(a, t1, t2):
    """The fusion correctness property at the logical level: filtering with
    p1 AND p2 equals SELECT(p1) then SELECT(p2)."""
    x = mk(a)
    p1, p2 = Field("f0") < t1, Field("f0") < t2
    fused = select(x, conjoin([p1, p2]))
    chained = select(select(x, p1), p2)
    assert fused.same_tuples(chained)


@given(tuples_st, st.integers(0, 15))
def test_select_partition(a, t):
    x = mk(a)
    lo = select(x, Field("f0") < t)
    hi = select(x, Field("f0") >= t)
    assert lo.num_rows + hi.num_rows == x.num_rows


@given(tuples_st, tuples_st)
@settings(max_examples=50)
def test_join_row_count_from_key_histograms(a, b):
    x, y = mk(a), mk(b)
    xk = [int(k) for k in x.key_column]
    yk = [int(k) for k in y.key_column]
    expected = sum(xk.count(k) * yk.count(k) for k in set(xk))
    assert join(x, y).num_rows == expected


# -- late gathers: operator chains against eager NumPy expressions ----------
# The model of a relation is (fields -> array, key), built by fancy
# indexing; each chain step applies one operator to the lazy relation and
# the matching expression to the model.  Some columns are read between
# steps, so chains run over relations with some fields gathered and some
# pending.

def _inputs(rng, n: int, m: int):
    x = {"k": rng.integers(0, 6, n).astype(np.int32),
         "a": rng.integers(-5, 5, n),
         "b": rng.normal(size=n),
         "s": np.array([f"s{v}" for v in rng.integers(0, 4, n)],
                       dtype="<U2")}
    y = {"yk": rng.integers(0, 6, m),
         "c": rng.normal(size=m).astype(np.float32),
         "t": np.array([f"t{v}" for v in rng.integers(0, 9, m)],
                       dtype="<U2")}
    return x, y


def _pairs(kx, ky):
    """Equal-key index pairs in (key, left, right) order, by loops."""
    pairs = sorted((int(kx[i]), i, j) for i in range(len(kx))
                   for j in range(len(ky)) if kx[i] == ky[j])
    return (np.array([p[1] for p in pairs], dtype=np.intp),
            np.array([p[2] for p in pairs], dtype=np.intp))


def _model_left_join(cols, ycols):
    li, ri, pad = [], [], []
    for i, key in enumerate(cols["k"]):
        hits = [j for j, yk in enumerate(ycols["yk"]) if yk == key]
        li += [i] * max(len(hits), 1)
        ri += hits or [0]
        pad += [not hits] * max(len(hits), 1)
    li, ri = np.array(li, dtype=np.intp), np.array(ri, dtype=np.intp)
    pad = np.array(pad, dtype=bool)
    out = {n: c[li] for n, c in cols.items()}
    for n in ("c", "t"):
        col = (ycols[n][ri] if len(ycols[n])
               else np.zeros(len(li), dtype=ycols[n].dtype))
        col[pad] = "" if col.dtype.kind == "U" else 0
        out[n] = col
    out["__matched"] = (~pad).astype(np.int32)
    return out


def _model_aggregate(cols):
    groups = np.unique(cols["k"])
    rows = [np.flatnonzero(cols["k"] == g) for g in groups]
    sums = []
    for r in rows:  # float64, left to right
        acc = -0.0
        for v in cols["b"][r]:
            acc += float(v)
        sums.append(acc)
    return {"k": groups.astype(np.int32),
            "n": np.array([len(r) for r in rows], dtype=np.int64),
            "sa": np.array([cols["a"][r].sum() for r in rows],
                           dtype=cols["a"].dtype),
            "mb": np.array([cols["b"][r].min() for r in rows],
                           dtype=np.float64),
            "sb": np.array(sums, dtype=np.float64)}


def _check(rel: Relation, cols: dict, key: str, fields=None) -> None:
    assert rel.fields == list(cols) and rel.key == key
    for f in (rel.fields if fields is None else fields):
        assert rel.num_rows == len(cols[f])
        assert rel[f].dtype == cols[f].dtype, f
        assert rel[f].tobytes() == cols[f].tobytes(), f


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), m=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
def test_chains_over_lazy_relations_match_fancy_indexing(data, n, m, seed):
    rng = np.random.default_rng(seed)
    x, y = _inputs(rng, n, m)
    # lazy inputs: each side is a take of its base
    xi = rng.integers(0, max(n, 1), n if n else 0)
    yi = rng.permutation(m)
    rel, cols, key = Relation(x).take(xi), {c: v[xi] for c, v in x.items()}, "k"
    yrel = Relation(y).take(yi)
    ycols = {c: v[yi] for c, v in y.items()}
    joined = False
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        ops = ["take", "select", "project"] + ([] if joined else
                                               ["join", "left_join"])
        op = data.draw(st.sampled_from(ops), label="op")
        rows = len(cols["k"])
        if op == "take":
            idx = np.array(data.draw(st.lists(
                st.integers(0, rows - 1) if rows else st.nothing(),
                max_size=2 * rows), label="idx"), dtype=np.intp)
            rel, cols = rel.take(idx), {c: v[idx] for c, v in cols.items()}
        elif op == "select":
            t = data.draw(st.integers(-6, 6), label="threshold")
            mask = cols["a"] < t
            rel = select(rel, Field("a") < t)
            cols = {c: v[mask] for c, v in cols.items()}
        elif op == "project":
            rest = [f for f in cols if f not in ("k", "a", "b")]
            keep = data.draw(st.lists(st.sampled_from(rest), unique=True)
                             if rest else st.just([]), label="keep")
            names = data.draw(st.permutations(["k", "a", "b"] + keep),
                              label="order")
            rel, cols, key = (project(rel, names),
                              {f: cols[f] for f in names}, names[0])
        elif op == "join":
            li, ri = _pairs(cols["k"], ycols["yk"])
            rel = join(rel, yrel, on=("k", "yk"))
            cols = {**{c: v[li] for c, v in cols.items()},
                    "c": ycols["c"][ri], "t": ycols["t"][ri]}
            key, joined = "k", True
        else:
            rel = left_join(rel, yrel, on=("k", "yk"))
            cols, key, joined = _model_left_join(cols, ycols), "k", True
        # read some fields now, leave the rest pending
        _check(rel, cols, key, fields=data.draw(
            st.lists(st.sampled_from(list(cols)), unique=True),
            label="read"))
    if data.draw(st.booleans(), label="aggregate"):
        rel = aggregate(rel, ["k"], {
            "n": AggSpec("count"), "sa": AggSpec("sum", "a"),
            "mb": AggSpec("min", "b"), "sb": AggSpec("sum", "b")})
        cols = _model_aggregate(cols)
        key = "k"
    _check(rel, cols, key)
