"""The interpreter's one stable order, and the kernels built on it.

``stable_order`` must be ``np.argsort(kind="stable")`` byte for byte;
the sort-merge ``join``/``left_join`` must equal the reference
interpreter's private copies in their defined order (not canonicalized);
``aggregate``'s group order and first rows must follow the packed-key
``np.unique`` definition; ``sort_order`` (ORDER BY, TOP N) must equal the
reference's private ``lexsort_order``, and ``unique`` its ``_distinct``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.reference import (_distinct, _join, _left_join,
                                      lexsort_order)
from repro.ra.arithmetic import AggSpec, _group_order, aggregate
from repro.ra.operators import join, left_join
from repro.ra.relation import Relation
from repro.ra.rows import pack_rows, stable_order
from repro.ra.sort import sort_order, unique

INT_DTYPES = ("int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64")


def _assert_same_bytes(got: Relation, want: Relation) -> None:
    assert got.fields == want.fields and got.key == want.key
    for f in got.fields:
        assert got[f].dtype == want[f].dtype, f
        assert got[f].tobytes() == want[f].tobytes(), f


def _assert_stable(keys: np.ndarray) -> None:
    got, want = stable_order(keys), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- stable_order ------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(dtype=st.sampled_from(INT_DTYPES), data=st.data())
def test_stable_order_is_stable_argsort_on_integers(dtype, data):
    info = np.iinfo(dtype)
    # narrow ranges (many ties, composite path) and the full dtype range
    # (extremes, where int64 composites overflow and the fallback runs)
    lo = data.draw(st.integers(int(info.min), int(info.max)))
    hi = data.draw(st.integers(lo, int(info.max)))
    hi = data.draw(st.sampled_from([hi, min(lo + 3, int(info.max))]))
    values = data.draw(st.lists(st.integers(lo, hi), max_size=60))
    _assert_stable(np.array(values, dtype=dtype))


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_stable_order_at_the_dtype_extremes(dtype):
    info = np.iinfo(dtype)
    keys = np.array([info.max, info.min, info.max, 0, info.min, info.max],
                    dtype=dtype)
    _assert_stable(keys)
    _assert_stable(keys[keys != info.min])


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("dtype", INT_DTYPES + ("bool",))
def test_stable_order_on_tiny_inputs(dtype, n):
    _assert_stable(np.arange(n)[::-1].astype(dtype))
    _assert_stable(np.zeros(n, dtype=dtype))


@given(st.lists(st.booleans(), max_size=50))
def test_stable_order_on_bool(values):
    _assert_stable(np.array(values, dtype=bool))


@given(st.integers(0, 80), st.integers(-5, 5))
def test_stable_order_on_all_equal_keys(n, value):
    _assert_stable(np.full(n, value, dtype=np.int32))


@given(st.lists(st.sampled_from([0.5, -0.0, 0.0, np.nan, -1.0, np.inf]),
                max_size=40))
def test_stable_order_on_float_keys_with_nan(values):
    _assert_stable(np.array(values, dtype=np.float64))


@given(st.lists(st.sampled_from(["", "a", "ab", "b", "ä", "10", "2"]),
                max_size=40))
def test_stable_order_on_unicode_keys(values):
    _assert_stable(np.array(values, dtype="<U2"))


# -- join and left join against the reference's private copies ---------------

def _key_column(values: list[int], dtype: str) -> np.ndarray:
    if dtype == "<U3":
        return np.array([f"k{v}" for v in values], dtype=dtype)
    return np.array(values).astype(dtype)


def _sides(keys, dtype):
    """Two relations sharing a key domain, each with a row-id payload so
    the output order is visible in the bytes."""
    left_keys, right_keys = keys
    x = Relation({"k": _key_column(left_keys, dtype),
                  "a": np.arange(len(left_keys), dtype=np.int32),
                  "s": np.array([f"x{i}" for i in range(len(left_keys))],
                                dtype="<U4")})
    y = Relation({"k2": _key_column(right_keys, dtype),
                  "a": -np.arange(len(right_keys), dtype=np.int64),
                  "f": np.linspace(0.0, 1.0, len(right_keys),
                                   dtype=np.float32)})
    return x, y


#: duplicate-heavy small key domains; the offset moves them below zero
#: and to the far end of each dtype
keys_st = st.tuples(st.lists(st.integers(0, 6), max_size=30),
                    st.lists(st.integers(0, 6), max_size=30))


def _place(values: list[int], dtype: str, where: int) -> list[int]:
    if dtype == "<U3":
        return values
    info = np.iinfo(dtype)
    base = (0, int(info.min), int(info.max) - 6)[where]
    return [base + v for v in values]


@settings(max_examples=120, deadline=None)
@given(keys=keys_st, dtype=st.sampled_from(INT_DTYPES + ("<U3",)),
       where=st.integers(0, 2))
def test_join_equals_reference_copy(keys, dtype, where):
    x, y = _sides((_place(keys[0], dtype, where),
                   _place(keys[1], dtype, where)), dtype)
    _assert_same_bytes(join(x, y, on=("k", "k2")), _join(x, y, ("k", "k2")))


@settings(max_examples=120, deadline=None)
@given(keys=keys_st, dtype=st.sampled_from(INT_DTYPES + ("<U3",)),
       where=st.integers(0, 2))
def test_left_join_equals_reference_copy(keys, dtype, where):
    x, y = _sides((_place(keys[0], dtype, where),
                   _place(keys[1], dtype, where)), dtype)
    _assert_same_bytes(left_join(x, y, on=("k", "k2"), match_field="m"),
                       _left_join(x, y, ("k", "k2"), "m"))


@pytest.mark.parametrize("dtype", INT_DTYPES + ("<U3",))
@pytest.mark.parametrize("left,right", [
    ([], []), ([1, 2], []), ([], [1, 2]),    # empty inputs
    ([0, 0, 1, 1], [2, 3, 3, 4]),             # nothing matches
    ([3, 1, 3, 1], [1, 3, 1, 3, 1]),          # duplicates on both sides
])
def test_join_edge_cases_equal_reference_copy(dtype, left, right):
    x, y = _sides((left, right), dtype)
    _assert_same_bytes(join(x, y, on=("k", "k2")), _join(x, y, ("k", "k2")))
    _assert_same_bytes(left_join(x, y, on=("k", "k2")),
                       _left_join(x, y, ("k", "k2"), "__matched"))


def test_join_on_one_shared_name_and_mixed_widths():
    x = Relation({"k": np.array([5, 1, 5, 9], dtype=np.int32),
                  "v": np.arange(4)})
    y = Relation({"k": np.array([5, 5, 9, 2], dtype=np.int64),
                  "v": np.arange(4) * 10})
    want = _join(x, y, "k")
    _assert_same_bytes(join(x, y, on="k"), want)
    assert want["v"].tolist() == [0, 0, 2, 2, 3]
    assert want["v_r"].tolist() == [0, 10, 0, 10, 20]
    padded = _left_join(x, y, "k", "__matched")
    _assert_same_bytes(left_join(x, y, on="k"), padded)
    assert padded["__matched"].tolist() == [1, 1, 0, 1, 1, 1]


def test_join_preserve_order_is_left_row_order():
    x = Relation({"k": np.array([3, 1, 3, 2], dtype=np.int64),
                  "v": np.arange(4)})
    y = Relation({"k": np.array([3, 1, 3, 1]), "w": np.arange(4)})
    out = join(x, y, on="k", preserve_order=True)
    assert out["v"].tolist() == [0, 0, 1, 1, 2, 2]
    assert out["w"].tolist() == [0, 2, 1, 3, 0, 2]


# -- aggregate group order ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(dtypes=st.lists(st.sampled_from(INT_DTYPES + ("bool",)), min_size=1,
                       max_size=3),
       n=st.integers(1, 60), spread=st.sampled_from([2, 7, 1000, None]),
       seed=st.integers(0, 2**32 - 1))
def test_group_order_follows_packed_unique(dtypes, n, spread, seed):
    # dense columns are coded by offset, sparse ones by np.unique
    rng = np.random.default_rng(seed)
    cols = {}
    for i, dt in enumerate(dtypes):
        info = np.iinfo(dt) if dt != "bool" else None
        if info is None:
            cols[f"g{i}"] = rng.integers(0, 2, n).astype(bool)
        elif spread is None:
            cols[f"g{i}"] = rng.integers(info.min, info.max, n, dtype=dt,
                                         endpoint=True)
        else:
            span = min(spread, int(info.max) - int(info.min))
            base = (int(info.min), int(info.max) - span)[int(rng.integers(2))]
            cols[f"g{i}"] = np.array(
                [base + int(v) for v in rng.integers(0, span + 1, n)],
                dtype=dt)
    cols["v"] = np.arange(n)
    rel = Relation(cols)
    keys = [f"g{i}" for i in range(len(dtypes))]
    packed = pack_rows(rel, keys)
    uniq, first, inverse = np.unique(packed, return_index=True,
                                     return_inverse=True)

    order, starts = _group_order(rel, keys)
    assert order.tobytes() == np.argsort(inverse, kind="stable").tobytes()
    assert order[starts].tolist() == first.tolist()

    out = aggregate(rel, keys, {"first": AggSpec("min", "v"),
                                "n": AggSpec("count")})
    assert np.array_equal(pack_rows(out, keys), uniq)
    assert out["first"].tolist() == first.tolist()


# -- ORDER BY / TOP N / DISTINCT ----------------------------------------------

def _sort_keys(rng, kinds, n, spread):
    cols = {}
    for i, kind in enumerate(kinds):
        if kind == "bool":
            cols[f"s{i}"] = rng.integers(0, 2, n).astype(bool)
        elif kind == "float":
            cols[f"s{i}"] = rng.integers(0, spread or 5, n) / 4.0
        elif kind == "str":
            cols[f"s{i}"] = np.array([f"k{v}" for v in
                                      rng.integers(0, spread or 9, n)])
        else:
            info = np.iinfo(kind)
            if spread is None:
                cols[f"s{i}"] = rng.integers(info.min, info.max, n,
                                             dtype=kind, endpoint=True)
            else:
                span = min(spread, int(info.max) - int(info.min))
                base = (int(info.min), int(info.max) - span)[
                    int(rng.integers(2))]
                cols[f"s{i}"] = np.array(
                    [base + int(v) for v in rng.integers(0, span + 1, n)],
                    dtype=kind)
    return cols


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(INT_DTYPES + ("bool", "float",
                                                     "str")),
                      min_size=1, max_size=4),
       n=st.integers(0, 60), spread=st.sampled_from([2, 7, 1000, None]),
       seed=st.integers(0, 2**32 - 1))
def test_sort_order_equals_reference_lexsort(kinds, n, spread, seed):
    # integer-only keys (a descending field's ranks count as integer)
    # go through stable_order over one mixed-radix code; any other key
    # takes np.lexsort; the permutation is the same either way
    rng = np.random.default_rng(seed)
    cols = _sort_keys(rng, kinds, n, spread)
    by = list(cols)
    mixed = [bool(rng.integers(2)) for _ in by]
    for desc in (False, True, [False] * len(by), [True] * len(by), mixed):
        assert sort_order(cols, by, desc).tobytes() == \
            lexsort_order(cols, by, desc).tobytes()


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_sort_order_at_the_dtype_extremes(dtype):
    # four full-range columns: the mixed-radix code re-compresses its
    # prefix to stay inside int64
    info = np.iinfo(dtype)
    col = np.array([info.max, info.min, 0, info.max, info.min, 1, 0],
                   dtype=dtype)
    cols = {f"s{i}": np.roll(col, i) for i in range(4)}
    for desc in (False, True, [True, False, True, False]):
        assert sort_order(cols, list(cols), desc).tobytes() == \
            lexsort_order(cols, list(cols), desc).tobytes()


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(INT_DTYPES + ("bool", "str")),
                      min_size=1, max_size=3),
       n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_unique_equals_reference_distinct(kinds, n, seed):
    rel = Relation(_sort_keys(np.random.default_rng(seed), kinds, n, 3))
    _assert_same_bytes(unique(rel), _distinct(rel))
