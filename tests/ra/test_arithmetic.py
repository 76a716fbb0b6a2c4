"""Tests for ARITH and AGGREGATION."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationError
from repro.frontend.reference import _aggregate as naive_aggregate
from repro.ra import (
    AGG_FUNCS, AggSpec, Const, Field, Relation, aggregate, arith,
)
from repro.ra.arithmetic import _LONG_GROUP, _sums64
from repro.ra.rows import pack_rows


@pytest.fixture
def prices():
    return Relation({
        "group": np.array([0, 0, 1, 1, 1]),
        "price": np.array([100.0, 200.0, 50.0, 150.0, 100.0]),
        "discount": np.array([0.1, 0.0, 0.5, 0.0, 0.2]),
    })


class TestArith:
    def test_disc_price(self, prices):
        out = arith(prices, {
            "disc_price": Field("price") * (Const(1.0) - Field("discount"))})
        assert np.allclose(out["disc_price"], [90, 200, 25, 150, 80])

    def test_keeps_inputs_by_default(self, prices):
        out = arith(prices, {"x": Field("price") + 1})
        assert set(prices.fields) <= set(out.fields)

    def test_keep_subset(self, prices):
        out = arith(prices, {"x": Field("price") + 1}, keep=["group"])
        assert out.fields == ["group", "x"]

    def test_keep_unknown_field(self, prices):
        with pytest.raises(RelationError):
            arith(prices, {"x": Field("price")}, keep=["zzz"])

    def test_expression_over_unknown_field(self, prices):
        with pytest.raises(RelationError):
            arith(prices, {"x": Field("nope") + 1})

    def test_multiple_outputs(self, prices):
        out = arith(prices, {
            "a": Field("price") * 2,
            "b": Field("price") / 2,
        })
        assert np.allclose(out["a"], prices["price"] * 2)
        assert np.allclose(out["b"], prices["price"] / 2)

    def test_constant_output_broadcast(self, prices):
        out = arith(prices, {"c": Const(7.0) * Const(2.0)})
        assert np.allclose(out["c"], 14.0)
        assert len(out["c"]) == prices.num_rows


class TestAggSpec:
    def test_unknown_func(self):
        with pytest.raises(RelationError):
            AggSpec("median", "x")

    def test_sum_needs_field(self):
        with pytest.raises(RelationError):
            AggSpec("sum")

    def test_count_needs_no_field(self):
        assert AggSpec("count").field is None


class TestAggregate:
    def test_grouped_sums(self, prices):
        out = aggregate(prices, ["group"], {
            "total": AggSpec("sum", "price"),
            "n": AggSpec("count"),
        })
        assert out.num_rows == 2
        by_group = {int(g): (float(t), int(n))
                    for g, t, n in zip(out["group"], out["total"], out["n"])}
        assert by_group == {0: (300.0, 2), 1: (300.0, 3)}

    def test_mean_min_max(self, prices):
        out = aggregate(prices, ["group"], {
            "avg": AggSpec("mean", "price"),
            "lo": AggSpec("min", "price"),
            "hi": AggSpec("max", "price"),
        })
        row = {int(g): (a, l, h)
               for g, a, l, h in zip(out["group"], out["avg"], out["lo"], out["hi"])}
        assert row[0] == (150.0, 100.0, 200.0)
        assert row[1] == (100.0, 50.0, 150.0)

    def test_global_aggregate_no_groups(self, prices):
        out = aggregate(prices, [], {"total": AggSpec("sum", "price")})
        assert out.num_rows == 1
        assert float(out["total"][0]) == 600.0

    def test_multi_field_group(self):
        r = Relation({
            "a": [0, 0, 1, 1],
            "b": ["x", "y", "x", "x"],
            "v": [1.0, 2.0, 3.0, 4.0],
        })
        out = aggregate(r, ["a", "b"], {"s": AggSpec("sum", "v")})
        assert out.num_rows == 3
        got = {(int(a), str(b)): float(s)
               for a, b, s in zip(out["a"], out["b"], out["s"])}
        assert got == {(0, "x"): 1.0, (0, "y"): 2.0, (1, "x"): 7.0}

    def test_no_outputs_rejected(self, prices):
        with pytest.raises(RelationError):
            aggregate(prices, ["group"], {})

    def test_unknown_group_field(self, prices):
        with pytest.raises(RelationError):
            aggregate(prices, ["nope"], {"n": AggSpec("count")})

    def test_counts_sum_to_rows(self, rng):
        r = Relation({"g": rng.integers(0, 7, 500), "v": rng.random(500)})
        out = aggregate(r, ["g"], {"n": AggSpec("count")})
        assert int(out["n"].sum()) == 500

    def test_matches_numpy_reference(self, rng):
        g = rng.integers(0, 13, 1000)
        v = rng.random(1000)
        out = aggregate(Relation({"g": g, "v": v}), ["g"],
                        {"s": AggSpec("sum", "v"), "m": AggSpec("mean", "v")})
        for gg, s, m in zip(out["g"], out["s"], out["m"]):
            mask = g == gg
            assert np.isclose(s, v[mask].sum())
            assert np.isclose(m, v[mask].mean())

    def test_group_keys_sorted(self, rng):
        r = Relation({"g": rng.integers(0, 100, 300), "v": rng.random(300)})
        out = aggregate(r, ["g"], {"n": AggSpec("count")})
        keys = list(out["g"])
        assert keys == sorted(keys)


# -- the vectorized kernel against the reference's private naive copy ------

#: group sizes on both sides of every power-of-two bucket edge up to 2048
EDGE_SIZES = sorted({s for p in range(12) for s in (2**p - 1, 2**p, 2**p + 1)
                     if s > 0})
KEY_DTYPES = ("int8", "int32", "int64", "float32", "float64", "<U4")
NUMERIC = ("bool", "int8", "int32", "int64", "uint8", "float32", "float64")


def _key_column(dtype: str, digit: np.ndarray, rng, nan: bool) -> np.ndarray:
    if dtype == "<U4":
        return digit.astype(dtype)  # "10" sorts before "2"
    if dtype.startswith("float"):
        # zeros with either sign land in one group
        vals = np.where(digit == 1, np.where(rng.random(len(digit)) < 0.5,
                                             -0.0, 0.0), digit - 1.5)
        if nan:
            vals[rng.random(len(vals)) < 0.05] = np.nan
        return vals.astype(dtype)
    return (digit * 3 - 7).astype(dtype)


def _value_columns(n: int, rng) -> dict[str, np.ndarray]:
    cols = {dt: rng.integers(-4, 5, n).astype(dt)
            for dt in ("bool", "int8", "int32", "int64")}
    cols["uint8"] = rng.integers(0, 255, n).astype("uint8")
    for dt in ("float32", "float64"):
        v = rng.normal(0.0, 1e3, n) * 10.0 ** rng.integers(-3, 4, n)
        v[rng.random(n) < 0.1] = -0.0
        v[rng.random(n) < 0.1] = 0.0
        cols[dt] = v.astype(dt)
    cols["float64"][rng.random(n) < 0.01] = np.nan
    cols["str"] = np.array([f"v{k}" for k in rng.integers(0, 5, n)],
                           dtype="<U2")
    return cols


def _all_aggs(fields, funcs=AGG_FUNCS) -> dict[str, AggSpec]:
    """Every aggregate in `funcs` over every field (only the counts over
    the string field)."""
    return {"n": AggSpec("count"), **{
        f"{fn}_{f}": AggSpec(fn, f) for f in fields for fn in funcs
        if f != "str" or fn.startswith("count")}}


def _assert_same_bytes(got: Relation, want: Relation) -> None:
    assert got.fields == want.fields and got.key == want.key
    for f in got.fields:
        assert got[f].dtype == want[f].dtype, f
        assert got[f].tobytes() == want[f].tobytes(), f


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.sampled_from(EDGE_SIZES) | st.integers(1, 40),
                      min_size=1, max_size=12),
       key_dtypes=st.lists(st.sampled_from(KEY_DTYPES), min_size=0,
                           max_size=3),
       nan_keys=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reference_kernel(sizes, key_dtypes, nan_keys, seed):
    rng = np.random.default_rng(seed)
    gid = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    cols: dict[str, np.ndarray] = {}
    rest = gid
    for i, dt in enumerate(key_dtypes):
        # mixed-radix digits of the group id keep every group distinct
        digit = rest if i == len(key_dtypes) - 1 else rest % 3
        rest = rest // 3
        cols[f"k{i}"] = _key_column(dt, digit, rng, nan_keys)
    cols.update(_value_columns(len(gid), rng))
    rel = Relation(cols)
    keys = [f"k{i}" for i in range(len(key_dtypes))]
    aggs = _all_aggs(NUMERIC + ("str",))

    got = aggregate(rel, keys, aggs)
    _assert_same_bytes(got, naive_aggregate(rel, keys, aggs))
    if keys and not any(np.isnan(rel[k]).any() for k in keys
                        if rel[k].dtype.kind == "f"):
        assert np.array_equal(pack_rows(got, keys),
                              np.unique(pack_rows(rel, keys)))


@pytest.mark.parametrize("keys", [[], ["g"]])
def test_matches_reference_kernel_on_empty_input(keys):
    rel = Relation({"g": np.zeros(0, dtype=np.int32),
                    **_value_columns(0, np.random.default_rng(0))})
    # MIN/MAX over no rows and no groups raise; see the edge cases below
    funcs = AGG_FUNCS if keys else ("sum", "mean", "count", "count_distinct")
    aggs = _all_aggs(NUMERIC + ("str",), funcs)
    _assert_same_bytes(aggregate(rel, keys, aggs),
                       naive_aggregate(rel, keys, aggs))


class TestAggregateEdgeCases:
    def test_empty_input_without_group_by(self):
        rel = Relation({"i": np.zeros(0, dtype=np.int32),
                        "f": np.zeros(0, dtype=np.float32)})
        out = aggregate(rel, [], {
            "n": AggSpec("count"), "d": AggSpec("count_distinct", "f"),
            "si": AggSpec("sum", "i"), "sf": AggSpec("sum", "f"),
            "mi": AggSpec("mean", "i"), "mf": AggSpec("mean", "f")})
        assert out.num_rows == 1
        assert out["n"].tolist() == [0] and out["n"].dtype == np.int64
        assert out["d"].tolist() == [0] and out["d"].dtype == np.int64
        assert out["si"].tolist() == [0] and out["si"].dtype == np.int64
        assert out["sf"].tolist() == [0.0] and out["sf"].dtype == np.float32
        for m in ("mi", "mf"):
            assert np.isnan(out[m][0]) and out[m].dtype == np.float64
        for func in ("min", "max"):
            with pytest.raises(ValueError):
                aggregate(rel, [], {"x": AggSpec(func, "f")})

    def test_empty_input_with_group_by(self):
        rel = Relation({"g": np.zeros(0, dtype=np.int8),
                        "f": np.zeros(0, dtype=np.float32)})
        out = aggregate(rel, ["g"], {"n": AggSpec("count"),
                                     "s": AggSpec("sum", "f")})
        assert out.num_rows == 0
        assert [out[f].dtype for f in out.fields] == [
            np.int8, np.int64, np.float32]

    def test_signed_zero_sums(self):
        # three rows: the block pads the all -0.0 group with a fourth row
        rel = Relation({"g": np.array([0, 0, 0, 1, 1, 2, 2]),
                        "v": np.array([-0.0, -0.0, -0.0, -0.0, 0.0, 0.0,
                                       -0.0])})
        out = aggregate(rel, ["g"], {"s": AggSpec("sum", "v"),
                                     "m": AggSpec("mean", "v")})
        assert np.signbit(out["s"]).tolist() == [True, False, False]
        assert np.signbit(out["m"]).tolist() == [True, False, False]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_mixed_signed_zero_groups_match_reference(self, dtype):
        sizes = np.arange(1, 70)
        g = np.repeat(np.arange(len(sizes)), sizes)
        sign = np.random.default_rng(3).random(len(g)) < 0.5
        rel = Relation({"g": g, "v": np.where(sign, -0.0, 0.0).astype(dtype)})
        aggs = {f: AggSpec(f, "v") for f in ("min", "max", "sum", "mean")}
        _assert_same_bytes(aggregate(rel, ["g"], aggs),
                           naive_aggregate(rel, ["g"], aggs))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sums_around_the_long_group_length(self, dtype):
        # groups just below, at and above the length summed alone, each
        # with signed zeros and values that cancel, one all -0.0; every
        # sum equals a float64 loop's, left to right, byte for byte
        rng = np.random.default_rng(17)
        sizes = [_LONG_GROUP - 1, _LONG_GROUP, _LONG_GROUP + 1, 1,
                 _LONG_GROUP + 1, 2, _LONG_GROUP, 3 * _LONG_GROUP]
        groups = []
        for i, size in enumerate(sizes):
            v = rng.normal(0.0, 1e3, size) * 10.0 ** rng.integers(-6, 7, size)
            v[rng.random(size) < 0.2] = -0.0
            if size > 2:
                v[:2] = [1e16, -1e16]  # cancels, after rounding the rest
            if i == 4:
                v[:] = -0.0
            groups.append(v.astype(dtype))
        values = np.concatenate(groups)
        counts = np.array(sizes, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        want = []
        for v in groups:
            acc = -0.0
            for x in v:
                acc += float(x)
            want.append(acc)
        want = np.array(want)
        assert np.signbit(want[4])
        assert _sums64(values, starts, counts).tobytes() == want.tobytes()
        # the same groups interleaved, through aggregate
        g = np.repeat(np.arange(len(sizes)), sizes)
        perm = np.argsort(rng.random(len(g)), kind="stable")
        out = aggregate(Relation({"g": g[perm], "v": values[perm]}), ["g"],
                        {"s": AggSpec("sum", "v")})
        shuffled = []
        for i in range(len(sizes)):
            acc = -0.0
            for x in values[perm][g[perm] == i]:
                acc += float(x)
            shuffled.append(acc)
        assert out["s"].tobytes() == np.array(shuffled).astype(dtype).tobytes()

    def test_sum_is_left_to_right_not_pairwise(self):
        # numpy's pairwise sum keeps the ones in 8 partial sums that each
        # survive; adding them one by one to 1e16 rounds every one away
        v = np.array([1e16] + [1.0] * 15)
        out = aggregate(Relation({"v": v}), [], {"s": AggSpec("sum", "v")})
        assert out["s"][0] == 1e16
        assert v.sum() != 1e16

    def test_float32_sum_accumulates_in_float64(self):
        v = np.random.default_rng(5).uniform(0, 1e5, 200_000).astype(
            np.float32)
        out = aggregate(Relation({"v": v}), [], {"s": AggSpec("sum", "v")})
        assert out["s"].dtype == np.float32
        want = math.fsum(v.astype(np.float64))
        assert abs(float(out["s"][0]) - want) <= 1e-6 * want

    @pytest.mark.parametrize("dtype", NUMERIC)
    def test_output_dtypes(self, dtype):
        rel = Relation({"g": np.array([1, 0, 1]),
                        "v": np.array([1, 0, 1]).astype(dtype)})
        out = aggregate(rel, ["g"], {f: AggSpec(f, "v") for f in AGG_FUNCS})
        sum_dtype = {"bool": "int64", "uint8": "uint64"}.get(
            dtype, "int64" if dtype.startswith("int") else dtype)
        mean_dtype = dtype if dtype.startswith("float") else "float64"
        assert {f: str(out[f].dtype) for f in AGG_FUNCS} == {
            "sum": sum_dtype, "mean": mean_dtype, "count": "int64",
            "count_distinct": "int64", "min": dtype, "max": dtype}

    @pytest.mark.parametrize("dtype", NUMERIC)
    @pytest.mark.parametrize("impl", [aggregate, naive_aggregate],
                             ids=["plan", "reference"])
    def test_empty_groups_typed_like_nonempty(self, impl, dtype):
        rel = Relation({"g": np.array([1, 0, 1]),
                        "v": np.array([1, 0, 1]).astype(dtype)})
        aggs = {f: AggSpec(f, "v") for f in AGG_FUNCS}
        full = impl(rel, ["g"], aggs)
        empty = impl(rel.take(np.zeros(0, dtype=np.intp)), ["g"], aggs)
        assert empty.num_rows == 0
        assert ({f: empty[f].dtype for f in empty.fields}
                == {f: full[f].dtype for f in full.fields})

    def test_non_numeric_reduction_rejected(self):
        rel = Relation({"g": [0, 1], "s": ["a", "b"]})
        for func in ("sum", "mean", "min", "max"):
            with pytest.raises(RelationError, match="numeric"):
                aggregate(rel, ["g"], {"x": AggSpec(func, "s")})

    def test_key_values_are_the_first_rows(self):
        rel = Relation({"k": np.array([0.0, -0.0, 1.0, -0.0]),
                        "v": np.arange(4)})
        out = aggregate(rel, ["k"], {"n": AggSpec("count")})
        assert np.signbit(out["k"]).tolist() == [False, False]
        out = aggregate(rel.take(np.array([1, 0, 2, 3])), ["k"],
                        {"n": AggSpec("count")})
        assert np.signbit(out["k"]).tolist() == [True, False]
        assert out["n"].tolist() == [3, 1]

    def test_wide_multi_column_key_recompresses(self):
        # seven columns of ~1000 distinct values: the mixed-radix product
        # (~1e21) overflows int64, so the key prefix is re-compressed
        rng = np.random.default_rng(2)
        keys = [f"k{i}" for i in range(7)]
        cols = {k: rng.integers(-2**62, 2**62, 1000) for k in keys}
        cols["k1"][::2] = cols["k1"][0]
        rel = Relation({**cols, "v": rng.random(1000)})
        aggs = {"s": AggSpec("sum", "v")}
        got = aggregate(rel, keys, aggs)
        _assert_same_bytes(got, naive_aggregate(rel, keys, aggs))
