"""The exchange operator's byte-identity invariants: whole key-groups per
destination, original row order restored through the shuffle, the
group-sorted merge reproducing the single-device aggregate order, and the
two timing-only shapes -- a chunk-streamed exchange and a pairwise tree
merge -- leaving every byte unchanged, which is why the functional path
has one shuffle and one merge per rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    Partitioner,
    PartitionScheme,
    concat,
    merge_concat,
    merge_group_sorted,
    repartition,
)
from repro.ra import Relation
from repro.ra.arithmetic import AggSpec
from repro.ra.rows import pack_rows


def buffer_rel(keys, with_rowid=True):
    keys = np.asarray(keys, dtype=np.int64)
    cols = {"g": keys, "x": keys * 3 + 1}
    if with_rowid:
        cols["rowid"] = np.arange(keys.size, dtype=np.int64)
    return Relation(cols, key="g")


keys_st = st.lists(st.integers(min_value=0, max_value=50),
                   min_size=1, max_size=200)


class TestRepartition:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st, num_dest=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=100))
    def test_whole_key_groups_per_destination(self, keys, num_dest, seed):
        parts = repartition([buffer_rel(keys)], ("g",), num_dest, seed)
        owner = {}
        for dest, part in enumerate(parts):
            for key in part.column("g").tolist():
                assert owner.setdefault(key, dest) == dest

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st, num_dest=st.integers(min_value=1, max_value=6))
    def test_conserves_rows_exactly(self, keys, num_dest):
        rel = buffer_rel(keys)
        parts = repartition([rel], ("g",), num_dest)
        assert sum(p.num_rows for p in parts) == rel.num_rows
        merged = merge_concat(parts)
        for f in rel.fields:
            assert np.array_equal(merged.column(f), rel.column(f)), f

    def test_destination_rows_keep_original_order(self):
        # shard inputs arrive interleaved; rowid restoration must put
        # each destination's rows back in global order before splitting
        rel = buffer_rel([5, 1, 5, 1, 5, 1])
        shards, idx = Partitioner(2, PartitionScheme.HASH).split(rel, "g")
        parts = repartition(shards, ("g",), 3)
        for part in parts:
            rowids = part.column("rowid")
            assert np.array_equal(rowids, np.sort(rowids))


class TestMerge:
    def test_merge_concat_restores_row_order(self):
        rel = buffer_rel(np.arange(40) % 7)
        shards, idx = Partitioner(4, PartitionScheme.HASH).split(rel, "g")
        merged = merge_concat(shards)
        for f in rel.fields:
            assert np.array_equal(merged.column(f), rel.column(f)), f

    def test_merge_concat_without_order_field_keeps_shard_order(self):
        a = buffer_rel([1, 1], with_rowid=False)
        b = buffer_rel([2], with_rowid=False)
        merged = merge_concat([a, b])
        assert merged.column("g").tolist() == [1, 1, 2]

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st)
    def test_group_sorted_merge_matches_unique_order(self, keys):
        """Disjoint per-destination groups concat back into exactly the
        packed-key-sorted order np.unique gives a single-device
        aggregation."""
        per_group = {}
        for k in keys:
            per_group.setdefault(k, 0)
            per_group[k] += 1
        agg = Relation({"g": np.asarray(sorted(per_group), dtype=np.int64),
                        "n": np.asarray([per_group[k]
                                         for k in sorted(per_group)],
                                        dtype=np.int64)})
        # split the aggregate's groups across destinations by hash
        parts = repartition([Relation({
            "g": agg.column("g"), "n": agg.column("n")})], ("g",), 3)
        merged = merge_group_sorted(list(parts), ["g"])
        packed = pack_rows(merged, ["g"])
        assert np.array_equal(packed, np.sort(packed))
        for f in agg.fields:
            assert np.array_equal(merged.column(f), agg.column(f)), f


def assert_relations_equal(got, want, ctx=""):
    assert got.fields == want.fields, ctx
    for f in want.fields:
        a, b = got.column(f), want.column(f)
        assert a.dtype == b.dtype, (ctx, f)
        assert np.array_equal(a, b), (ctx, f)


def chunked(parts, chunk_rows):
    """`parts` cut into `chunk_rows`-row pieces, in order -- the stream
    the pipelined exchange puts on the wire."""
    return [p.take(np.arange(lo, min(lo + chunk_rows, p.num_rows)))
            for p in parts for lo in range(0, p.num_rows, chunk_rows)]


def pairwise(parts):
    """One tree-merge round: adjacent pairs concatenated, in order."""
    return [concat(parts[i:i + 2]) for i in range(0, len(parts), 2)]


class TestChunkedRepartition:
    """Streaming the shuffle in chunks must not change a byte: the
    shuffle of the chunk stream equals the shuffle of the whole buffer,
    for every partition scheme and seed -- including tiny chunk sizes
    that force many chunks per destination."""

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_st,
           num_dest=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=100),
           chunk_rows=st.integers(min_value=1, max_value=64))
    def test_matches_materialized(self, keys, num_dest, seed, chunk_rows):
        rel = buffer_rel(keys)
        want = repartition([rel], ("g",), num_dest, seed)
        got = repartition(chunked([rel], chunk_rows), ("g",), num_dest,
                          seed)
        assert len(got) == len(want)
        for d, (g, w) in enumerate(zip(got, want)):
            assert_relations_equal(g, w, ctx=f"dest {d}")

    @pytest.mark.parametrize("scheme", ["hash", "range", "rr"])
    @pytest.mark.parametrize("seed", range(20))
    def test_all_schemes_twenty_seeds(self, scheme, seed):
        """Shard through the real partitioner first, then stream: the
        destinations must not depend on how the rows arrived on the
        shards or how the wire cut them."""
        rng = np.random.default_rng(seed)
        rel = buffer_rel(rng.integers(0, 30, size=300))
        shards, _ = Partitioner(
            3, PartitionScheme(scheme), seed).split(rel, "g")
        want = repartition([rel], ("g",), 4, seed)
        got = repartition(chunked(shards, 37), ("g",), 4, seed)
        for d, (g, w) in enumerate(zip(got, want)):
            assert_relations_equal(g, w, ctx=f"{scheme}/{seed}/dest{d}")

    def test_empty_input(self):
        got = repartition([buffer_rel([])], ("g",), 3)
        assert len(got) == 3
        assert all(p.num_rows == 0 for p in got)


class TestTreeMerges:
    """A pairwise merge round must not change a byte of the merged
    result: the tree merge is a timing-path shape only."""

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st, num_parts=st.integers(min_value=1, max_value=7))
    def test_concat_tree_equals_flat(self, keys, num_parts):
        rel = buffer_rel(keys)
        shards, _ = Partitioner(num_parts, PartitionScheme.ROUND_ROBIN).split(rel)
        assert_relations_equal(merge_concat(pairwise(shards)),
                               merge_concat(shards))

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st, num_parts=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=20))
    def test_group_sorted_tree_equals_flat(self, keys, num_parts, seed):
        parts = repartition([buffer_rel(keys)], ("g",), num_parts, seed)
        assert_relations_equal(
            merge_group_sorted(pairwise(list(parts)), ["g"]),
            merge_group_sorted(list(parts), ["g"]))

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_st, num_parts=st.integers(min_value=1, max_value=7))
    def test_count_states_tree_combine_is_exact(self, keys, num_parts):
        """Partial count states combined by the combine half of the
        split (counts re-add) must equal the single-shot aggregate, one
        round at a time or all at once: integer sums re-associate
        freely."""
        from repro.ra.arithmetic import aggregate
        rel = buffer_rel(keys, with_rowid=False)
        aggs = {"n": AggSpec("count", "x")}
        combine = {"n": AggSpec("sum", "n")}
        want = aggregate(rel, ["g"], aggs)
        shards, _ = Partitioner(num_parts, PartitionScheme.ROUND_ROBIN).split(rel)
        states = [aggregate(s, ["g"], aggs) for s in shards]
        assert_relations_equal(aggregate(concat(states), ["g"], combine),
                               want)
        rounds = [aggregate(p, ["g"], combine) for p in pairwise(states)]
        assert_relations_equal(aggregate(concat(rounds), ["g"], combine),
                               want)


class TestChunkedExchangeEndToEnd:
    """The full cluster data path -- the exchange the timing path streams
    in chunks -- must stay byte-identical to the unsharded interpreter
    across schemes and seeds."""

    @pytest.mark.parametrize("scheme", ["hash", "range", "rr"])
    @pytest.mark.parametrize("seed", range(7))
    def test_q1_all_schemes_many_seeds(self, scheme, seed):
        from repro.plans import evaluate_sinks
        from repro.tpch import TpchConfig, build_q1_plan, generate, \
            q1_column_relations
        data = generate(TpchConfig(scale_factor=0.002, seed=seed))
        sources = q1_column_relations(data.lineitem)
        plan = build_q1_plan()
        want = evaluate_sinks(plan, sources)
        cx = ClusterExecutor(config=ClusterConfig(
            num_devices=3, scheme=scheme, seed=seed))
        got = cx.functional(plan, sources)
        assert set(got) == set(want)
        for name in want:
            assert_relations_equal(got[name], want[name], ctx=name)
