"""The plan-level distribution rewrite on the paper's queries: where the
local/global frontier lands, which sources replicate, which suffix mode
each query takes, and that the rewrite is deterministic."""

import dataclasses
import gc
import weakref

import pytest

from repro.errors import PlanError
from repro.plans import Plan
from repro.plans import distribute
from repro.plans.distribute import DistributedPlan, distribute_plan
from repro.plans.plan import OpType
from repro.ra import Field
from repro.tpch import (
    build_q1_plan,
    build_q21_plan,
    q1_source_rows,
    q21_source_rows,
)
from repro.tpch.catalog import QUERIES, compile_tpch, tpch_source_rows

N = 2_000_000


def q1_dist(num_shards=4, **kw):
    return distribute_plan(build_q1_plan(), q1_source_rows(N),
                           num_shards, **kw)


def q21_dist(num_shards=4, **kw):
    rows = q21_source_rows(N, N // 4, max(1, N // 600))
    return distribute_plan(build_q21_plan(), rows, num_shards, **kw)


class TestQ1:
    def test_takes_exchange_path_at_scale(self):
        dist = q1_dist()
        assert dist.suffix_mode == "exchange"
        assert dist.exchange is not None
        # whole groups must land on one destination: the exchange key is
        # exactly the final aggregate's group-by
        assert dist.exchange.key == ("returnflag", "linestatus")
        assert dist.exchange.est_bytes > 0
        assert len(dist.frontier) == 1
        assert dist.exchange.buffer == dist.frontier[0]

    def test_column_tables_positionally_co_partitioned(self):
        dist = q1_dist()
        assert dist.partition_key is None
        assert all(s.kind == "partitioned" and s.key is None
                   for s in dist.sources)

    def test_small_input_falls_back_to_host_suffix(self):
        dist = distribute_plan(build_q1_plan(), q1_source_rows(10_000), 4)
        assert dist.suffix_mode == "host"
        assert dist.exchange is None

    def test_driver_shards_balanced(self):
        dist = q1_dist(num_shards=3)
        assert sum(dist.driver_shard_rows) == N
        assert max(dist.driver_shard_rows) - min(dist.driver_shard_rows) <= 1

    def test_subplans_validate(self):
        dist = q1_dist()
        local, suffix = dist.local_plan(), dist.suffix_plan()
        local.validate()
        suffix.validate()
        # the frontier buffer is the bridge: a non-source sink of the
        # local plan and a SOURCE of the suffix plan, under the same name
        fname = dist.frontier[0]
        assert fname in {n.name for n in local.sinks()}
        assert fname in {n.name for n in suffix.sources()}


class TestQ21:
    def test_takes_host_suffix(self):
        dist = q21_dist()
        assert dist.suffix_mode == "host"
        assert dist.frontier == ("anti_not_exists_l3",)
        assert dist.suffix_sources == ()

    def test_partitioned_on_orderkey_with_broadcast_builds(self):
        dist = q21_dist()
        assert dist.partition_key == ("orderkey",)
        by_name = {s.name: s for s in dist.sources}
        assert by_name["lineitem"].key == ("orderkey",)
        assert by_name["orders"].key == ("orderkey",)
        assert by_name["supplier"].kind == "replicated"
        assert by_name["nation"].kind == "replicated"

    def test_local_plan_carries_the_joins(self):
        dist = q21_dist()
        local = dist.local_plan()
        ops = {n.op for n in local.nodes}
        assert OpType.SEMI_JOIN in ops
        assert OpType.ANTI_JOIN in ops
        # the per-orderkey aggregates stay shard-local (orderkey is the
        # partition key); only the final name-grouped count and its sort
        # go global
        assert dist.global_names == {"agg_numwait", "sort_numwait"}


class TestPreAggregation:
    def test_q1_lowers_timing_only_preagg(self):
        pre = q1_dist().preagg
        assert pre is not None
        assert pre.agg == "agg_pricing"
        assert pre.group_by == ("returnflag", "linestatus")
        assert not pre.exact          # float sums: timing-only lowering
        assert pre.est_groups == 6
        assert pre.state_block_nbytes == 6 * pre.state_row_nbytes
        assert "sort_group" in pre.lowered

    def test_q21_lowers_exact_preagg(self):
        pre = q21_dist().preagg
        assert pre is not None
        assert pre.exact              # count: bit-exact combine
        assert pre.group_by == ("suppkey",)

    def test_preagg_false_disables_lowering(self):
        assert q1_dist(preagg=False).preagg is None
        assert q21_dist(preagg=False).preagg is None

    def test_merge_defaults_to_tree_and_overrides(self):
        assert q1_dist().merge == "tree"
        assert q1_dist(merge="flat").merge == "flat"

    def test_preagg_subplans_validate(self):
        dist = q1_dist()
        pre, comb = dist.preagg_plan(), dist.combine_plan()
        pre.validate()
        comb.validate()
        partial = f"{dist.preagg.agg}.partial"
        assert partial in {n.name for n in pre.sinks()}
        assert partial in {n.name for n in comb.sources()}


class TestDeterminismAndErrors:
    @pytest.mark.parametrize("make", [q1_dist, q21_dist])
    def test_rewrite_is_deterministic(self, make):
        a, b = make(), make()
        assert a.driver == b.driver
        assert a.partition_key == b.partition_key
        assert a.suffix_mode == b.suffix_mode
        assert a.frontier == b.frontier
        assert a.local_names == b.local_names
        assert a.driver_shard_rows == b.driver_shard_rows
        assert a.exchange == b.exchange
        assert a.notes == b.notes

    def test_name_carries_shard_count(self):
        assert q1_dist(num_shards=4).name.endswith("@x4")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(PlanError):
            q1_dist(num_shards=0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(PlanError):
            q1_dist(scheme="modulo")

    def test_rejects_sourceless_plan(self):
        with pytest.raises(PlanError):
            distribute_plan(Plan(name="empty"), {}, 4)

    def test_single_select_is_fully_local(self):
        plan = Plan(name="sel")
        src = plan.source("t", row_nbytes=4)
        plan.select(src, Field("v") < 10, selectivity=0.5)
        dist = distribute_plan(plan, {"t": 1_000_000}, 4)
        assert dist.suffix_mode == "none"
        assert dist.global_names == frozenset()


def _grid_plans(sf):
    """(name, plan, source rows) of the 22 SQL plans and hand-built Q1
    and Q21 at scale factor `sf`."""
    rows = tpch_source_rows(sf)
    for name in QUERIES:
        yield name, compile_tpch(name, scale_factor=sf).plan, rows
    yield "Q1", build_q1_plan(), q1_source_rows(rows["lineitem"])
    yield "Q21", build_q21_plan(), q21_source_rows(
        rows["lineitem"], rows["orders"], rows["supplier"])


class TestSplitOnce:
    """A plan keeps the part of its distribution no shard count, scheme
    or seed changes (its split), and each call reshards it."""

    @pytest.mark.parametrize("sf", [0.002, 30])
    def test_equals_an_uncached_build(self, monkeypatch, sf):
        keys = [(preagg, merge) for preagg in (True, False)
                for merge in (None, "flat", "tree")]
        cases = [(shards, scheme, 5, preagg, merge)
                 for shards in (2, 3, 4, 8)
                 for scheme in ("hash", "range", "rr")
                 for preagg, merge in keys]
        splits = []
        split = distribute._split

        def counted(plan, *key):
            splits.append(key)
            return split(plan, *key)

        for name, plan, rows in _grid_plans(sf):
            with monkeypatch.context() as uncached:
                uncached.setattr(Plan, "memo", lambda self, derive, *key:
                                 derive(self, *key))
                want = [distribute_plan(plan, rows, *case) for case in cases]
            with monkeypatch.context() as spy:
                spy.setattr(distribute, "_split", counted)
                del splits[:]
                got = [distribute_plan(plan, rows, *case) for case in cases]
            for case, a, b in zip(cases, got, want):
                for field in dataclasses.fields(DistributedPlan):
                    assert getattr(a, field.name) == getattr(b, field.name), (
                        name, case, field.name)
            # one split per (preagg, merge), whatever the shards and scheme
            assert len(splits) == len(set(splits)) == len(keys), name

    def test_a_plan_keeping_its_split_is_freed_without_gc(self):
        plan = build_q21_plan()
        for shards in (2, 4):
            distribute_plan(plan, q21_source_rows(N, N // 4, N // 600),
                            shards)
        assert plan._index.memos
        ref = weakref.ref(plan)
        gc.disable()
        try:
            del plan
            assert ref() is None
        finally:
            gc.enable()
