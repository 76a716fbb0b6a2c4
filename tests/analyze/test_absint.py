"""Interval abstract interpretation: algebra, envelope soundness, and
strategy footprints (docs/ANALYSIS.md, "Memory-safety analysis")."""

import math

import pytest

from repro.analyze.absint import (Interval, fusion_savings, plan_envelopes,
                                  strategy_footprint)
from repro.analyze.corpus import pattern_plans, select_chain_plan
from repro.core.fission import split_for_fission
from repro.core.fusion import fuse_plan
from repro.plans.fuzz import random_plan_case
from repro.plans.plan import Plan
from repro.ra.arithmetic import AggSpec
from repro.ra.expr import Field
from repro.runtime.sizes import estimate_sizes
from repro.runtime.strategies import Strategy
from repro.tpch.q1 import build_q1_plan, q1_source_rows
from repro.tpch.q6 import build_q6_plan
from repro.tpch.q21 import build_q21_plan, q21_source_rows


class TestInterval:
    def test_exact_and_unknown(self):
        e = Interval.exact(7)
        assert e.is_exact and e.bounded and (e.lo, e.hi) == (7, 7)
        u = Interval(0, math.inf)
        assert not u.bounded and not u.is_exact

    def test_add_and_scale(self):
        a = Interval(1, 2) + Interval(10, 20)
        assert (a.lo, a.hi) == (11, 22)
        s = Interval(10, 20).scale(0.5)
        assert (s.lo, s.hi) == (5, 10)
        # inf * 0 must stay 0, not NaN
        z = Interval(0, math.inf).scale(0)
        assert (z.lo, z.hi) == (0, 0)

    def test_hull(self):
        h = Interval(1, 3).hull(Interval(2, 9))
        assert (h.lo, h.hi) == (1, 9)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_render(self):
        assert Interval.exact(1234).render(" B") == "[1,234, 1,234] B"
        assert "inf" in Interval(0, math.inf).render()


def _envelope_brackets_estimates(plan: Plan, rows: dict) -> None:
    envs = plan_envelopes(plan, rows)
    sizes = estimate_sizes(plan, rows)
    for name, n in sizes.items():
        env = envs[name]
        assert env.rows.lo == env.rows.hi == n, (
            f"{plan.name}:{name}: {n} vs [{env.rows.lo}, {env.rows.hi}]")


class TestEnvelopeSoundness:
    """With every source known, each envelope is exactly the point
    ``estimate_sizes`` computes -- the sizes the executor plans chunks
    (and OOMs) from."""

    def test_tpch(self):
        _envelope_brackets_estimates(build_q1_plan(), q1_source_rows(777_777))
        _envelope_brackets_estimates(build_q6_plan(), {"lineitem": 123_457})
        _envelope_brackets_estimates(
            build_q21_plan(), q21_source_rows(500_000, 125_000, 833))

    def test_patterns(self):
        rows = {"t": 99_991, "fact": 99_991, "dim": 1_000, "dim1": 1_000,
                "dim2": 1_000, "left": 50_000, "right": 20_000}
        for _, plan in pattern_plans():
            _envelope_brackets_estimates(plan, rows)

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz(self, seed):
        case = random_plan_case(seed)
        rows = {name: rel.num_rows for name, rel in case.sources.items()}
        _envelope_brackets_estimates(case.plan, rows)

    def test_unknown_sources_widen_not_crash(self):
        plan = select_chain_plan(3)
        envs = plan_envelopes(plan, None)
        sink = plan.sinks()[0]
        assert not envs[sink.name].rows.bounded
        assert envs[sink.name].rows.lo == 0

    @pytest.mark.parametrize("op", ["select", "aggregate", "join"])
    def test_unknown_source_times_zero_selectivity_is_zero(self, op):
        plan = Plan(name="zero_sel")
        src = plan.source("t")
        other = plan.source("u", n_rows=10)
        if op == "select":
            plan.select(src, Field("x") < 0, selectivity=0.0, name="out")
        elif op == "aggregate":
            plan.aggregate(src, ["k"], {"n": AggSpec("count")},
                           n_groups=None, group_rate=0.0, name="out")
        else:
            plan.join(src, other, match_rate=0.0, name="out")
        rows = plan_envelopes(plan, None)["out"].rows
        # AGGREGATE keeps its one-group floor
        floor = 1 if op == "aggregate" else 0
        assert (rows.lo, rows.hi) == (floor, floor)

    def test_unknown_rows_of_zero_bytes_is_zero_bytes(self, device):
        plan = Plan(name="zero_bytes")
        src = plan.source("t", row_nbytes=0)
        plan.select(src, Field("x") < 0, selectivity=0.5, name="out")
        envs = plan_envelopes(plan, None)
        assert not envs["out"].rows.bounded
        b = envs["out"].bytes
        assert (b.lo, b.hi) == (0, 0)
        fp = strategy_footprint(plan, Strategy.SERIAL, envs, device)
        assert (fp.peak_bytes.lo, fp.peak_bytes.hi) == (0, 0)
        assert fp.verdict == "safe"

    def test_stats_seed_sources(self):
        from repro.optimizer.stats import DataStats
        plan = select_chain_plan(2)
        stats = DataStats.from_rows(plan, {"t": 4_000})
        envs = plan_envelopes(plan, None, stats)
        assert envs["t"].rows.is_exact
        assert envs["t"].rows.lo == 4_000


class TestStrategyFootprint:
    def test_serial_working_set_matches_regions(self, device):
        plan = build_q1_plan()
        rows = q1_source_rows(200_000)
        envs = plan_envelopes(plan, rows)
        fp = strategy_footprint(plan, Strategy.SERIAL, envs, device)
        assert fp.verdict == "safe"
        assert fp.peak_bytes.lo == pytest.approx(
            fp.side_bytes.lo + fp.working_bytes.lo)

    def test_fission_pipelined_on_chain(self, device):
        plan = select_chain_plan(3)
        envs = plan_envelopes(plan, {"t": 1_000_000})
        fp = strategy_footprint(plan, Strategy.FISSION, envs, device)
        assert fp.pipelined and fp.verdict == "safe"

    def test_cpubase_always_safe(self, device):
        envs = plan_envelopes(build_q1_plan(), q1_source_rows(10 ** 9))
        fp = strategy_footprint(build_q1_plan(), "cpubase", envs, device)
        assert fp.verdict == "safe"

    def test_split_for_fission_prefix(self):
        plan = select_chain_plan(3)
        driver = next(s for s in plan.sources() if s.name == "t")
        fusion = fuse_plan(plan, enable=False)
        prefix, phase_a, rest = split_for_fission(fusion.regions, driver)
        assert prefix, "pure select chain must have a streamable prefix"
        assert len(prefix) + len(phase_a) + len(rest) == len(fusion.regions)

    def test_barrier_blocks_prefix(self):
        plan = Plan(name="sorted_agg")
        src = plan.source("t", row_nbytes=8, n_rows=1_000)
        srt = plan.sort(src, ["k"], name="srt")
        plan.aggregate(srt, ["k"], {"n": AggSpec("count")}, n_groups=4,
                       name="agg")
        fusion = fuse_plan(plan, enable=False)
        prefix, _, _ = split_for_fission(fusion.regions, src)
        assert not prefix


class TestFusionSavings:
    def test_q1_savings_positive_and_tight(self):
        plan = build_q1_plan()
        rows = q1_source_rows(2_000_000)
        envs = plan_envelopes(plan, rows)
        savings = fusion_savings(fuse_plan(plan, enable=True), envs)
        # the README's headline number: ~300.9 MB of intermediates
        assert (savings.lo, savings.hi) == (300_883_596, 300_883_596)

    def test_unfused_plan_saves_nothing(self):
        plan = select_chain_plan(2)
        envs = plan_envelopes(plan, {"t": 1_000})
        savings = fusion_savings(fuse_plan(plan, enable=False), envs)
        assert savings.hi == 0
