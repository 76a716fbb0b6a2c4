"""Graceful degradation: repeated device OOM walks the strategy ladder down
to the host interpreter, and the run result records where it landed."""

import numpy as np
import pytest

from repro.errors import DeviceOOMError
from repro.faults import FaultKind, FaultPlan, ladder
from repro.plans import evaluate_sinks
from repro.plans.fuzz import random_plan_case
from repro.plans.plan import Plan
from repro.ra import AggSpec, Field
from repro.ra.relation import Relation
from repro.runtime import (CPU_BASELINE, ExecutionConfig, Executor,
                           GpuRuntime, Strategy)
from repro.simgpu import EventKind

OOM_STORM = FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0}, budget=256)


class TestLadders:
    def test_canonical_order(self):
        S = Strategy
        assert ladder(S.FUSED_FISSION) == (
            S.FUSED_FISSION, S.FUSED, S.WITH_ROUND_TRIP, CPU_BASELINE)
        assert ladder(S.FISSION) == (
            S.FISSION, S.SERIAL, S.WITH_ROUND_TRIP, CPU_BASELINE)
        assert ladder(S.FUSED) == (S.FUSED, S.WITH_ROUND_TRIP, CPU_BASELINE)
        assert ladder(S.SERIAL) == (S.SERIAL, S.WITH_ROUND_TRIP, CPU_BASELINE)
        assert ladder(S.WITH_ROUND_TRIP) == (S.WITH_ROUND_TRIP, CPU_BASELINE)
        assert ladder(CPU_BASELINE) == (CPU_BASELINE,)

    def test_every_ladder_ends_at_cpubase(self):
        for start in (*Strategy, CPU_BASELINE):
            steps = ladder(start)
            assert steps[0] == start
            assert steps[-1] == CPU_BASELINE
            assert len(set(steps)) == len(steps)

    def test_unknown_mode_rejected(self):
        for bad in ("warp-speed", "fused", None):
            with pytest.raises(ValueError):
                ladder(bad)
        with pytest.raises(ValueError):
            GpuRuntime(strategy="warp-speed")


class TestGpuRuntimeDegradation:
    def test_oom_storm_lands_on_cpubase(self):
        case = random_plan_case(4)
        rt = GpuRuntime(strategy=Strategy.FUSED, faults=OOM_STORM)
        result = rt.run(case.plan, case.sources)
        assert result.strategy == CPU_BASELINE
        assert result.degraded_to == "cpubase"
        assert result.faults_injected > 0
        ref = evaluate_sinks(case.plan, case.sources)
        for name, rel in ref.items():
            assert result.results[name].same_tuples(rel)

    def test_cpubase_timeline_is_host_only(self):
        case = random_plan_case(4)
        result = GpuRuntime(strategy=CPU_BASELINE).run(case.plan, case.sources)
        assert result.timeline.filter(EventKind.H2D) == []
        assert result.timeline.filter(EventKind.KERNEL) == []
        assert len(result.timeline.filter(EventKind.HOST)) == 1
        assert result.makespan > 0

    def test_single_transient_oom_is_absorbed(self):
        """One allocator hiccup retries in place; only a *repeated* hit at
        the same site forces the ladder down (budget 1 = single draw)."""
        case = random_plan_case(4)
        one_shot = FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0},
                             budget=1)
        result = GpuRuntime(strategy=Strategy.FUSED, faults=one_shot).run(
            case.plan, case.sources)
        assert result.degraded_to is None
        assert result.strategy is Strategy.FUSED
        assert result.retries == 1

    def test_degrade_false_surfaces_injected_oom(self):
        case = random_plan_case(4)
        rt = GpuRuntime(strategy=Strategy.FUSED, faults=OOM_STORM,
                        degrade=False)
        with pytest.raises(DeviceOOMError) as exc:
            rt.run(case.plan, case.sources)
        assert getattr(exc.value, "injected", False)
        assert exc.value.site.startswith("alloc.")

    def test_cpubase_never_degrades(self):
        case = random_plan_case(4)
        result = GpuRuntime(strategy=CPU_BASELINE, faults=OOM_STORM).run(
            case.plan, case.sources)
        assert result.strategy == CPU_BASELINE
        assert result.degraded_to is None


class TestModeEquivalence:
    def test_chunked_bounds_device_footprint(self):
        case = random_plan_case(6)
        resident = GpuRuntime(strategy=Strategy.SERIAL).run(
            case.plan, case.sources)
        chunked = GpuRuntime(strategy=Strategy.WITH_ROUND_TRIP).run(
            case.plan, case.sources)
        assert chunked.peak_device_bytes <= resident.peak_device_bytes
        for name, rel in resident.results.items():
            assert chunked.results[name].same_tuples(rel)

    def test_fission_falls_back_on_non_streamable_plans(self):
        """An aggregate right at the sink cannot stream row-segments: the
        fission strategies pipeline the SELECT per segment and aggregate
        the re-gathered rows on the host, and must still answer."""
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        s = plan.select(t, Field("v") < 50, selectivity=0.5, name="keep")
        plan.aggregate(s, [], {"n": AggSpec("count")}, name="agg")
        rel = Relation({"v": np.arange(100, dtype=np.int32)})
        ref = evaluate_sinks(plan, {"t": rel})
        for strategy in (Strategy.FISSION, Strategy.FUSED_FISSION):
            result = GpuRuntime(strategy=strategy).run(plan, {"t": rel})
            for name, r in ref.items():
                assert result.results[name].same_tuples(r)


class TestExecutorDegradation:
    def test_strategy_ladder_reaches_cpubase(self):
        from repro.tpch import build_q1_plan, q1_source_rows
        ex = Executor(faults=OOM_STORM)
        r = ex.run(build_q1_plan(), q1_source_rows(1_000_000))
        assert r.degraded_to == "cpubase"
        assert r.faults_injected > 0
        assert r.makespan > 0
        assert len(r.timeline.filter(EventKind.HOST)) == 1


class TestLadderParity:
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_both_interpreters_land_on_cpubase(self, strategy):
        """Started on the same strategy under an OOM storm, the timing
        executor and the functional runtime walk the same ladder to the
        host rung -- and the runtime's tuples still match the reference."""
        case = random_plan_case(4)
        rows = {name: rel.num_rows for name, rel in case.sources.items()}
        timed = Executor(faults=OOM_STORM).run(
            case.plan, rows, ExecutionConfig(strategy=strategy))
        ran = GpuRuntime(strategy=strategy, faults=OOM_STORM).run(
            case.plan, case.sources)
        assert timed.degraded_to == ran.degraded_to == CPU_BASELINE
        ref = evaluate_sinks(case.plan, case.sources)
        for name, rel in ref.items():
            assert ran.results[name].same_tuples(rel)
