"""Tests for the functional GPU runtime (memory-managed execution)."""

import numpy as np
import pytest

from repro.errors import DeviceOOMError, PlanError
from repro.plans import Plan, evaluate_sinks
from repro.ra import AggSpec, Field, Relation
from repro.runtime import GpuRuntime, Strategy
from repro.simgpu import EventKind
from repro.tpch import build_q1_plan, q1_column_relations, build_q21_plan
from repro.tpch.catalog import compile_tpch, tpch_dataset


@pytest.fixture(scope="module")
def tpch_sf002():
    return tpch_dataset(scale_factor=0.002)


@pytest.fixture
def rel(rng):
    n = 100_000
    return Relation({
        "k": rng.integers(0, 100, n).astype(np.int32),
        "v": rng.integers(0, 100, n).astype(np.int32),
    })


def chain_plan(num=3):
    plan = Plan()
    node = plan.source("t", row_nbytes=8)
    thresholds = [80, 80, 40]
    fields = ["k", "v", "k"]
    sels = [0.8, 0.8, 0.5]
    for i in range(num):
        node = plan.select(node, Field(fields[i]) < thresholds[i],
                           selectivity=sels[i], name=f"s{i}")
    return plan


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("fuse", [False, True])
    def test_matches_interpreter(self, rel, fuse):
        plan = chain_plan()
        ref = evaluate_sinks(plan, {"t": rel})
        sink = next(iter(ref))
        strategy = Strategy.FUSED if fuse else Strategy.SERIAL
        res = GpuRuntime(strategy=strategy).run(plan, {"t": rel})
        assert res.results[sink].same_tuples(ref[sink])

    def test_fused_equals_unfused(self, rel):
        plan = chain_plan()
        a = GpuRuntime(strategy=Strategy.FUSED).run(plan, {"t": rel})
        b = GpuRuntime(strategy=Strategy.SERIAL).run(plan, {"t": rel})
        sink = next(iter(a.results))
        assert a.results[sink].same_tuples(b.results[sink])

    def test_q1_through_runtime(self, tpch_tiny):
        plan = build_q1_plan()
        cols = q1_column_relations(tpch_tiny.lineitem)
        ref = evaluate_sinks(plan, cols)
        sink = next(iter(ref))
        res = GpuRuntime(strategy=Strategy.FUSED).run(plan, cols)
        assert res.results[sink].same_tuples(ref[sink])

    def test_q21_through_runtime(self, tpch_tiny):
        plan = build_q21_plan()
        sources = {"lineitem": tpch_tiny.lineitem, "orders": tpch_tiny.orders,
                   "supplier": tpch_tiny.supplier, "nation": tpch_tiny.nation}
        ref = evaluate_sinks(plan, sources)
        sink = next(iter(ref))
        res = GpuRuntime(strategy=Strategy.FUSED).run(plan, sources)
        assert res.results[sink].same_tuples(ref[sink])

    def test_missing_source_raises(self, rel):
        with pytest.raises(PlanError):
            GpuRuntime().run(chain_plan(), {})


class TestTiming:
    def test_fused_is_faster(self, rel):
        plan = chain_plan()
        fused = GpuRuntime(strategy=Strategy.FUSED).run(plan, {"t": rel})
        unfused = GpuRuntime(strategy=Strategy.SERIAL).run(plan, {"t": rel})
        assert fused.makespan < unfused.makespan

    def test_kernel_counts(self, rel):
        plan = chain_plan()
        fused = GpuRuntime(strategy=Strategy.FUSED).run(plan, {"t": rel})
        unfused = GpuRuntime(strategy=Strategy.SERIAL).run(plan, {"t": rel})
        assert len(fused.timeline.filter(EventKind.KERNEL)) == 2
        assert len(unfused.timeline.filter(EventKind.KERNEL)) == 6

    def test_transfers_recorded(self, rel):
        res = GpuRuntime().run(chain_plan(), {"t": rel})
        h2d = res.timeline.filter(EventKind.H2D)
        d2h = res.timeline.filter(EventKind.D2H)
        assert sum(e.nbytes for e in h2d) == rel.nbytes
        assert len(d2h) == 1  # sink only


class TestMemoryManagement:
    def test_no_spills_with_room(self, rel):
        res = GpuRuntime(memory_limit=100 * rel.nbytes).run(chain_plan(), {"t": rel})
        assert res.spill_count == 0
        assert res.roundtrip_time == 0

    def test_pressure_forces_round_trips(self, rel):
        tight = int(rel.nbytes * 1.3)
        res = GpuRuntime(strategy=Strategy.SERIAL, memory_limit=tight).run(
            chain_plan(), {"t": rel})
        assert res.spill_count > 0
        assert res.roundtrip_time > 0

    def test_results_correct_under_pressure(self, rel):
        plan = chain_plan()
        ref = evaluate_sinks(plan, {"t": rel})
        sink = next(iter(ref))
        tight = int(rel.nbytes * 1.3)
        for strategy in (Strategy.SERIAL, Strategy.FUSED):
            res = GpuRuntime(strategy=strategy, memory_limit=tight).run(
                plan, {"t": rel})
            assert res.results[sink].same_tuples(ref[sink])

    def test_fusion_reduces_spills(self, rel):
        """Fig 7(a)/(b): no intermediates -> fewer forced round trips."""
        plan = chain_plan()
        tight = int(rel.nbytes * 1.3)
        unfused = GpuRuntime(strategy=Strategy.SERIAL,
                             memory_limit=tight).run(plan, {"t": rel})
        fused = GpuRuntime(strategy=Strategy.FUSED,
                           memory_limit=tight).run(plan, {"t": rel})
        assert fused.spill_count < unfused.spill_count
        assert fused.makespan < unfused.makespan

    @pytest.mark.no_chaos  # counts exact transfer bytes
    def test_spills_are_expected_bytes(self, rel):
        """Every H2D byte beyond the input is a spill, and the result's
        expected bytes -- what the schedule sanitizer checks -- count it."""
        tight = int(rel.nbytes * 1.3)
        res = GpuRuntime(strategy=Strategy.SERIAL, memory_limit=tight).run(
            chain_plan(), {"t": rel})
        h2d = res.timeline.filter(EventKind.H2D)
        spilled = sum(e.nbytes for e in h2d if e.tag.startswith("spill."))
        moved = sum(e.nbytes for e in h2d)
        assert spilled > 0 and moved - spilled == rel.nbytes
        assert res.expected_h2d_bytes == pytest.approx(moved)
        assert res.expected_d2h_bytes == pytest.approx(
            sum(e.nbytes for e in res.timeline.filter(EventKind.D2H)))

    def test_single_buffer_exceeding_capacity_raises(self, rel):
        with pytest.raises(DeviceOOMError):
            GpuRuntime(memory_limit=rel.nbytes // 2).run(chain_plan(), {"t": rel})

    def test_peak_tracked(self, rel):
        res = GpuRuntime().run(chain_plan(), {"t": rel})
        assert res.peak_device_bytes >= rel.nbytes

    @pytest.mark.no_chaos  # an injected fault would raise first
    @pytest.mark.parametrize("strategy", [Strategy.SERIAL, Strategy.FISSION],
                             ids=lambda s: s.value)
    def test_output_that_cannot_fit_raises_under_fission_too(
            self, strategy, tpch_sf002):
        """q17 at 0.6x the data: a 576,096 B buffer exceeds the device.
        The serial program uploads it; under fission it is a phase-C
        kernel's output, placed now that those kernels declare their
        buffers (the run used to finish with a 7,600 B peak)."""
        limit = int(0.6 * sum(r.nbytes for r in tpch_sf002.values()))
        assert limit == 430_713
        with pytest.raises(DeviceOOMError):
            GpuRuntime(strategy=strategy, memory_limit=limit).run(
                compile_tpch("q17", 0.002).plan, tpch_sf002)

    @pytest.mark.parametrize("strategy",
                             [Strategy.FISSION, Strategy.FUSED_FISSION],
                             ids=lambda s: s.value)
    def test_fission_phases_are_placed(self, strategy, tpch_sf002):
        """q1's sources all stream with the driver in phase B, so without
        the phase-A/C kernels' buffers nothing was placed (the peak read 0)."""
        res = GpuRuntime(strategy=strategy).run(
            compile_tpch("q1", 0.002).plan, tpch_sf002)
        assert res.peak_device_bytes > 0

    def test_buffers_released_after_last_use(self, rel):
        """With generous memory, the peak should stay below the sum of all
        intermediates (consumed buffers are freed)."""
        plan = chain_plan()
        res = GpuRuntime(strategy=Strategy.SERIAL).run(plan, {"t": rel})
        every_buffer = rel.nbytes * (1 + 0.8 + 0.64 + 0.32)
        assert res.peak_device_bytes < every_buffer


class TestAggregatePlans:
    def test_terminal_aggregate(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        s = plan.select(t, Field("k") < 50, selectivity=0.5)
        plan.aggregate(s, [], {"total": AggSpec("sum", "v")}, name="agg")
        res = GpuRuntime().run(plan, {"t": rel})
        expected = rel["v"][rel["k"] < 50].sum()
        assert float(res.results["agg"]["total"][0]) == pytest.approx(float(expected))


class TestConsistencyWithExecutor:
    def test_runtime_and_executor_agree_when_annotations_accurate(self, rng):
        """The annotation-driven executor and the actual-size-driven
        functional runtime must tell the same timing story when the
        annotations are correct."""
        import numpy as np
        from repro.plans import Plan
        from repro.ra import Field, Relation
        from repro.runtime import ExecutionConfig, Executor, Strategy

        n = 400_000
        rel = Relation({"k": rng.integers(0, 100, n).astype(np.int32),
                        "v": rng.integers(0, 100, n).astype(np.int32)})
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        s1_actual = float((rel["k"] < 50).mean())
        node = plan.select(t, Field("k") < 50, selectivity=s1_actual, name="a")
        sel_b = float((rel["v"][rel["k"] < 50] < 50).mean())
        plan.select(node, Field("v") < 50, selectivity=sel_b, name="b")

        executor_time = Executor().run(
            plan, {"t": n},
            ExecutionConfig(strategy=Strategy.FUSED)).makespan
        runtime_time = GpuRuntime(strategy=Strategy.FUSED).run(
            plan, {"t": rel}).makespan
        assert runtime_time == pytest.approx(executor_time, rel=0.05)
