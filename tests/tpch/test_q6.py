"""Tests for the Q6 extension (whole-query fusion)."""

import pytest

from repro.core.fusion import fuse_plan
from repro.plans import evaluate_sinks
from repro.runtime import ExecutionConfig, Executor, GpuRuntime, Strategy
from repro.simgpu import EventKind
from repro.tpch import build_q6_plan, q6_reference, q6_source_rows


class TestPlanStructure:
    def test_validates(self):
        build_q6_plan().validate()

    def test_whole_query_fuses_into_one_region(self):
        """Q6 is the limiting case: no barriers anywhere, one fused kernel."""
        fr = fuse_plan(build_q6_plan())
        assert len(fr.regions) == 1
        assert len(fr.regions[0].nodes) == 5

    def test_terminal_aggregate_means_single_kernel(self):
        from repro.core.opmodels import chain_for_region
        fr = fuse_plan(build_q6_plan())
        chain = chain_for_region(fr.regions[0].nodes)
        assert len(chain.kernels) == 1  # reduce writes directly, no gather


class TestFunctional:
    def test_matches_reference(self, tpch_small):
        plan = build_q6_plan()
        out = evaluate_sinks(plan, {"lineitem": tpch_small.lineitem})
        res = list(out.values())[0]
        assert float(res["revenue"][0]) == pytest.approx(
            q6_reference(tpch_small.lineitem), rel=1e-3)

    def test_through_gpu_runtime(self, tpch_small):
        res = GpuRuntime(strategy=Strategy.FUSED).run(
            build_q6_plan(), {"lineitem": tpch_small.lineitem})
        got = float(res.results["agg_revenue"]["revenue"][0])
        assert got == pytest.approx(q6_reference(tpch_small.lineitem), rel=1e-3)

    def test_nonzero_revenue(self, tpch_small):
        assert q6_reference(tpch_small.lineitem) > 0


class TestTiming:
    def test_fusion_collapses_kernel_count(self):
        ex = Executor()
        plan = build_q6_plan()
        rows = q6_source_rows(6_000_000)
        cfg = dict(include_transfers=False)
        ru = ex.run(plan, rows, ExecutionConfig(strategy=Strategy.SERIAL, **cfg))
        rf = ex.run(plan, rows, ExecutionConfig(strategy=Strategy.FUSED, **cfg))
        # unfused: 3 selects x 2 kernels + arith x 2 + aggregate
        assert len(ru.timeline.filter(EventKind.KERNEL)) >= 8
        assert len(rf.timeline.filter(EventKind.KERNEL)) == 1

    def test_compute_fusion_gain_large_no_barriers(self):
        """With no barrier at all, Q6's *compute* collapses dramatically
        under fusion; end to end the query is PCIe-bound, which is exactly
        the paper's motivation for combining fusion with fission."""
        ex = Executor()
        q6 = build_q6_plan()
        rows = q6_source_rows(6_000_000)
        cfg = dict(include_transfers=False)
        s = ex.run(q6, rows, ExecutionConfig(strategy=Strategy.SERIAL, **cfg))
        f = ex.run(q6, rows, ExecutionConfig(strategy=Strategy.FUSED, **cfg))
        assert s.makespan / f.makespan > 1.4
        # end to end, transfers dominate both
        se = ex.run(q6, rows, ExecutionConfig(strategy=Strategy.SERIAL))
        assert se.io_time > se.compute_time

    @pytest.mark.no_chaos  # asserts a tight timing margin
    def test_fused_fission_hides_input(self):
        ex = Executor()
        q6 = build_q6_plan()
        rows = q6_source_rows(6_000_000)
        f = ex.run(q6, rows, ExecutionConfig(strategy=Strategy.FUSED))
        ff = ex.run(q6, rows, ExecutionConfig(strategy=Strategy.FUSED_FISSION))
        assert ff.makespan < f.makespan
