"""Pinned optimizer choices for the paper's plan shapes, restricted to the
single-device strategy space (``include_cpubase=False``), and
``Optimizer.run`` executing exactly the chosen strategy."""

import pytest

from repro.optimizer import Optimizer
from repro.plans import Plan
from repro.ra import Field
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.runtime.select_chain import select_chain_plan


def _chosen(plan, rows):
    decision = Optimizer().choose(plan, rows, include_cpubase=False)
    return decision.chosen.option.strategy


class TestChoose:
    def test_select_chain_gets_fused_fission(self):
        assert _chosen(select_chain_plan(2), {"input": 100_000_000}) \
            is Strategy.FUSED_FISSION

    def test_oversized_input_forces_fission(self):
        assert _chosen(select_chain_plan(2), {"input": 4_000_000_000}) \
            is Strategy.FUSED_FISSION

    def test_barrier_only_plan_is_serial(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        plan.sort(t)
        assert _chosen(plan, {"t": 1_000_000}) is Strategy.SERIAL

    def test_sort_then_chain_fuses_without_fission(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        n = plan.sort(t)
        n = plan.select(n, Field("k") < 1, name="a")
        n = plan.select(n, Field("k") < 2, name="b")
        # the chain fuses, but nothing elementwise touches the driver input
        assert _chosen(plan, {"t": 1_000_000}) is Strategy.FUSED

    def test_unfusable_pipelinable_gets_fission(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        n = plan.select(t, Field("k") < 1, name="a")
        plan.sort(n)  # single select, nothing to fuse; select feeds driver
        # large enough that pipelined transfer beats the chunk overhead
        # (the optimizer prices the break-even; tiny inputs stay serial)
        assert _chosen(plan, {"t": 10_000_000}) is Strategy.FISSION

    def test_explain_marks_the_choice(self):
        decision = Optimizer().choose(select_chain_plan(2), {"input": 10**6},
                                      include_cpubase=False)
        marked = [line for line in decision.explain().splitlines()
                  if line.startswith("*")]
        assert len(marked) == 1
        assert decision.chosen.label in marked[0]


class TestRun:
    def test_runs_and_reports(self):
        result, decision = Optimizer().run(
            select_chain_plan(2), {"input": 100_000_000},
            include_cpubase=False)
        assert result.strategy is decision.chosen.option.strategy
        assert result.makespan > 0

    def test_runs_the_choice(self):
        plan = select_chain_plan(2)
        rows = {"input": 50_000_000}
        chosen = Optimizer().choose(plan, rows, include_cpubase=False)
        result, decision = Optimizer().run(plan, rows, include_cpubase=False)
        assert decision.chosen.label == chosen.chosen.label
        assert result.strategy is chosen.chosen.option.strategy
        assert result.makespan > 0

    def test_auto_not_worse_than_serial(self):
        plan = select_chain_plan(2)
        rows = {"input": 200_000_000}
        auto, _ = Optimizer().run(plan, rows, include_cpubase=False)
        serial = Executor().run(plan, rows,
                                ExecutionConfig(strategy=Strategy.SERIAL))
        assert auto.makespan <= serial.makespan

    def test_auto_matches_best_manual_on_q1(self):
        from repro.tpch import build_q1_plan, q1_source_rows
        plan = build_q1_plan()
        rows = q1_source_rows(2_000_000)
        auto, decision = Optimizer().run(plan, rows, include_cpubase=False)
        assert decision.chosen.option.strategy is Strategy.FUSED_FISSION
        manual = Executor().run(
            plan, rows, ExecutionConfig(strategy=Strategy.FUSED_FISSION))
        assert auto.makespan == pytest.approx(manual.makespan, rel=1e-6)
