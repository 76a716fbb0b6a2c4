"""Tests for the end-to-end compilation pipeline."""

import re

import pytest

from repro.core.passes import CompiledPlan, compile_plan
from repro.plans import Plan
from repro.ra import Field
from repro.runtime import Strategy
from repro.runtime.select_chain import select_chain_plan
from repro.simgpu import EventKind
from repro.tpch import build_q1_plan, q1_source_rows
from repro.tpch.catalog import QUERIES, compile_tpch, tpch_source_rows


class TestCompilePlan:
    def test_select_chain_compiles(self):
        cp = compile_plan(select_chain_plan(3), {"input": 100_000_000})
        assert cp.fusion.num_fused_regions == 1
        assert cp.strategy is Strategy.FUSED_FISSION
        assert cp.num_kernels == 2

    def test_describe(self):
        cp = compile_plan(select_chain_plan(2), {"input": 10**6})
        text = cp.describe()
        assert "strategy" in text and "FUSED" in text

    def test_register_pressure_reported(self):
        cp = compile_plan(select_chain_plan(2), {"input": 10**6})
        assert 10 < cp.max_register_pressure <= 63

    def test_run_executes(self):
        cp = compile_plan(select_chain_plan(2), {"input": 50_000_000})
        result = cp.run()
        assert result.strategy is cp.strategy
        assert result.makespan > 0

    def test_q1_pipeline(self):
        cp = compile_plan(build_q1_plan(), q1_source_rows(1_000_000))
        region_sizes = [len(r.nodes) for r in cp.fusion.regions]
        assert region_sizes == [7, 1, 2]
        assert cp.strategy is Strategy.FUSED_FISSION

    def test_rewrites_applied(self):
        plan = Plan()
        node = plan.source("t", row_nbytes=4)
        node = plan.select(node, Field("x") < 90, selectivity=0.9, name="weak")
        node = plan.select(node, Field("x") < 10, selectivity=0.1, name="strong")
        cp = compile_plan(plan, {"t": 10**6})
        from repro.plans.plan import OpType
        selects = [n for n in cp.plan.topological() if n.op is OpType.SELECT]
        assert [n.selectivity for n in selects] == [0.1, 0.9]  # reordered

    def test_compiled_run_matches_manual(self):
        from repro.runtime import ExecutionConfig, Executor
        cp = compile_plan(select_chain_plan(2), {"input": 100_000_000})
        ex = Executor(cp.device)
        manual = ex.run(cp.plan, cp.source_rows,
                        ExecutionConfig(strategy=cp.strategy))
        assert cp.run(ex).makespan == pytest.approx(manual.makespan, rel=1e-9)


def _listed_regions(cp: CompiledPlan) -> list[str]:
    """The region names ``describe()`` prints, in order."""
    return re.findall(r"^  \[(?:FUSED |single|barrier)\] (\S+)$",
                      cp.describe(), re.M)


def _queued_regions(run) -> tuple[set[str], set[str]]:
    """(regions whose main kernels the run queues, nodes whose build
    kernels it queues), read from the kernel tags: a main kernel is
    tagged ``<region>.<stage>``, a build kernel ``<node>.build``."""
    tags = {ev.tag for ev in run.timeline.filter(EventKind.KERNEL)}
    builds = {t for t in tags if t.endswith(".build")}
    return ({t.split(".")[0] for t in tags - builds},
            {t.removesuffix(".build") for t in builds})


_REPORT_CASES = (
    [(f"select_chain_{k}", select_chain_plan(k), {"input": 10**8})
     for k in range(1, 9)]
    + [(q, compile_tpch(q).plan, tpch_source_rows(1)) for q in QUERIES])


class TestDescribeShowsWhatRuns:
    """``describe()`` lists the regions the Executor runs under the
    chosen strategy, and the chosen price is the run's makespan (a
    register-aware report once showed 3 + 1 selects for a 4-select chain
    that ran as one region)."""

    @pytest.mark.no_chaos  # injected faults add and reroute kernels
    @pytest.mark.parametrize("name,plan,rows", _REPORT_CASES,
                             ids=[c[0] for c in _REPORT_CASES])
    def test_listed_regions_are_queued(self, name, plan, rows):
        cp = compile_plan(plan, rows)
        listed = _listed_regions(cp)
        assert listed == [r.name for r in cp.fusion.regions]
        run = cp.run()
        main, built = _queued_regions(run)
        assert main == set(listed)
        assert built <= {n.name for r in cp.fusion.regions for n in r.nodes}
        assert (f"{run.makespan * 1e3:.3f} ms simulated (chosen)"
                in cp.describe())
