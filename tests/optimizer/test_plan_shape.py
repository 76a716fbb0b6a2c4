"""Compile once per query: one :class:`PlanShape` feeds the memory
verdicts, the bounds and every executor run of a planning call.

Calls are counted the way the end-to-end benchmark's tracer counts them:
the original function is rebound in every loaded ``repro`` module that
imported it by name.
"""

import gc
import sys
import weakref
from collections import defaultdict

import pytest

from repro.analyze import memory_check
from repro.cluster import ClusterExecutor
from repro.core import fusion as fusion_mod
from repro.frontend import compile_sql
from repro.optimizer import Optimizer
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.runtime import sizes as sizes_mod
from repro.runtime.select_chain import select_chain_plan
from repro.runtime.sizes import PlanShape
from repro.tpch.catalog import CATALOG, QUERIES, tpch_source_rows

ROWS = {"input": 1_000_000}


def _spy(monkeypatch, module, name, record):
    """Rebind ``module.name`` wherever a repro module holds it; every
    call passes (args, kwargs, result) to `record`."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, kwargs, result)
        return result

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and vars(mod).get(name) is original):
            monkeypatch.setattr(mod, name, spy)


def _count(monkeypatch, module, name) -> list:
    calls: list = []
    _spy(monkeypatch, module, name, lambda a, k, r: calls.append(a))
    return calls


def _plan(query: str, rows):
    return compile_sql(QUERIES[query], CATALOG, source_rows=rows,
                       name=query).plan


@pytest.mark.parametrize("query", ["q1", "q6", "q21"])
def test_optimizer_run_sizes_once_and_fuses_once_per_flag(monkeypatch,
                                                          query):
    rows = tpch_source_rows(1)
    plan = _plan(query, rows)
    fuses = _count(monkeypatch, fusion_mod, "fuse_plan")
    sizes = _count(monkeypatch, sizes_mod, "estimate_sizes")
    Optimizer().run(plan, rows)
    assert len(fuses) <= 2
    assert len(sizes) <= 1


def test_cluster_runs_fuse_only_their_local_plan(monkeypatch):
    rows = tpch_source_rows(1)
    plan = _plan("q1", rows)
    cluster_runs = []
    run = ClusterExecutor.run

    def counted(self, *args, **kwargs):
        cluster_runs.append(args)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ClusterExecutor, "run", counted)
    fuses = _count(monkeypatch, fusion_mod, "fuse_plan")
    Optimizer().run(plan, rows, max_devices=4)
    assert cluster_runs, "q1 at 4 devices confirms a cluster option"
    assert len(fuses) <= 2 + len(cluster_runs)


@pytest.mark.parametrize("query", ["q1", "q8", "q13"])
def test_one_distribution_per_cluster_shape(monkeypatch, query):
    """The enumeration, the cluster options' bounds and their confirming
    runs read one split per (plan, pre-aggregation), whatever the device
    count, and the split classifies each candidate key once."""
    from repro.plans import distribute
    rows = tpch_source_rows(30)
    plan = _plan(query, rows)
    splits = _count(monkeypatch, distribute, "_split")
    classified = _count(monkeypatch, distribute, "_classify")
    decision = Optimizer().choose(plan, rows, max_devices=4)
    preaggs = {c.option.preagg for c in decision.candidates
               if c.option.kind == "cluster"}
    assert preaggs and len(splits) == len(preaggs)
    assert len(classified) == len(splits) * len(
        distribute._candidate_keys(plan))


@pytest.mark.parametrize("sf, devices", [(1, 1), (30, 4)])
def test_no_plan_outlives_its_run_by_a_cycle(sf, devices):
    """What a plan keeps (its memo) and what a run returns hold no
    cycle through the plan: with the cycle collector off, dropping the
    plan, the result and the decision frees the plan."""
    rows = tpch_source_rows(sf)
    alive = []
    gc.disable()
    try:
        for query in QUERIES:
            plan = _plan(query, rows)
            result, decision = Optimizer().run(plan, rows,
                                               max_devices=devices)
            ref = weakref.ref(plan)
            del plan, result, decision
            if ref() is not None:
                alive.append(query)
    finally:
        gc.enable()
    assert alive == []


def test_one_fusion_result_per_flag_within_choose(monkeypatch):
    """The memory verdict and every confirming run see the same
    FusionResult object for each fused flag."""
    rows = tpch_source_rows(1)
    plan = _plan("q1", rows)
    made = defaultdict(list)          # fused flag -> FusionResults
    verdicts = []                     # (strategy, fusion) per check
    runs = []                         # RunResults of confirming runs
    _spy(monkeypatch, fusion_mod, "fuse_plan", lambda a, k, r: made[
        k.get("enable", True)].append(r))
    _spy(monkeypatch, memory_check, "check_strategy",
         lambda a, k, r: verdicts.append((a[1], k.get("fusion"))))
    run = Executor.run

    def recorded(self, *args, **kwargs):
        res = run(self, *args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(Executor, "run", recorded)
    Optimizer().choose(plan, rows)

    assert {flag: len(results) for flag, results in made.items()} == {
        False: 1, True: 1}
    fusion = {flag: results[0] for flag, results in made.items()}
    assert verdicts
    for strategy, seen in verdicts:
        assert seen is fusion[strategy.uses_fusion]
    assert runs
    for res in runs:
        assert res.fusion is fusion[res.strategy.uses_fusion]


def test_one_envelope_build_per_choose(monkeypatch):
    """The five device strategies' memory verdicts share one
    ``plan_envelopes`` build per ``choose``, and each verdict equals the
    one a standalone ``check_strategy`` gives."""
    from repro.analyze import absint
    rows = tpch_source_rows(1)
    plans = [_plan(query, rows) for query in QUERIES]
    builds = _count(monkeypatch, absint, "plan_envelopes")
    check_strategy = memory_check.check_strategy
    verdicts = []
    _spy(monkeypatch, memory_check, "check_strategy",
         lambda a, k, r: verdicts.append((a, k, r)))
    for plan in plans:
        del builds[:]
        Optimizer().choose(plan, rows)
        assert len(builds) == 1, plan.name
    assert len(verdicts) == 5 * len(plans)
    for (plan, strategy, source_rows, device), kwargs, verdict in verdicts:
        assert kwargs["envs"] is not None
        alone = {k: v for k, v in kwargs.items() if k != "envs"}
        assert check_strategy(
            plan, strategy, source_rows, device, **alone) == verdict


def test_executor_runs_of_one_shape_share_one_fusion(monkeypatch):
    fuses = _count(monkeypatch, fusion_mod, "fuse_plan")
    shape = PlanShape(select_chain_plan(2))
    cfg = ExecutionConfig(strategy=Strategy.FUSED)
    a = Executor().run(shape, ROWS, cfg)
    b = Executor().run(shape, ROWS, cfg)
    assert len(fuses) == 1
    assert a.fusion is b.fusion
    assert a.makespan == b.makespan


def test_sizes_are_keyed_by_the_plans_own_sources(monkeypatch):
    sizes = _count(monkeypatch, sizes_mod, "estimate_sizes")
    shape = PlanShape(select_chain_plan(2))
    first = shape.sizes(ROWS)
    # rows of tables the plan never reads do not make a new row map
    assert shape.sizes({**ROWS, "orders": 7}) is first
    assert shape.sizes({"input": 10})["input"] == 10
    assert len(sizes) == 2
