"""Chaos x optimizer: faults on the chosen strategy walk the degradation
ladder, the landing rung is recorded, and the cached decision is
invalidated instead of pinning the failed strategy.

The storm's rate is fixed at 1.0, not read from ``REPRO_CHAOS_RATE``: at
the chaos job's low rate no OOM would repeat, nothing would degrade, and
the test would assert on a run that never left its strategy.
"""

from repro.faults import FaultKind, FaultPlan
from repro.optimizer import Optimizer, PlanCache
from repro.runtime.select_chain import select_chain_plan

#: enough repeated OOM at every allocation site to defeat every GPU rung
OOM_STORM = FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0}, budget=256)

PLAN_ROWS = {"input": 1_000_000}


def test_degraded_run_records_rung_and_invalidates_cache():
    cache = PlanCache()
    opt = Optimizer(cache=cache)
    plan = select_chain_plan(2)
    result, decision = opt.run(plan, PLAN_ROWS, include_cpubase=False,
                               faults=OOM_STORM)
    # the ladder walked off the chosen strategy and said where it landed
    assert result.degraded_to is not None
    assert result.faults_injected > 0
    # the decision that just faulted must not be served to the next query
    assert decision.cache_key not in cache
    assert cache.invalidations >= 1
    fresh = opt.choose(plan, PLAN_ROWS, include_cpubase=False)
    assert not fresh.cache_hit


def test_clean_run_keeps_cached_decision():
    cache = PlanCache()
    opt = Optimizer(cache=cache)
    plan = select_chain_plan(2)
    result, decision = opt.run(plan, PLAN_ROWS, include_cpubase=False)
    assert result.degraded_to is None
    assert decision.cache_key in cache
    assert opt.choose(plan, PLAN_ROWS, include_cpubase=False).cache_hit


def test_chaos_choice_deterministic_with_same_seed():
    plan = select_chain_plan(2)
    a = Optimizer(cache=PlanCache()).run(plan, PLAN_ROWS,
                                         include_cpubase=False,
                                         faults=OOM_STORM)
    b = Optimizer(cache=PlanCache()).run(plan, PLAN_ROWS,
                                         include_cpubase=False,
                                         faults=OOM_STORM)
    assert a[0].degraded_to == b[0].degraded_to
    assert a[0].makespan == b[0].makespan
    assert a[1].chosen.label == b[1].chosen.label
