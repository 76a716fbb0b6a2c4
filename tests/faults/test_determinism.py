"""Determinism regressions: the same (plan, sources, fault seed) must
reproduce byte-identical timelines and metrics, run after run."""

import pytest

from repro.faults import FaultPlan
from repro.plans.fuzz import random_plan_case
from repro.runtime import GpuRuntime, Strategy
from repro.runtime.select_chain import run_select_chain


def _fingerprint(timeline):
    return [(e.start, e.end, e.kind, e.tag, e.stream, e.nbytes, e.sms)
            for e in timeline.events]


# ids name the execution path each strategy takes inside GpuRuntime
@pytest.mark.parametrize(
    "strategy",
    [Strategy.FUSED, Strategy.FUSED_FISSION, Strategy.WITH_ROUND_TRIP],
    ids=["resident", "fission", "chunked"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_same_fault_seed_reproduces_run(strategy, seed):
    case = random_plan_case(seed)

    def go():
        rt = GpuRuntime(strategy=strategy,
                        faults=FaultPlan.chaos(seed, rate=0.15, budget=128))
        return rt.run(case.plan, case.sources)

    a, b = go(), go()
    assert _fingerprint(a.timeline) == _fingerprint(b.timeline)
    assert a.makespan == b.makespan
    assert (a.strategy, a.degraded_to) == (b.strategy, b.degraded_to)
    assert (a.faults_injected, a.retries, a.reissues) == \
        (b.faults_injected, b.retries, b.reissues)
    for name, rel in a.results.items():
        assert b.results[name].same_tuples(rel)


@pytest.mark.parametrize("seed", [1, 5])
def test_executor_runs_reproduce(seed):
    def go():
        return run_select_chain(100_000_000, 2, 0.5, Strategy.FUSED_FISSION,
                                faults=FaultPlan.chaos(seed, rate=0.1))

    a, b = go(), go()
    assert _fingerprint(a.timeline) == _fingerprint(b.timeline)
    assert a.makespan == b.makespan
    assert (a.faults_injected, a.retries, a.degraded_to) == \
        (b.faults_injected, b.retries, b.degraded_to)


def test_different_fault_seeds_usually_differ():
    """The seed actually steers injection: across a handful of seeds the
    schedules cannot all be identical at a 15% rate."""
    case = random_plan_case(2)
    prints = set()
    for seed in range(6):
        rt = GpuRuntime(strategy=Strategy.FUSED_FISSION,
                        faults=FaultPlan.chaos(seed, rate=0.15, budget=128))
        prints.add(tuple(_fingerprint(rt.run(case.plan, case.sources).timeline)))
    assert len(prints) > 1
