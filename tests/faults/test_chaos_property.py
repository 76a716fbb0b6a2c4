"""Chaos property suite (the ISSUE's acceptance test).

For 120 seeds, run a random plan through every execution strategy with fault
injection on: the run must either return tuples identical to the clean
NumPy interpreter or raise a typed :class:`~repro.errors.ReproError` --
never a silent wrong answer -- and every completed timeline must pass the
schedule sanitizer strictly.
"""

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.plans import evaluate_sinks
from repro.plans.fuzz import random_plan_case
from repro.runtime import CPU_BASELINE, GpuRuntime, Strategy
from repro.runtime.select_chain import run_select_chain
from repro.simgpu.compression import RLE
from repro.validate import validate_run

STRATEGIES = (*Strategy, CPU_BASELINE)


def _check_against_interpreter(case, result):
    ref = evaluate_sinks(case.plan, case.sources)
    for name, rel in ref.items():
        assert result.results[name].same_tuples(rel), (
            f"plan={case.description} sink={name} "
            f"strategy={result.strategy}")


@pytest.mark.parametrize("seed", range(120))
def test_chaos_never_silently_wrong(seed):
    case = random_plan_case(seed % 40)
    strategy = STRATEGIES[seed % len(STRATEGIES)]
    rt = GpuRuntime(strategy=strategy,
                    faults=FaultPlan.chaos(seed, rate=0.05), compression=RLE)
    try:
        result = rt.run(case.plan, case.sources)
    except ReproError:
        return  # a typed, diagnosable failure is an acceptable outcome
    _check_against_interpreter(case, result)
    validate_run(result, rt.device).raise_if_failed()


@pytest.mark.parametrize("seed", range(12))
def test_heavy_chaos_still_correct(seed):
    """At a 30% fault rate recovery does real work (retries and usually a
    degradation), yet the answers never drift."""
    case = random_plan_case(seed)
    rt = GpuRuntime(strategy=Strategy.FUSED_FISSION,
                    faults=FaultPlan.chaos(seed, rate=0.3, budget=256))
    try:
        result = rt.run(case.plan, case.sources)
    except ReproError:
        return
    _check_against_interpreter(case, result)
    validate_run(result, rt.device).raise_if_failed()


def test_chaos_runs_actually_inject():
    """The property suite is vacuous if injection never fires: across the
    seeds, a healthy share of runs must report injected faults."""
    injected = 0
    for seed in range(30):
        case = random_plan_case(seed % 10)
        rt = GpuRuntime(strategy=Strategy.FUSED_FISSION,
                        faults=FaultPlan.chaos(seed, rate=0.2, budget=256))
        result = rt.run(case.plan, case.sources)
        injected += result.faults_injected
    assert injected > 30


@pytest.mark.parametrize("seed", range(10))
def test_executor_chaos_validates(seed):
    """The annotation-driven executor under chaos: strict sanitizer +
    byte conservation on whatever strategy the ladder lands on."""
    r = run_select_chain(50_000_000, 2, 0.5, Strategy.FUSED_FISSION,
                         faults=FaultPlan.chaos(seed, rate=0.1))
    assert r.makespan > 0
    validate_run(r).raise_if_failed()


class TestChaosFixture:
    def test_fixture_provides_a_plan(self, chaos):
        assert isinstance(chaos, FaultPlan)
        assert chaos.enabled

    def test_fixture_plan_is_runnable(self, chaos):
        case = random_plan_case(3)
        result = GpuRuntime(faults=chaos).run(case.plan, case.sources)
        _check_against_interpreter(case, result)
