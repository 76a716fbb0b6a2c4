"""Differential testing over randomly generated plans.

The strongest correctness statement in the repository: for thousands of
random plans, fusion (and the memory-managed runtime, and the rewrites)
never change what the query computes.
"""

import pytest

from repro.plans import evaluate_sinks, optimize_plan
from repro.plans.fuzz import random_plan_case
from repro.runtime import GpuRuntime, Strategy
from repro.simgpu.compression import BITPACK, DICT, RLE

SEEDS = list(range(60))


def _sink_relations(plan, results):
    return {s.name: results[s.name] for s in plan.sinks()}


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_runtime_matches_interpreter(seed):
    case = random_plan_case(seed)
    case.plan.validate()
    ref = evaluate_sinks(case.plan, case.sources)
    res = GpuRuntime(strategy=Strategy.FUSED).run(case.plan, case.sources)
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description} sink={name}")


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_unfused_runtime_matches_interpreter(seed):
    case = random_plan_case(seed)
    ref = evaluate_sinks(case.plan, case.sources)
    res = GpuRuntime(strategy=Strategy.SERIAL).run(case.plan, case.sources)
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description}")


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_runtime_under_memory_pressure_matches(seed):
    case = random_plan_case(seed)
    budget = int(case.sources["main"].nbytes * 1.6)
    ref = evaluate_sinks(case.plan, case.sources)
    from repro.errors import DeviceOOMError
    try:
        res = GpuRuntime(strategy=Strategy.FUSED, memory_limit=budget).run(
            case.plan, case.sources)
    except DeviceOOMError:
        pytest.skip("plan legitimately needs more than the tiny budget")
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description}")


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_rewrites_preserve_semantics(seed):
    case = random_plan_case(seed)
    opt = optimize_plan(case.plan)
    opt.validate()
    a = evaluate_sinks(case.plan, case.sources)
    b = evaluate_sinks(opt, case.sources)
    assert set(a) == set(b)
    for name in a:
        assert a[name].same_tuples(b[name]), (
            f"seed={seed} plan={case.description}")


@pytest.mark.no_chaos  # compares timings across two separately faulted runs
@pytest.mark.parametrize("seed", SEEDS[:20])
def test_fused_timing_never_worse_than_unfused(seed):
    """Fusion is only applied where the lowering saves work; on these
    chains the fused simulated time must not regress."""
    case = random_plan_case(seed)
    fused = GpuRuntime(strategy=Strategy.FUSED).run(case.plan, case.sources)
    unfused = GpuRuntime(strategy=Strategy.SERIAL).run(case.plan, case.sources)
    assert fused.makespan <= unfused.makespan * 1.05, (
        f"seed={seed} plan={case.description}")


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_fission_runtime_matches_interpreter(seed):
    """The segmented pipeline (kernel fission over pooled streams) must be
    invisible to the answer, including on plans it cannot stream (where it
    falls back to resident execution)."""
    case = random_plan_case(seed)
    ref = evaluate_sinks(case.plan, case.sources)
    res = GpuRuntime(strategy=Strategy.FUSED_FISSION).run(
        case.plan, case.sources)
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description}")


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_chunked_runtime_matches_interpreter(seed):
    """Eagerly staging every intermediate to the host (the forced round
    trip) changes the schedule, never the tuples."""
    case = random_plan_case(seed)
    ref = evaluate_sinks(case.plan, case.sources)
    res = GpuRuntime(strategy=Strategy.WITH_ROUND_TRIP).run(
        case.plan, case.sources)
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description}")


@pytest.mark.parametrize("scheme", [RLE, DICT, BITPACK], ids=lambda s: s.name)
@pytest.mark.parametrize("seed", SEEDS[:15])
def test_compressed_transfers_match_interpreter(seed, scheme):
    case = random_plan_case(seed)
    ref = evaluate_sinks(case.plan, case.sources)
    res = GpuRuntime(compression=scheme).run(case.plan, case.sources)
    for name, rel in ref.items():
        assert res.results[name].same_tuples(rel), (
            f"seed={seed} plan={case.description} scheme={scheme.name}")


def test_compressed_mode_moves_fewer_wire_bytes():
    from repro.simgpu import EventKind
    case = random_plan_case(1)
    raw = GpuRuntime().run(case.plan, case.sources)
    comp = GpuRuntime(compression=RLE).run(case.plan, case.sources)
    bytes_up = lambda r: sum(e.nbytes for e in r.timeline.filter(EventKind.H2D)
                             if e.tag.startswith("input."))
    assert bytes_up(comp) < bytes_up(raw)
    # and pays for it with decompress kernels
    assert any(e.tag.startswith("decompress.")
               for e in comp.timeline.events)


def test_generator_is_deterministic():
    a = random_plan_case(7)
    b = random_plan_case(7)
    assert a.description == b.description
    assert [n.name for n in a.plan.nodes] == [n.name for n in b.plan.nodes]


def test_generator_produces_variety():
    descriptions = {random_plan_case(s).description for s in range(40)}
    assert len(descriptions) > 20
