"""Differential soundness harness for the memory-safety analysis.

The contract (docs/ANALYSIS.md, "Memory-safety analysis") is enforced in
both directions against the real executor:

* **no false negatives** -- a (plan, rows, device, strategy) the analysis
  calls ``safe`` must never raise :class:`DeviceOOMError` at runtime;
* **no silent OOMs** -- every runtime :class:`DeviceOOMError` must have
  been flagged statically as certain (MEM701 / ``certain-oom``) or
  possible (MEM702 / ``possible-oom``).

The matrix covers the hand-built TPC-H Q1/Q6/Q21 plans, all 22
frontend-compiled TPC-H queries at sf 0.01 / 1 / 30, a fuzzed plan
population, several row scales, and device budgets from 16 MB up to the
default 6 GB.

On observed shapes the Executor's chunk planner is also the rule the
functional runtime's device placement follows: a run the Executor admits
must place on the same device without a spill.
"""

import dataclasses

import pytest

from repro.analyze.memory_check import check_strategy
from repro.errors import DeviceOOMError
from repro.plans import evaluate_sinks
from repro.plans.fuzz import random_plan_case
from repro.runtime.executor import ExecutionConfig, Executor
from repro.runtime.gpu_rt import GpuRuntime
from repro.runtime.sizes import PlanShape
from repro.runtime.strategies import Strategy
from repro.simgpu.device import DEFAULT_CALIBRATION, DeviceSpec
from repro.tpch.catalog import (QUERIES, compile_tpch, tpch_dataset,
                                tpch_source_rows)
from repro.tpch.q1 import build_q1_plan, q1_source_rows
from repro.tpch.q6 import build_q6_plan
from repro.tpch.q21 import build_q21_plan, q21_source_rows

DEVICE_BYTES = (1 << 24, 1 << 26, 1 << 28, 6 << 30)
SCALES = (200_000, 2_000_000, 20_000_000)
FUZZ_SEEDS = range(20)
FUZZ_FACTORS = (1, 40, 1600)
TPCH_SCALE_FACTORS = (0.01, 1, 30)


def device_of(nbytes: int) -> DeviceSpec:
    return DeviceSpec(calib=dataclasses.replace(
        DEFAULT_CALIBRATION,
        gpu=dataclasses.replace(DEFAULT_CALIBRATION.gpu,
                                global_mem_bytes=nbytes)))


DEVICES = tuple(device_of(n) for n in DEVICE_BYTES)


def check_both_directions(plan, rows, device, strategy) -> str:
    """Run the analysis and the executor; assert they agree. Returns the
    static verdict so callers can count coverage."""
    verdict = check_strategy(plan, strategy, rows, device)
    oom = None
    try:
        Executor(device).run(plan, rows, ExecutionConfig(strategy=strategy))
    except DeviceOOMError as err:
        oom = err
    label = f"{plan.name}/{strategy.value}@{device.calib.gpu.global_mem_bytes}"
    if verdict.verdict == "safe":
        assert oom is None, (
            f"UNSOUND: {label} declared safe but raised {oom} "
            f"({verdict.detail})")
    if oom is not None:
        assert verdict.verdict in ("certain-oom", "possible-oom"), (
            f"SILENT OOM: {label} raised {oom} but verdict was "
            f"{verdict.verdict} ({verdict.detail})")
    return verdict.verdict


class TestTpchSoundness:
    @pytest.mark.parametrize("nbytes", DEVICE_BYTES)
    def test_q1(self, nbytes):
        device = device_of(nbytes)
        for n in SCALES:
            for strategy in Strategy:
                check_both_directions(build_q1_plan(), q1_source_rows(n),
                                      device, strategy)

    @pytest.mark.parametrize("nbytes", DEVICE_BYTES)
    def test_q6(self, nbytes):
        device = device_of(nbytes)
        for n in SCALES:
            for strategy in Strategy:
                check_both_directions(build_q6_plan(), {"lineitem": n},
                                      device, strategy)

    @pytest.mark.parametrize("nbytes", DEVICE_BYTES)
    def test_q21(self, nbytes):
        device = device_of(nbytes)
        for n in SCALES:
            rows = q21_source_rows(n, n // 4, max(1, n // 600))
            for strategy in Strategy:
                check_both_directions(build_q21_plan(), rows, device,
                                      strategy)


class TestTpchSuiteSoundness:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_compiled_query(self, name):
        for sf in TPCH_SCALE_FACTORS:
            plan = compile_tpch(name, scale_factor=sf).plan
            rows = tpch_source_rows(sf)
            for device in DEVICES:
                for strategy in Strategy:
                    check_both_directions(plan, rows, device, strategy)


class TestFuzzSoundness:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzzed_plans(self, seed):
        case = random_plan_case(seed)
        base = {name: rel.num_rows for name, rel in case.sources.items()}
        for factor in FUZZ_FACTORS:
            rows = {name: n * factor for name, n in base.items()}
            for device in DEVICES:
                for strategy in Strategy:
                    check_both_directions(case.plan, rows, device, strategy)


class TestFissionFallback:
    def test_serial_fallback_keeps_the_safety_margin(self):
        """Fission with nothing to pipeline runs the serial path under
        the caller's ``memory_safety``, and the analysis agrees."""
        from repro.plans.plan import Plan
        from repro.ra.arithmetic import AggSpec

        device = device_of(1 << 26)
        # sort + aggregate over a working set of 0.7x device memory:
        # fits at the default 0.9 margin, not at 0.5
        rows = int(0.7 * (1 << 26)) // 16
        plan = Plan(name="sorted_agg")
        src = plan.source("t", row_nbytes=8)
        srt = plan.sort(src, ["k"], name="srt")
        plan.aggregate(srt, ["k"], {"n": AggSpec("count")}, n_groups=4,
                       name="agg")
        for strategy in (Strategy.SERIAL, Strategy.FISSION):
            verdict = check_strategy(plan, strategy, {"t": rows}, device,
                                     memory_safety=0.5)
            assert verdict.verdict == "certain-oom", strategy
            with pytest.raises(DeviceOOMError):
                Executor(device).run(plan, {"t": rows}, ExecutionConfig(
                    strategy=strategy, memory_safety=0.5))


@pytest.fixture(scope="module")
def sf002():
    data = tpch_dataset(scale_factor=0.002, seed=1992)
    assert sum(r.nbytes for r in data.values()) == 717_856
    return data


def place_admitted_run(query, factor, strategy, data):
    """The Executor admits ``query`` on the observed shape of ``data`` with
    ``factor`` x the data's bytes of device memory; the functional
    runtime then places it on that device without a spill, and its sinks
    are the interpreter's."""
    device = device_of(int(factor * sum(r.nbytes for r in data.values())))
    plan = compile_tpch(query, 0.002).plan
    timed = Executor(device).run(PlanShape.observe(plan, data), None,
                                 ExecutionConfig(strategy=strategy))
    ran = GpuRuntime(device=device, strategy=strategy).run(plan, data)
    assert ran.spill_count == 0
    for name, rel in evaluate_sinks(plan, data).items():
        got = ran.results[name]
        assert got.fields == rel.fields
        for f in rel.fields:
            assert got.column(f).tobytes() == rel.column(f).tobytes(), f
    return timed


class TestObservedShapeAgreement:
    @pytest.mark.parametrize("strategy", [Strategy.WITH_ROUND_TRIP,
                                          Strategy.SERIAL, Strategy.FUSED],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("factor", [0.3, 0.6])
    @pytest.mark.parametrize("query", ["q6", "q14", "q17", "q19"])
    def test_chunked_run_places(self, query, factor, strategy, sf002):
        """The Executor chunks ``lineitem`` here; the placement holds one
        chunk of it, not the whole 576,096 B source."""
        timed = place_admitted_run(query, factor, strategy, sf002)
        assert timed.num_chunks > 1

    @pytest.mark.xfail(strict=True, raises=DeviceOOMError,
                       reason="Executor._run_fission never sizes phases A "
                              "and C, so it admits fission runs whose phase "
                              "buffers exceed the device")
    @pytest.mark.parametrize("query,factor", [("q7", 0.6), ("q21", 1.0)])
    def test_fission_run_places(self, query, factor, sf002):
        place_admitted_run(query, factor, Strategy.FISSION, sf002)


class TestCoverage:
    def test_matrix_exercises_every_verdict(self):
        """The harness is only meaningful if all three verdicts actually
        occur in the matrix -- an all-safe sweep would prove nothing."""
        seen = set()
        for n in SCALES:
            for device in DEVICES:
                for strategy in Strategy:
                    seen.add(check_both_directions(
                        build_q1_plan(), q1_source_rows(n), device,
                        strategy))
        assert "safe" in seen
        assert "certain-oom" in seen
