"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.ra.relation import Relation
from repro.simgpu.device import DeviceSpec
from repro.simgpu.engine import SimEngine
from repro.tpch.datagen import TpchConfig, generate
from repro.validate import validate_run, validate_timeline


@pytest.fixture(scope="session")
def device() -> DeviceSpec:
    return DeviceSpec()


def _chaos_plan_from_env() -> FaultPlan | None:
    """FaultPlan from REPRO_CHAOS_RATE / REPRO_CHAOS_SEED, or None.

    Environment-driven (rather than a pytest option) so the chaos CI job
    can flip on low-rate injection for the *whole* suite without touching
    every invocation: ``REPRO_CHAOS_RATE=0.002 pytest``.
    """
    rate = os.environ.get("REPRO_CHAOS_RATE")
    if not rate:
        return None
    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    return FaultPlan.chaos(seed, rate=float(rate))


@pytest.fixture
def chaos() -> FaultPlan:
    """A seeded FaultPlan for tests that opt into fault injection.

    Honors REPRO_CHAOS_RATE / REPRO_CHAOS_SEED when set; defaults to the
    standard low-rate chaos plan otherwise.
    """
    return _chaos_plan_from_env() or FaultPlan.chaos(0, rate=0.02)


@pytest.fixture(autouse=True)
def _env_chaos(request, monkeypatch):
    """Suite-wide chaos mode: when REPRO_CHAOS_RATE is set, every engine
    that was constructed *without* explicit faults gets a deterministic
    low-rate injector (seeded per-test so different tests probe different
    sites).  Tests asserting exact simulated timings opt out with
    ``@pytest.mark.no_chaos``."""
    plan = _chaos_plan_from_env()
    if plan is None or request.node.get_closest_marker("no_chaos"):
        yield
        return
    per_test = int.from_bytes(
        hashlib.blake2b(request.node.nodeid.encode(), digest_size=4).digest(),
        "big")
    test_plan = FaultPlan(seed=plan.seed + per_test, rates=plan.rates,
                          budget=plan.budget, retry=plan.retry)
    orig_init = SimEngine.__init__

    def chaos_init(self, device, pcie=None, check=False, faults=None):
        if faults is None:
            faults = FaultInjector(test_plan)
        orig_init(self, device, pcie=pcie, check=check, faults=faults)

    monkeypatch.setattr(SimEngine, "__init__", chaos_init)
    yield


@pytest.fixture(autouse=True)
def _sanitize_schedules(monkeypatch):
    """Audit every simulated schedule the suite produces.

    Wraps :meth:`SimEngine.run`, :meth:`Executor.run` and
    :meth:`GpuRuntime.run` so each timeline is checked against the
    device-model invariants (engine exclusivity, SM capacity, stream
    order, sync matching, byte conservation -- spills included); any
    violation fails the test with a ScheduleInvariantError.
    """
    from repro.runtime.executor import Executor
    from repro.runtime.gpu_rt import GpuRuntime
    from repro.runtime.strategies import ExecutionConfig

    engine_run = SimEngine.run
    executor_run = Executor.run
    runtime_run = GpuRuntime.run

    def checked_engine_run(self, streams, timeline=None, start_time=0.0):
        tl = engine_run(self, streams, timeline, start_time)
        if not self.check:  # strict engines already validated
            validate_timeline(tl, self.device).raise_if_failed()
        return tl

    def checked_executor_run(self, plan, source_rows=None,
                             config=ExecutionConfig()):
        result = executor_run(self, plan, source_rows, config)
        if not self.check:
            validate_run(result, self.device).raise_if_failed()
        return result

    def checked_runtime_run(self, plan, sources):
        result = runtime_run(self, plan, sources)
        validate_run(result, self.device).raise_if_failed()
        return result

    monkeypatch.setattr(SimEngine, "run", checked_engine_run)
    monkeypatch.setattr(Executor, "run", checked_executor_run)
    monkeypatch.setattr(GpuRuntime, "run", checked_runtime_run)
    yield


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def small_relation(rng) -> Relation:
    n = 10_000
    return Relation({
        "key": rng.integers(0, 1000, n).astype(np.int32),
        "value": rng.integers(0, 1000, n).astype(np.int32),
    })


@pytest.fixture(scope="session")
def tpch_tiny():
    """Small but non-trivial TPC-H dataset, generated once per session."""
    return generate(TpchConfig(scale_factor=0.002, seed=7, late_fraction=0.5))


@pytest.fixture(scope="session")
def tpch_small():
    return generate(TpchConfig(scale_factor=0.005, seed=11, late_fraction=0.4))
