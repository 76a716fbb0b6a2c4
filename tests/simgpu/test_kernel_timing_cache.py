"""The DES's kernel-timing cache returns exactly what the timing model
computes, is the one layer that serves a repeated launch, and injected
faults still act on the looked-up base."""

import itertools

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.simgpu import DeviceSpec, KernelLaunchSpec, SimEngine, SimStream
from repro.simgpu.compute import kernel_duration, sms_requested
from repro.simgpu.engine import kernel_base_duration, kernel_sms_wanted

DEVICE = DeviceSpec()
N = 3 * 10**6
SPEC = KernelLaunchSpec("k", N, 112, 256, 20, 4.0 * N, 2.0 * N, 40.0 * N)


def test_caches_are_bounded():
    for cache in (kernel_base_duration, kernel_sms_wanted):
        assert isinstance(cache.cache_info().maxsize, int)


def test_cached_values_equal_the_timing_model():
    assert kernel_sms_wanted(DEVICE, SPEC) == sms_requested(DEVICE, SPEC)
    durations = set()
    for grant in (4, DEVICE.num_sms):
        for concurrent in (False, True):
            want = kernel_duration(DEVICE, SPEC, granted_sms=grant,
                                   concurrent=concurrent)
            for _ in range(2):  # miss, then hit
                assert kernel_base_duration(
                    DEVICE, SPEC, grant, concurrent) == want
            durations.add(want)
    assert len(durations) == 4


@pytest.mark.parametrize("threads,regs,shared", itertools.product(
    (64, 256, 1024), (8, 20, 63, 200), (0, 24 * 1024, 50_000)))
def test_float_shapes_resolve_like_int_shapes(threads, regs, shared):
    want = DEVICE.occupancy(threads, regs, shared)
    got = DEVICE.occupancy(float(threads), float(regs), float(shared))
    assert got == want
    for value in (got.ctas_per_sm, got.resident_threads,
                  got.max_threads_per_sm):
        assert type(value) is int


def _program():
    # a small shared-memory kernel takes a few SMs first, so SPEC runs
    # once beside it on the rest and once alone on the whole device
    n = N // 100
    small = KernelLaunchSpec("timing-cache-small", n, 8, 128, 32,
                             2.0 * n, 1.0 * n, 20.0 * n,
                             shared_bytes_per_cta=12 * 1024)
    return [SimStream(0).kernel(small), SimStream(1).kernel(SPEC).kernel(SPEC)]


def test_a_repeated_program_reads_only_the_engine_caches(monkeypatch):
    first = SimEngine(DEVICE).run(_program())
    calls = {"occupancy": 0, "utilization": 0}

    def counted(name):
        original = getattr(DeviceSpec, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(DeviceSpec, name, counted(name))
    misses = (kernel_base_duration.cache_info().misses,
              kernel_sms_wanted.cache_info().misses)
    second = SimEngine(DEVICE).run(_program())
    assert calls == {"occupancy": 0, "utilization": 0}
    assert (kernel_base_duration.cache_info().misses,
            kernel_sms_wanted.cache_info().misses) == misses
    assert ([(ev.tag, ev.start, ev.end) for ev in second.events]
            == [(ev.tag, ev.start, ev.end) for ev in first.events])


def _run_one(plan: FaultPlan):
    stream = SimStream(stream_id=0).kernel(SPEC, tag="k")
    return SimEngine(DEVICE, faults=FaultInjector(plan)).run([stream]).events


def _only(kind: FaultKind) -> FaultPlan:
    return FaultPlan(seed=0, rates={kind: 1.0}, budget=1)


def test_stall_stretches_the_cached_base():
    base = kernel_duration(DEVICE, SPEC, granted_sms=DEVICE.num_sms)
    kernel_base_duration(DEVICE, SPEC, DEVICE.num_sms, False)  # warm
    plan = _only(FaultKind.STREAM_STALL)
    (event,) = _run_one(plan)
    assert event.tag == "k"
    assert event.end - event.start == base * plan.stall_factor


def test_transient_kernel_fault_reports_fail_latency():
    plan = _only(FaultKind.KERNEL_FAIL)
    failed, retried = _run_one(plan)
    assert failed.tag == "fault.k"
    assert failed.end - failed.start == plan.retry.kernel_fail_latency_s
    assert retried.tag == "k"
    # the retry starts after the backoff, so its length carries rounding
    assert retried.end - retried.start == pytest.approx(kernel_duration(
        DEVICE, SPEC, granted_sms=DEVICE.num_sms), rel=1e-12)
