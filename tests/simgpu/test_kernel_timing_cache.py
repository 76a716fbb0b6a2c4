"""The DES's kernel-timing cache returns exactly what the timing model
computes, and injected faults still act on the looked-up base."""

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
