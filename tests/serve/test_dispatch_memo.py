"""Fixed per-request and per-lane values are built once per process.

A request's fingerprint is rendered once per ``(kind, elements)``, and
the dispatch key built from it is the ``PlanCache.key`` of the plain
fingerprint tuples, byte for byte.  The contended lane device is one
object for equal inputs, so the simulator's device-keyed memos find it
by identity instead of comparing equal specs field by field.
"""

import sys

from repro.cluster.host import contended_device
from repro.optimizer import PlanCache
from repro.optimizer.fingerprint import calibration_fingerprint
from repro.serve import (
    DEFAULT_TENANTS, ArrivalProcess, QueryServer, ServeConfig,
)
from repro.serve.dispatch import DispatchEngine
from repro.simgpu.device import DeviceSpec

#: the rate ladder of a two-device serving run, seed 7
RATES = (10, 20, 25, 30, 35, 40, 60)
SEED = 7


def _ladder(duration_s: float):
    return [ArrivalProcess(qps, duration_s, DEFAULT_TENANTS,
                           seed=SEED * 1000 + qps).trace() for qps in RATES]


def _serve(trace) -> None:
    config = ServeConfig(devices=2, workers=1, queue_capacity=4096,
                         plan_cache=PlanCache())
    QueryServer(config=config).run(trace)


def test_dispatch_keys_equal_the_plan_cache_definition(monkeypatch):
    keyed = []
    original = DispatchEngine.dispatch_key

    def checked(self, batch, fault_plan):
        key = original(self, batch, fault_plan)
        cfg = self.config
        plain = tuple(tuple(r.fingerprint()) for r in batch)
        assert key == cfg.plan_cache.key(
            "serve", cfg.mode, cfg.max_streams, cfg.memory_safety,
            cfg.check, cfg.analyze, calibration_fingerprint(self.lane_device),
            plain, fault_plan)
        keyed.append(key)
        return key

    monkeypatch.setattr(DispatchEngine, "dispatch_key", checked)
    for trace in _ladder(60.0):
        _serve(trace)
    assert len(keyed) > 1000 and len(set(keyed)) < len(keyed)


def test_contended_device_is_one_object_for_equal_inputs():
    base = DeviceSpec()
    assert contended_device(base, 2) is contended_device(DeviceSpec(), 2)
    assert contended_device(base, 2) is contended_device(base, 2, None)
    assert contended_device(base, 1) is base
    assert contended_device(base, 4) != contended_device(base, 2)


def test_simulator_never_compares_lane_devices(monkeypatch):
    first, second = _ladder(5.0)[2:4]
    _serve(first)
    from_run = []
    original = DeviceSpec.__eq__

    def watched(self, other):
        frame = sys._getframe(1)
        for _ in range(3):
            if frame is None:
                break
            if frame.f_code.co_name == "_run":
                from_run.append(frame.f_code.co_filename)
            frame = frame.f_back
        return original(self, other)

    monkeypatch.setattr(DeviceSpec, "__eq__", watched)
    _serve(second)
    assert from_run == []
