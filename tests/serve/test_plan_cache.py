"""Serve-path plan cache: repeat queries hit, metrics stay byte-identical.

The acceptance property: on a repeat-query workload the dispatch cache
serves >= 90% of dispatches from cache, and the served metrics are
byte-identical to a cache-disabled run of the same trace -- the cache is
a pure latency optimization of the serving control plane, never a
behavior change.
"""

import json

import pytest

from repro.optimizer import PlanCache
from repro.serve import QueryServer, ServeConfig
from repro.serve.arrivals import QueryRequest
from repro.simgpu.timeline import EventKind, Timeline

FAR = 1e9  # deadline far enough that nothing sheds


def _repeat_trace(n: int, kind: str = "q6", elements: int = 1_000_000,
                  spacing: float = 0.0):
    return [
        QueryRequest(req_id=i, tenant="t", kind=kind,
                     arrival_s=i * spacing, priority=0, deadline_s=FAR,
                     elements=elements)
        for i in range(n)
    ]


def _summary_json(result) -> str:
    return json.dumps(result.metrics.summary(), sort_keys=True)


class TestRepeatWorkloadHitRate:
    def test_isolated_repeat_queries_hit_over_90_percent(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", plan_cache=cache)
        QueryServer(config=cfg).run(trace=_repeat_trace(40))
        assert cache.hits + cache.misses == 40
        assert cache.hit_rate >= 0.9
        assert cache.misses == 1       # exactly one cold dispatch per kind

    def test_batched_repeat_batches_hit(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="batched", max_batch=8, queue_capacity=256,
                          plan_cache=cache)
        QueryServer(config=cfg).run(trace=_repeat_trace(160))
        assert cache.misses == 1       # 20 identical 8-query batches
        assert cache.hit_rate >= 0.9

    def test_distinct_kinds_key_separately(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", plan_cache=cache)
        trace = _repeat_trace(10, kind="q6") + [
            QueryRequest(req_id=100 + i, tenant="t", kind="q1",
                         arrival_s=0.0, priority=0, deadline_s=FAR,
                         elements=1_000_000)
            for i in range(10)
        ]
        QueryServer(config=cfg).run(trace=trace)
        assert cache.misses == 2       # one cold dispatch per query kind
        assert cache.hits == 18


class TestCacheIsBehaviorNeutral:
    def test_summary_byte_identical_to_cache_disabled(self):
        trace = _repeat_trace(30, spacing=0.001)
        with_cache = QueryServer(config=ServeConfig(
            mode="isolated", plan_cache=PlanCache())).run(trace=list(trace))
        without = QueryServer(config=ServeConfig(
            mode="isolated")).run(trace=list(trace))
        assert _summary_json(with_cache) == _summary_json(without)

    def test_batched_summary_byte_identical(self):
        trace = _repeat_trace(64, spacing=0.0005)
        with_cache = QueryServer(config=ServeConfig(
            plan_cache=PlanCache())).run(trace=list(trace))
        without = QueryServer(config=ServeConfig()).run(trace=list(trace))
        assert _summary_json(with_cache) == _summary_json(without)

    def test_merged_timeline_safe_to_replay(self):
        """Cached timelines are replayed across dispatches; merging them
        must not mutate the cached copy (frozen events, extend copies)."""
        trace = _repeat_trace(10)
        cfg = ServeConfig(mode="isolated", plan_cache=PlanCache())
        result = QueryServer(config=cfg).run(trace=trace)
        a = result.merged_timeline().makespan
        b = result.merged_timeline().makespan
        assert a == b
        assert len(result.segments) == 10


class TestChaosNeverCached:
    def test_degraded_dispatches_not_served_from_cache(self):
        from repro.faults import FaultPlan
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", faults=FaultPlan.chaos(3, rate=0.9),
                          plan_cache=cache)
        result = QueryServer(config=cfg).run(trace=_repeat_trace(8))
        assert result.metrics.degraded_batches > 0
        # a degraded dispatch is never cached -- and with chaos on, every
        # batch keys uniquely anyway (reseeded fault plan in the key)
        assert cache.hits == 0


class TestFingerprintOnce:
    """Each catalog request's content identity is computed once per
    ``(kind, elements)``, and the memo stays sound: serving never mutates
    the catalog plan it hashed."""

    def test_plan_fingerprint_at_most_once_per_kind(self, monkeypatch):
        from repro.optimizer import fingerprint
        from repro.serve import DEFAULT_TENANTS, ArrivalProcess
        from repro.serve.arrivals import request_fingerprint

        calls = []
        original = fingerprint.plan_fingerprint

        def counting(plan):
            calls.append(plan.name)
            return original(plan)

        request_fingerprint.cache_clear()
        monkeypatch.setattr(fingerprint, "plan_fingerprint", counting)
        trace = ArrivalProcess(30, 10.0, DEFAULT_TENANTS, seed=7).trace()
        cache = PlanCache()
        QueryServer(config=ServeConfig(devices=2, queue_capacity=4096,
                                       plan_cache=cache)).run(trace)
        kinds = {r.kind for r in trace}
        assert cache.hits > 0
        assert 0 < len(calls) <= len(kinds)

    def test_serving_never_mutates_a_catalog_plan(self):
        from repro.faults import FaultPlan
        from repro.optimizer.fingerprint import plan_fingerprint
        from repro.serve.arrivals import (QUERY_KINDS, catalog_plan,
                                          request_fingerprint)

        elements = 1_000_000
        trace = [
            QueryRequest(req_id=i, tenant="t", kind=kind,
                         arrival_s=i * 0.001, priority=0, deadline_s=FAR,
                         elements=elements)
            for i, kind in enumerate(QUERY_KINDS * 2)]
        memo = {k: request_fingerprint(k, elements)[0] for k in QUERY_KINDS}
        cfg = ServeConfig(check=True, analyze=True, devices=2,
                          queue_capacity=256, plan_cache=PlanCache(),
                          faults=FaultPlan.chaos(5, rate=0.2))
        summary = QueryServer(config=cfg).run(trace=trace).metrics.summary()
        assert summary["completed"] == len(trace)
        assert summary["degraded_batches"] > 0   # the per-query ladder ran
        for kind in QUERY_KINDS:
            assert plan_fingerprint(catalog_plan(kind)) == memo[kind], kind
            assert request_fingerprint(kind, elements)[0] == memo[kind]


def _append_event(timeline):
    timeline.events.append(timeline.events[-1])


def _replace_event(timeline):
    import dataclasses
    ev = timeline.events[0]
    timeline.events[0] = dataclasses.replace(ev, end=ev.end + 1e-9)


def _assign_events(timeline):
    timeline.events = list(timeline.events)


class _RotOnFirstRepeat(PlanCache):
    """Tries to mutate the first cached outcome's Timeline in place --
    through the value the caller holds, not the ``_corrupt`` hook --
    right before the first lookup that would hit it, and keeps what the
    attempt raised."""

    def __init__(self, rot):
        super().__init__()
        self.rot = rot
        self.raised: Exception | None = None
        self.first: tuple[str, tuple] | None = None

    def put(self, key, value):
        super().put(key, value)
        if self.first is None:
            self.first = (key, value)

    def get(self, key):
        if self.rot is not None and self.first and self.first[0] == key:
            try:
                self.rot(self.first[1][1])
            except (AttributeError, TypeError) as exc:
                self.raised = exc
            self.rot = None
        return super().get(key)


class TestInPlaceMutationDetected:
    """A cached value cannot change without detection.  A serve outcome's
    Timeline is frozen when dispatched, so rot through the value a caller
    holds raises and every hit replays the original; a value that is
    still mutable is re-rendered on every hit, so rot in it is caught and
    never served."""

    @pytest.mark.parametrize("rot", [_append_event, _replace_event,
                                     _assign_events],
                             ids=["append", "replace", "assign"])
    def test_mutating_a_cached_timeline_raises(self, rot):
        trace = _repeat_trace(12, spacing=0.001)
        cache = _RotOnFirstRepeat(rot)
        with_cache = QueryServer(config=ServeConfig(
            mode="isolated", plan_cache=cache)).run(trace=list(trace))
        assert cache.rot is None            # the rot was attempted
        assert isinstance(cache.raised, (AttributeError, TypeError))
        assert cache.corruptions == 0
        assert cache.misses == 1            # cold only
        assert cache.hits == len(trace) - 1
        without = QueryServer(config=ServeConfig(
            mode="isolated")).run(trace=list(trace))
        assert _summary_json(with_cache) == _summary_json(without)

    @pytest.mark.parametrize("value, rot", [
        ([1.0, [2, 3]], lambda v: v[1].append(4)),
        ({"a": 1, "b": [2]}, lambda v: v.__setitem__("a", 2)),
        (Timeline(), lambda v: v.add(0.0, 1.0, EventKind.KERNEL, "late")),
    ], ids=["list", "dict", "unfrozen_timeline"])
    def test_mutated_mutable_value_is_a_miss(self, value, rot):
        cache = PlanCache()
        cache.put("k", value)
        assert cache.get("k") is value
        rot(value)
        assert cache.get("k") is None
        assert cache.corruptions == 1
        assert cache.misses == 1
        assert "k" not in cache

    def test_corrupt_hook_on_a_frozen_outcome_is_detected(self):
        cache = PlanCache()
        QueryServer(config=ServeConfig(mode="isolated", plan_cache=cache)
                    ).run(trace=_repeat_trace(2))
        (key,) = list(cache._entries)
        assert cache.get(key)[1].frozen
        cache._corrupt(key)
        assert cache.get(key) is None
        assert cache.corruptions == 1
