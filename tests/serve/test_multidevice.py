"""Multi-device serving: batches route to the least-loaded idle lane,
per-device counters appear in the summary, more devices drain the same
trace faster, and the runs stay byte-deterministic."""

import json

import pytest

from repro.serve import (ArrivalProcess, QueryRequest, QueryServer,
                         ServeConfig, TenantSpec)
from repro.validate import validate_timeline

LOOSE_TENANTS = (
    TenantSpec("interactive", mix=(("q6", 0.6), ("sql_scan", 0.4)),
               weight=0.7, priority=0, deadline_s=60.0, elements=1_000_000),
    TenantSpec("reporting", mix=(("q1", 0.6), ("q21", 0.4)),
               weight=0.3, priority=1, deadline_s=60.0, elements=2_000_000),
)


def loose_trace(qps=80, duration=1.0, seed=5):
    return ArrivalProcess(qps=qps, duration_s=duration,
                          tenants=LOOSE_TENANTS, seed=seed).trace()


def serve(trace, device, **cfg):
    cfg.setdefault("queue_capacity", 4096)
    server = QueryServer(device, ServeConfig(**cfg))
    return server.run(trace=list(trace))


class TestConfig:
    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            ServeConfig(devices=0)

    def test_single_device_is_the_default(self):
        assert ServeConfig().devices == 1


class TestRouting:
    def test_every_segment_tagged_with_a_valid_lane(self, device):
        res = serve(loose_trace(), device, devices=3)
        assert len(res.segment_devices) == len(res.segments)
        assert set(res.segment_devices) <= {0, 1, 2}

    def test_all_lanes_get_work(self, device):
        res = serve(loose_trace(), device, devices=4)
        m = res.metrics
        assert sorted(m.per_device) == [0, 1, 2, 3]
        assert all(lane.batches > 0 for lane in m.per_device.values())
        assert sum(lane.batches for lane in m.per_device.values()) == m.batches
        assert sum(lane.queries
                   for lane in m.per_device.values()) == m.admitted

    def test_single_device_run_has_no_lane_metrics(self, device):
        m = serve(loose_trace(), device).metrics
        assert m.per_device == {}

    def test_lane_timelines_validate(self, device):
        res = serve(loose_trace(), device, devices=2, check=True)
        for dev_id, tl in res.device_timelines().items():
            assert validate_timeline(tl).ok, dev_id


class TestScaling:
    def test_more_devices_drain_faster(self, device):
        served = {d: serve(loose_trace(), device, devices=d).metrics.served_s
                  for d in (1, 2, 4)}
        assert served[2] < served[1]
        assert served[4] < served[2]

    def test_no_queries_lost_to_parallelism(self, device):
        trace = loose_trace()
        for devices in (1, 2, 4):
            m = serve(trace, device, devices=devices).metrics
            assert m.completed == m.offered
            assert m.shed == 0


class TestDeterminism:
    def test_same_seed_same_summary_bytes(self, device):
        def one():
            m = serve(loose_trace(seed=11), device, devices=4).metrics
            return json.dumps(m.summary(), sort_keys=True)
        assert one() == one()

    def test_summary_has_per_device_keys(self, device):
        s = serve(loose_trace(), device, devices=2).metrics.summary()
        for dev in (0, 1):
            for field in ("batches", "queries", "busy_s",
                          "dispatched_bytes", "utilization"):
                assert f"device.{dev}.{field}" in s


#: heavy open-loop reports keep lanes busy while a closed-loop tier with a
#: tight SLO queues behind them: with a 4-deep queue both queue-full
#: shedding and expiry fire at every device count
CONTENDED_TENANTS = (
    TenantSpec("reporting", mix=(("q1", 0.5), ("q21", 0.5)), weight=1.0,
               priority=0, deadline_s=4.0, elements=4_000_000),
    TenantSpec("loop", mix=(("q6", 1.0),), priority=1, deadline_s=0.1,
               elements=2_000_000, closed_loop_clients=3, think_s=0.02),
)


def contended_run(device, devices):
    arrivals = ArrivalProcess(qps=40, duration_s=1.0,
                              tenants=CONTENDED_TENANTS, seed=3)
    server = QueryServer(device, ServeConfig(devices=devices,
                                             queue_capacity=4))
    return server.run(arrivals=arrivals)


def lane_intervals(res):
    """{lane: [(dispatch, end), ...]} in dispatch order."""
    out = {}
    for dev, (t0, tl) in zip(res.segment_devices, res.segments):
        out.setdefault(dev, []).append((t0, t0 + tl.makespan))
    return out


@pytest.mark.parametrize("devices", (1, 2, 4))
class TestLaneInvariants:
    """The serving loop's invariants at every device count, on a load that
    sheds and expires."""

    @pytest.mark.no_chaos
    def test_load_sheds_and_expires(self, device, devices):
        m = contended_run(device, devices).metrics
        assert m.shed_queue_full > 0
        assert m.shed_expired > 0

    def test_one_batch_in_flight_per_lane(self, device, devices):
        """A lane's busy intervals are disjoint: it takes a batch only
        once the previous one has ended."""
        res = contended_run(device, devices)
        assert set(res.segment_devices) <= set(range(devices))
        for intervals in lane_intervals(res).values():
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end

    def test_completed_plus_shed_is_offered(self, device, devices):
        m = contended_run(device, devices).metrics
        assert m.completed + m.shed == m.offered

    def test_every_offered_id_recorded_once(self, device, devices):
        res = contended_run(device, devices)
        ids = [r.request.req_id for r in res.records]
        assert len(ids) == len(set(ids)) == res.metrics.offered


class OneFollowUp:
    """Closed-loop stub with a fixed think time: the client of request 1
    issues one follow-up after its response, whatever that response is."""

    THINK_S = 0.01

    def __init__(self, trace):
        self._trace = trace

    def trace(self):
        return list(self._trace)

    def on_completion(self, req, t):
        if req.req_id != 1:
            return None
        return QueryRequest(99, req.tenant, "q6", t + self.THINK_S, 0,
                            t + self.THINK_S + 60.0, 1_000_000, client=0)


@pytest.mark.no_chaos
def test_expiry_runs_at_arrivals_during_a_batch(device):
    """One device: a queued closed-loop request whose deadline passes
    while a long batch runs expires at the next arrival, so its client
    thinks from there -- not from the batch's end."""
    trace = [
        QueryRequest(0, "reporting", "q21", 0.0, 0, 60.0, 4_000_000),
        QueryRequest(1, "loop", "q6", 0.001, 0, 0.003, 1_000_000, client=0),
        QueryRequest(2, "reporting", "q6", 0.005, 1, 60.0, 1_000_000),
    ]
    res = QueryServer(device, ServeConfig(queue_capacity=4)).run(
        arrivals=OneFollowUp(trace))
    by_id = {r.request.req_id: r for r in res.records}
    # the first batch is still running when the second arrival lands
    assert by_id[0].completion_s > trace[2].arrival_s
    assert by_id[1].status == "shed_expired"
    assert by_id[99].request.arrival_s == pytest.approx(
        trace[2].arrival_s + OneFollowUp.THINK_S, abs=1e-12)
