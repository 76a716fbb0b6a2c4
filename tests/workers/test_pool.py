"""Worker-pool end-to-end: byte-identity, crash replay, idempotency.

These tests fork real worker processes, so they keep traces small; the
heavier sweeps live in benchmarks/bench_worker_scaleout.py.
"""

import json
import multiprocessing
import threading

import pytest

from repro.faults import FaultKind, FaultPlan
from repro.optimizer import PlanCache
from repro.serve import ArrivalProcess, QueryServer, ServeConfig, TenantSpec
from repro.serve.dispatch import DispatchRequest, batch_fingerprint
from repro.validate import validate_pool
from repro.workers import WorkerPool, build_pool_report, merge_metrics
from tests.analyze.test_memory_check import small_device


def trace(qps=60, duration=1.0, seed=5):
    return ArrivalProcess(qps=qps, duration_s=duration, seed=seed).trace()


def serve(tr, *, kill_worker=None, **cfg):
    cfg.setdefault("queue_capacity", 4096)
    server = QueryServer(config=ServeConfig(**cfg), kill_worker=kill_worker)
    result = server.run(trace=list(tr))
    server.close()
    return server, result


def summary_bytes(result):
    return json.dumps(result.metrics.summary(), sort_keys=True)


class TestByteIdentity:
    def test_pooled_matches_in_process(self):
        tr = trace()
        _, base = serve(tr, workers=1)
        server, pooled = serve(tr, workers=2)
        assert summary_bytes(pooled) == summary_bytes(base)
        report = build_pool_report(pooled.metrics, server.pool,
                                   server.config)
        assert report.identical
        assert validate_pool(server.pool).ok

    def test_merged_metrics_rebuilt_from_worker_logs(self):
        tr = trace()
        server, pooled = serve(tr, workers=2)
        merged = merge_metrics(server.pool.partials, pooled.metrics,
                               devices=1)
        assert merged.summary() == pooled.metrics.summary()

    def test_shed_unsafe_survives_the_merge(self):
        # a 16 MiB device: the static memory check sheds the oversized
        # queries at dispatch, a counter only the parent sees
        tenants = (TenantSpec("mixed", mix=(("q1", 0.5), ("q6", 0.5))),)
        tr = ArrivalProcess(qps=20, duration_s=0.5, tenants=tenants,
                            seed=1).trace()
        config = ServeConfig(mode="isolated", shed_unsafe=True, workers=2,
                             queue_capacity=4096)
        server = QueryServer(small_device(1 << 24), config)
        result = server.run(trace=tr)
        server.close()
        assert result.metrics.shed_unsafe > 0
        report = build_pool_report(result.metrics, server.pool, config)
        assert report.identical

    def test_backend_stats_conserve(self):
        server, _ = serve(trace(), workers=2)
        s = server.backend_stats
        assert s["outbox.attempts"] == s["outbox.recorded"] + s["outbox.hits"]
        assert s["outbox.acked"] == s["outbox.recorded"]
        assert s["pool.kills"] == 0


class TestCrashReplay:
    def test_kill_mid_run_converges_to_no_kill_bytes(self):
        tr = trace()
        _, base = serve(tr, workers=1)
        # kill the worker that owns dispatches (hash routing with
        # pool_seed=0 sends this trace's tenants to worker 0)
        server, killed = serve(tr, workers=2, kill_worker=0)
        assert server.pool.kills == 1
        assert len(server.pool.respawn_events) == 1
        ev = server.pool.respawn_events[0]
        assert ev.restored + ev.redispatched == ev.expected
        assert summary_bytes(killed) == summary_bytes(base)
        assert validate_pool(server.pool).ok
        report = build_pool_report(killed.metrics, server.pool,
                                   server.config)
        assert report.identical

    def test_chaos_worker_kills_converge(self):
        tr = trace()
        _, base = serve(tr, workers=1)
        plan = FaultPlan(seed=7, rates={FaultKind.WORKER_KILL: 0.5},
                         budget=16)
        server, chaotic = serve(tr, workers=2, faults=plan)
        assert server.pool.kills > 0
        assert summary_bytes(chaotic) == summary_bytes(base)
        assert validate_pool(server.pool).ok

    def test_restored_entries_are_not_reexecuted(self):
        tr = trace()
        server, _ = serve(tr, workers=2, kill_worker=0)
        partials = {p.worker: p for p in server.pool.partials}
        restored = [r for p in partials.values() for r in p.dispatches
                    if r.restored]
        ev = server.pool.respawn_events[0]
        assert len(restored) == ev.restored


class TestFrozenOutcomesCrossProcesses:
    """Serve outcomes are frozen when dispatched; their timelines are
    pickled between processes and replayed from the parent's and the
    workers' outboxes without changing a byte of the summary."""

    def test_pooled_repeat_trace_matches_in_process(self):
        tr = trace()
        _, base = serve(tr, workers=1, mode="isolated",
                        plan_cache=PlanCache())
        # in isolated mode this trace's repeat kinds route to worker 1
        server, pooled = serve(tr, workers=2, kill_worker=1, mode="isolated",
                               plan_cache=PlanCache())
        assert summary_bytes(pooled) == summary_bytes(base)
        cache = PlanCache.merge_stats(
            [p.plan_cache for p in server.pool.partials])
        assert cache["cache.hits"] > 0
        (respawn,) = server.pool.respawn_events
        assert respawn.restored > 0       # parent outbox -> fresh worker
        results = [e.result for e in server.pool.outbox.entries.values()]
        assert results and all(r[1].frozen for r in results)

    def test_worker_outbox_replays_a_frozen_outcome(self, device):
        from repro.optimizer.fingerprint import canonical
        from repro.workers.outbox import DispatchKey
        from repro.workers.worker import _make_record, worker_main

        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(target=worker_main, args=(
            child, 0, device, ServeConfig(plan_cache=PlanCache())))
        thread.start()
        try:
            assert parent.recv() == ("ready", 0)
            req = DispatchRequest((trace()[0],), 0)
            key = DispatchKey(0, req.tenant, batch_fingerprint(req.batch), 0)
            parent.send(("dispatch", key, req, 1, 0.0))
            _, first, hit = parent.recv()
            assert not hit and first[1].frozen
            parent.send(("dispatch", key, req, 2, 0.0))
            _, again, hit = parent.recv()
            assert hit and again[1].frozen
            assert again == first and canonical(again) == canonical(first)
            # a restored entry (what a respawn ships) replays the same way
            moved = DispatchKey(0, req.tenant, key.query_fingerprint, 1)
            record = _make_record(0, moved, req, 1, 0.0, first,
                                  restored=True)
            parent.send(("restore", moved, record, first, None))
            assert parent.recv() == ("restored",)
            parent.send(("dispatch", moved, req, 3, 0.0))
            _, restored, hit = parent.recv()
            assert hit and restored[1].frozen and restored == first
        finally:
            parent.send(("stop",))
            thread.join()


class TestIdempotentDispatch:
    @pytest.fixture()
    def pool(self, device):
        cfg = ServeConfig(workers=2)
        pool = WorkerPool(device, cfg)
        yield pool
        pool.close()

    def _assignments(self, n=3):
        reqs = trace()
        return [DispatchRequest((reqs[i],), i) for i in range(n)]

    def test_duplicate_round_never_reexecutes(self, pool, device):
        assignments = self._assignments()
        first = pool.execute_round(assignments, epoch=1)
        executed = dict(pool.heartbeat())
        # the retried round: same keys, recorded results, zero execution
        second = pool.execute_round(assignments, epoch=2)
        assert pool.heartbeat() == executed
        assert pool.outbox.hits == len(assignments)
        for a, b in zip(first, second):
            assert a[0] == b[0] and a[1] is b[1]

    def test_hits_survive_many_retries(self, pool):
        assignments = self._assignments(2)
        pool.execute_round(assignments, epoch=1)
        for epoch in range(2, 6):
            pool.execute_round(assignments, epoch=epoch)
        c = pool.outbox.counters()
        assert c["outbox.recorded"] == 2
        assert c["outbox.hits"] == 2 * 4
        assert c["outbox.attempts"] == c["outbox.recorded"] + c["outbox.hits"]

    def test_same_content_different_sequence_executes(self, pool):
        reqs = trace()
        a = DispatchRequest((reqs[0],), 0)
        b = DispatchRequest((reqs[0],), 1)  # same content, new sequence
        pool.execute_round([a], epoch=1)
        pool.execute_round([b], epoch=2)
        assert pool.outbox.recorded == 2
        assert pool.outbox.hits == 0
        assert batch_fingerprint(a.batch) == batch_fingerprint(b.batch)


class TestWarmLifecycle:
    def test_heartbeat_counts_executions(self):
        server, res = serve(trace(), workers=2)
        # pool is closed; partials carry the executed counts instead
        total = sum(len([r for r in p.dispatches if not r.restored])
                    for p in server.pool.partials)
        assert total == res.metrics.batches

    def test_warm_spawn_measured(self):
        server, _ = serve(trace(), workers=2)
        assert sorted(server.pool.warm_ms) == [0, 1]
        assert all(ms > 0 for ms in server.pool.warm_ms.values())

    def test_close_idempotent(self):
        server, _ = serve(trace(), workers=2)
        again = server.pool.close()
        assert again == server.backend_stats
