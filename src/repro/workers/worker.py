"""The worker process: a warm, long-lived dispatch simulator.

Spawned once per pool slot by :class:`repro.workers.pool.WorkerPool`.
At startup it builds a :class:`repro.serve.dispatch.DispatchEngine` from
the (pickled) device spec and serve config -- the runtime is already
imported -- and then sends a ``ready`` handshake so the parent can
measure warm-spawn latency.  After that it sits in a message loop on its
pipe end until told to stop.

Message protocol (parent -> worker, replies worker -> parent):

``("dispatch", key, request, epoch, nbytes)``
    Simulate one batch.  Idempotent at the worker too: a key already in
    the worker-local outbox replies with the stored outcome and bumps
    the duplicate-hit counter -- the simulation never re-executes.
    Reply: ``("result", outcome, hit)``.
``("restore", key, record, result, ack_payload)``
    Crash replay of an *acknowledged* parent-outbox entry into a fresh
    worker: adopt the result verbatim (no execution), re-log the
    dispatch record (marked ``restored``) and the completion record so
    collect-time partials stay complete.  Reply: ``("restored",)``.
``("ack", key, t_end, completions)``
    Fire-and-forget: the serve loop processed this dispatch's
    completion; log it for the metrics merge.  No reply.
``("replay_budget", n)``
    Fire-and-forget, sent at respawn: the next ``n`` executed dispatches
    are crash replays of unacknowledged entries and are logged with
    ``reexecuted=True``.  No reply.
``("ping",)``
    Heartbeat.  Reply: ``("pong", worker_id, dispatches_executed)``.
``("collect",)``
    Reply: ``("partials", WorkerPartial)`` -- dispatch/completion logs,
    outbox counters, and the process-private plan-cache snapshot.
``("stop",)``
    Exit the loop (no reply).

Replies per connection are FIFO in request order, which is all the
parent's pipelined send-then-collect round needs.
"""

from __future__ import annotations

from typing import Any

from .records import CompletionRecord, DispatchRecord, WorkerPartial


def _make_record(worker_id: int, key, request, epoch: int, nbytes: float,
                 outcome, *, restored: bool = False,
                 reexecuted: bool = False) -> DispatchRecord:
    makespan, timeline, degraded, faults, warnings = outcome
    return DispatchRecord(
        batch_idx=request.batch_idx, epoch=epoch, lane=request.lane,
        worker=worker_id, tenant=key.tenant, key_token=key.token,
        query_fingerprint=key.query_fingerprint, size=len(request.batch),
        nbytes=nbytes, makespan=makespan, degraded=degraded, faults=faults,
        warnings=warnings, restored=restored, reexecuted=reexecuted)


def worker_main(conn, worker_id: int, device, config) -> None:
    """Entry point of one worker process."""
    from ..serve.dispatch import DispatchEngine, simulate_dispatch

    engine = DispatchEngine(device, config)

    outbox: dict[Any, Any] = {}   # key -> outcome (worker-local idempotency)
    outbox_hits = 0
    dispatches: list[DispatchRecord] = []
    completions: list[CompletionRecord] = []
    events_simulated = 0
    executed = 0
    replay_budget = 0  # dispatches still counted as crash re-executions

    conn.send(("ready", worker_id))

    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        kind = msg[0]

        if kind == "dispatch":
            _, key, request, epoch, nbytes = msg
            if key in outbox:
                outbox_hits += 1
                conn.send(("result", outbox[key], True))
                continue
            outcome = simulate_dispatch(engine, request)
            executed += 1
            reexec = replay_budget > 0
            if reexec:
                replay_budget -= 1
            outbox[key] = outcome
            dispatches.append(_make_record(
                worker_id, key, request, epoch, nbytes, outcome,
                reexecuted=reexec))
            events_simulated += len(outcome[1].events)
            conn.send(("result", outcome, False))

        elif kind == "restore":
            _, key, record, result, ack_payload = msg
            outbox[key] = result
            dispatches.append(record)
            if ack_payload is not None:
                t_end, comps = ack_payload
                completions.append(
                    CompletionRecord(t_end, key.sequence, tuple(comps)))
            conn.send(("restored",))

        elif kind == "replay_budget":
            # the parent is about to re-dispatch N unacked entries of the
            # crashed predecessor; log those executions as re-executions
            replay_budget += msg[1]

        elif kind == "ack":
            _, key, t_end, comps = msg
            completions.append(
                CompletionRecord(t_end, key.sequence, tuple(comps)))

        elif kind == "ping":
            conn.send(("pong", worker_id, executed))

        elif kind == "collect":
            cache = config.plan_cache
            conn.send(("partials", WorkerPartial(
                worker=worker_id,
                dispatches=list(dispatches),
                completions=list(completions),
                outbox_entries=len(outbox),
                outbox_hits=outbox_hits,
                events_simulated=events_simulated,
                plan_cache=cache.stats() if cache is not None else None,
            )))

        elif kind == "stop":
            break

        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"worker {worker_id}: unknown message {kind!r}")

    conn.close()


__all__ = ["worker_main"]
