"""The warm worker pool: multi-process dispatch backend for the server.

Implements the dispatch-backend interface of :class:`repro.serve.dispatch
.DispatchEngine` (``execute_round`` / ``acknowledge`` / ``close``) over a
set of long-lived worker processes.  The serve loop in the parent keeps
doing everything it did -- arrivals, admission, batching, completion
bookkeeping, metrics -- and only the *simulation* of each dispatch moves
into a worker.  Because a dispatch outcome is a pure function of its
request (see :mod:`repro.serve.dispatch`), moving it between processes
cannot change a single byte of the summary.

Life of a dispatch::

    execute_round(assignments, epoch)
      key    = DispatchKey(seed, tenant, batch_fingerprint, batch_idx)
      dup?   -> outbox.lookup(key) hit: recorded result, no execution
      route  -> TenantRouter (epoch-pinned; hash or least-bytes)
      probe  -> chaos worker-kill site "worker.<w>" (pool's own injector)
      send   -> ("dispatch", key, request, epoch, nbytes)   [pipelined]
      collect-> ("result", outcome, hit) in order; outbox.record
    acknowledge(batch_idx, ...)
      outbox.ack + ("ack", ...) to the owning worker (completion log)

Crash recovery (chaos ``worker_kill``, ``--kill-worker``, or a real
pipe EOF): the pool drains the worker's outstanding replies where it
can, SIGKILLs it, spawns a fresh warm process, **restores** every acked
outbox entry verbatim (no re-execution), and **re-dispatches** every
unacknowledged one -- purity makes the re-run byte-identical, so the
summary converges to the no-kill run's bytes.

Determinism: worker kills are probed by a *separate* injector built from
``config.faults.reseeded(_POOL_SEED_OFFSET)``, one probe per routed
dispatch -- the per-batch engine injectors inside workers see exactly the
probe sequences the in-process path sees, so chaos serve summaries stay
byte-identical across worker counts.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque

from ..faults import FaultInjector
from .outbox import DispatchKey, ResultOutbox
from .records import RespawnEvent, WorkerPartial
from .router import TenantRouter
from .worker import _make_record, worker_main

#: reseed offset separating the pool's worker-kill injector from the
#: per-batch engine injectors (which reseed with the batch index)
_POOL_SEED_OFFSET = 10 ** 6


class WorkerPool:
    """Owns the worker processes and the exactly-once dispatch machinery."""

    def __init__(self, device, config, kill_worker: "int | None" = None):
        self.device = device
        self.config = config
        self.num_workers = config.workers
        self.seed = config.pool_seed
        self.router = TenantRouter(config.workers,
                                   mode=config.worker_rebalance,
                                   seed=config.pool_seed)
        self.outbox = ResultOutbox()
        self._kill_injector = (
            FaultInjector(config.faults.reseeded(_POOL_SEED_OFFSET))
            if config.faults is not None and config.faults.enabled else None)
        #: --kill-worker: deterministically kill this worker once, at its
        #: second dispatch (so there is an outbox to replay)
        self._kill_worker = kill_worker
        self._kill_done = False

        self._ctx = mp.get_context("fork")
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._conns: dict = {}
        #: keys sent to each worker and not yet answered (FIFO per pipe)
        self._awaiting: dict[int, deque] = {
            w: deque() for w in range(config.workers)}
        self._sent = {w: 0 for w in range(config.workers)}
        #: key -> (request, epoch, nbytes): everything needed to re-send
        #: or restore a dispatch (kept for the whole run)
        self._requests: dict[DispatchKey, tuple] = {}
        self._key_by_bidx: dict[int, DispatchKey] = {}

        self.warm_ms: dict[int, float] = {}
        self.kills = 0
        self.respawn_events: list[RespawnEvent] = []
        self.partials: list[WorkerPartial] = []
        self._closed = False
        self._stats: dict = {}

        for w in range(config.workers):
            self._spawn(w)

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main, args=(child_conn, w, self.device,
                                      self.config),
            name=f"repro-worker-{w}", daemon=True)
        t0 = time.perf_counter()
        proc.start()
        child_conn.close()
        ready = parent_conn.recv()
        if ready != ("ready", w):  # pragma: no cover - protocol bug
            raise RuntimeError(f"worker {w}: bad handshake {ready!r}")
        # first spawn only: respawns are crash recovery, not warm-up
        self.warm_ms.setdefault(w, (time.perf_counter() - t0) * 1e3)
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def kill(self, w: int) -> None:
        """SIGKILL worker `w` and immediately recover (respawn + replay)."""
        # settle outstanding replies first so the kill lands between
        # dispatches -- keeps replay counts deterministic run-to-run
        self._drain(w)
        self.kills += 1
        proc = self._procs[w]
        proc.kill()
        proc.join()
        self._conns[w].close()
        self._respawn(w)

    def _respawn(self, w: int) -> None:
        """Fresh warm process for slot `w`, replaying its outbox: acked
        entries restored verbatim, unacked entries re-dispatched."""
        inflight = list(self._awaiting[w])
        self._awaiting[w].clear()
        owned = list(self.outbox.for_worker(w))
        self._spawn(w)
        conn = self._conns[w]
        restored = 0
        redispatch = []
        for entry in owned:  # outbox insertion order == dispatch order
            request, epoch, nbytes = self._requests[entry.key]
            if entry.acked:
                record = _make_record(w, entry.key, request, epoch, nbytes,
                                      entry.result, restored=True)
                conn.send(("restore", entry.key, record, entry.result,
                           entry.ack_payload))
                if conn.recv() != ("restored",):  # pragma: no cover
                    raise RuntimeError(f"worker {w}: restore failed")
                self.outbox.note_replay(entry.key, w)
                restored += 1
            else:
                redispatch.append(entry)
        if redispatch:
            conn.send(("replay_budget", len(redispatch)))
            for entry in redispatch:
                request, epoch, nbytes = self._requests[entry.key]
                conn.send(("dispatch", entry.key, request, epoch, nbytes))
                self._awaiting[w].append(entry.key)
        # in-flight sends that never produced a recorded result: first
        # executions, re-sent as plain dispatches
        for key in inflight:
            request, epoch, nbytes = self._requests[key]
            conn.send(("dispatch", key, request, epoch, nbytes))
            self._awaiting[w].append(key)
        self.respawn_events.append(
            RespawnEvent(worker=w, restored=restored,
                         redispatched=len(redispatch), expected=len(owned)))

    def _ensure_alive(self, w: int) -> None:
        if not self._procs[w].is_alive():
            self.kills += 1
            self._conns[w].close()
            self._respawn(w)

    # -- wire helpers ------------------------------------------------------
    def _pump(self, w: int) -> None:
        """Receive one reply from worker `w` and fulfil its oldest
        outstanding dispatch.  A dead pipe triggers crash recovery (the
        re-sent dispatches are answered by the fresh process)."""
        try:
            msg = self._conns[w].recv()
        except (EOFError, OSError):
            self._ensure_alive(w)
            return
        kind, outcome, _hit = msg
        if kind != "result":  # pragma: no cover - protocol bug
            raise RuntimeError(f"worker {w}: unexpected reply {kind!r}")
        key = self._awaiting[w].popleft()
        if key in self.outbox.entries:
            # crash replay of a recorded entry: purity guarantees the
            # bytes; just note the replay
            self.outbox.note_replay(key, w)
        else:
            self.outbox.record(key, outcome, w)

    def _drain(self, w: int) -> None:
        while self._awaiting[w]:
            self._pump(w)

    def _probe_kill(self, w: int) -> None:
        """One worker-kill probe per routed dispatch (chaos), plus the
        deterministic --kill-worker trigger."""
        chaos = (self._kill_injector.worker_kill(f"worker.{w}")
                 if self._kill_injector is not None else False)
        manual = (self._kill_worker == w and not self._kill_done
                  and self._sent[w] >= 1)
        if manual:
            self._kill_done = True
        if chaos or manual:
            self.kill(w)

    # -- backend interface -------------------------------------------------
    def execute_round(self, assignments, epoch: int):
        """Fan one scheduling round out across the pool; outcomes return
        in assignment order (what keeps summaries byte-identical)."""
        from ..serve.dispatch import batch_fingerprint
        from ..serve.scheduler import request_footprint

        outcomes = [None] * len(assignments)
        to_send = []
        for idx, a in enumerate(assignments):
            key = DispatchKey(self.seed, a.tenant,
                              batch_fingerprint(a.batch), a.batch_idx)
            entry = self.outbox.lookup(key)
            if entry is not None:
                # duplicate (retried) dispatch: recorded result, no
                # routing, no execution
                outcomes[idx] = entry.result
                continue
            nbytes = float(sum(request_footprint(r) for r in a.batch))
            w = self.router.route(a.tenant, epoch, nbytes, a.batch_idx)
            self._requests[key] = (a, epoch, nbytes)
            self._key_by_bidx[a.batch_idx] = key
            to_send.append((idx, key, w))
        for idx, key, w in to_send:
            self._probe_kill(w)
            self._ensure_alive(w)
            request, epoch_, nbytes = self._requests[key]
            self._conns[w].send(("dispatch", key, request, epoch_, nbytes))
            self._awaiting[w].append(key)
            self._sent[w] += 1
        for idx, key, w in to_send:
            while key not in self.outbox.entries:
                self._pump(w)
            outcomes[idx] = self.outbox.entries[key].result
        return outcomes

    def acknowledge(self, batch_idx: int, t_end: float,
                    completions) -> None:
        """The serve loop processed this dispatch's completion: ack the
        outbox entry and ship the completion record to the owning worker."""
        key = self._key_by_bidx[batch_idx]
        payload = (t_end, tuple(completions))
        entry = self.outbox.ack(key, payload)
        _request, _epoch, nbytes = self._requests[key]
        self.router.note_ack(entry.worker, nbytes)
        try:
            self._conns[entry.worker].send(
                ("ack", key, t_end, tuple(completions)))
        except (BrokenPipeError, OSError):  # pragma: no cover - real crash
            pass  # next dispatch to this worker recovers; restore
            # re-injects the completion from entry.ack_payload

    def heartbeat(self) -> dict:
        """Ping every worker; returns {worker: executed-dispatch count}
        (None for a worker found dead -- it is respawned on the spot)."""
        out: dict[int, "int | None"] = {}
        for w in sorted(self._conns):
            self._drain(w)
            try:
                self._conns[w].send(("ping",))
                reply = self._conns[w].recv()
                out[w] = reply[2]
            except (EOFError, OSError, BrokenPipeError):
                out[w] = None
                self._ensure_alive(w)
        return out

    def close(self) -> dict:
        """Collect per-worker partials, stop the processes, and return the
        pool's flat stats.  Idempotent."""
        if self._closed:
            return self._stats
        self._closed = True
        self.partials = []
        for w in sorted(self._conns):
            self._drain(w)
            try:
                self._conns[w].send(("collect",))
                reply = self._conns[w].recv()
                self.partials.append(reply[1])
                self._conns[w].send(("stop",))
            except (EOFError, OSError, BrokenPipeError):
                # a worker dead at shutdown: its shard of the report is
                # lost (the sanitizer will say so); the run's summary came
                # from the master loop and is unaffected
                pass
        for w, proc in self._procs.items():
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join()
            self._conns[w].close()
        self._stats = {
            "pool.workers": self.num_workers,
            "pool.rebalance": self.config.worker_rebalance,
            "pool.kills": self.kills,
            "pool.respawns": len(self.respawn_events),
            "pool.worker_outbox_hits": sum(
                p.outbox_hits for p in self.partials),
            "pool.events_simulated": sum(
                p.events_simulated for p in self.partials),
            **self.outbox.counters(),
        }
        return self._stats

    def __del__(self):  # pragma: no cover - safety net
        try:
            if not self._closed:
                for proc in self._procs.values():
                    if proc.is_alive():
                        proc.kill()
        except Exception:
            pass


__all__ = ["WorkerPool"]
