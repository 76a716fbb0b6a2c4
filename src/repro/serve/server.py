"""The serving loop: a discrete-event simulation over simulated time.

One loop serves every device count.  ``ServeConfig.devices`` lanes share
one host: each lane runs one dispatch at a time (the batch itself may fan
out over streams internally) on a
:func:`~repro.cluster.host.contended_device` spec -- the same
shared-host staging model as the cluster executor, and the plain device
when there is one lane -- with its own WorkloadScheduler and Stream Pool.
The admission queue and batch scheduler are shared.  The clock moves to
every arrival and every batch completion, and at each such event the
loop runs, in order:

1. **ingest** -- arrivals up to "now" go through admission (bounded queue,
   backpressure shedding);
2. **complete** -- in-flight batches that ended by "now" pop off a
   time-ordered heap; every query in a batch finishes at its dispatch
   time + makespan, and latencies, SLO hits, and closed-loop follow-ups
   are recorded;
3. **expire** -- queued queries whose deadline already passed are shed
   rather than wasting device time;
4. **dispatch** -- while a lane is idle, the batch scheduler forms a
   memory-fitting same-table group and routes it to the idle lane with
   the **least outstanding dispatched bytes** (ties to the lowest device
   id); ``batched`` mode sends it down the cross-query shared-scan path
   on the Stream Pool, ``isolated`` mode runs the head query alone.

Because the clock stops at arrivals while a batch runs, expiry and
admission see the queue as it is at each arrival, not only when a lane
frees up.  With more than one lane, per-lane counters land in
``ServeMetrics.per_device`` (``device.<i>.*`` summary keys); a
single-device summary has none.

Fault-aware serving: with a chaos plan configured, batch ``k`` runs under
the plan reseeded with ``k``.  A fault that survives the engine's retry
budget poisons only its batch: the Stream Pool is reset and the batch
re-dispatched query-by-query through the Executor's degradation
ladder (whose last rung, the host baseline, cannot fault), so the server
never dies -- the batch just runs degraded and the metrics say so.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..faults import FaultPlan
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import Timeline
from .admission import AdmissionController, AdmissionDecision
from .arrivals import ArrivalProcess, QueryRequest
from .dispatch import DispatchEngine, DispatchRequest
from .metrics import ServeMetrics
from .queue import BoundedPriorityQueue
from .scheduler import BatchScheduler, request_footprint


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serve run (all deterministic)."""

    #: "batched" (shared-scan groups on the Stream Pool) or "isolated"
    #: (one query per dispatch, own upload)
    mode: str = "batched"
    queue_capacity: int = 64
    max_batch: int = 8
    #: Stream-Pool worker streams per batch dispatch
    max_streams: int = 4
    #: fraction of device memory the batch working set may claim
    memory_safety: float = 0.8
    #: margin on predicted wait before backpressure shedding (see
    #: :class:`~repro.serve.admission.AdmissionController`)
    backpressure_slack: float = 1.0
    #: strict mode: sanitize every batch timeline (docs/VALIDATION.md)
    check: bool = False
    #: static pre-flight (docs/ANALYSIS.md): lint every batch's plans and
    #: race-check the batched stream program before dispatch; error
    #: findings raise :class:`~repro.errors.AnalysisError` (aborting the
    #: dispatch), warnings are counted in the metrics
    analyze: bool = False
    #: shed queries the abstract interpreter proves cannot fit the lane
    #: device (MEM701 certain-OOM under serial residency at this config's
    #: ``memory_safety``) instead of dispatching them; counted in
    #: ``ServeMetrics.shed_unsafe``.  Default off
    shed_unsafe: bool = False
    #: chaos plan; batch ``k`` runs under ``faults.reseeded(k)``
    faults: FaultPlan | None = None
    #: device lanes sharing one host (1 = the classic serial server)
    devices: int = 1
    #: content-addressed dispatch cache
    #: (:class:`repro.optimizer.plancache.PlanCache`): a repeat batch --
    #: same plans, same stats, same platform -- skips planning, analysis,
    #: and simulation entirely and replays the priced result.  The cache
    #: is process-private: with ``workers > 1`` each worker holds its own
    #: copy (pooled hit-rates merge via ``PlanCache.merge_stats``)
    plan_cache: object | None = None
    #: warm worker processes simulating dispatches (docs/SERVING.md,
    #: "Worker pools"); 1 = simulate in-process.  The pool changes *where*
    #: dispatches are simulated, never *what* they compute: summaries are
    #: byte-identical across worker counts at the same seed
    workers: int = 1
    #: tenant->worker routing: "hash" (stable blake2b of the tenant id) or
    #: "least-bytes" (epoch-pinned least-outstanding-bytes rebalancing)
    worker_rebalance: str = "hash"
    #: seed component of the pool's idempotent dispatch keys
    pool_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("batched", "isolated"):
            raise ValueError(f"unknown serve mode {self.mode!r}")
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.worker_rebalance not in ("hash", "least-bytes"):
            raise ValueError(
                f"unknown worker_rebalance {self.worker_rebalance!r}")


@dataclass
class RequestRecord:
    """Final disposition of one offered query."""

    request: QueryRequest
    #: completed | missed_deadline | shed_queue_full | shed_backpressure |
    #: shed_expired | shed_unsafe
    status: str
    completion_s: float | None = None

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.request.arrival_s


@dataclass
class ServeResult:
    config: ServeConfig
    metrics: ServeMetrics
    records: list[RequestRecord]
    #: (dispatch time, batch timeline) per dispatch, for tracing
    segments: list[tuple[float, Timeline]] = field(default_factory=list)
    #: device lane of each segment (parallel to ``segments``; all zeros
    #: for single-device runs)
    segment_devices: list[int] = field(default_factory=list)

    def merged_timeline(self) -> Timeline:
        """All batch timelines on one clock (for the trace exporter)."""
        merged = Timeline()
        for t0, tl in self.segments:
            merged.extend(tl, offset=t0)
        return merged

    def device_timelines(self) -> dict[int, Timeline]:
        """Per-lane merged timelines on the shared clock (one trace lane
        group per device, like the cluster executor's)."""
        out: dict[int, Timeline] = {
            d: Timeline() for d in range(self.config.devices)}
        for dev, (t0, tl) in zip(self.segment_devices, self.segments):
            out[dev].extend(tl, offset=t0)
        return out


class QueryServer:
    """Serves an arrival trace on the simulated device."""

    def __init__(self, device: DeviceSpec | None = None,
                 config: ServeConfig = ServeConfig(),
                 kill_worker: int | None = None):
        self.device = device or DeviceSpec()
        self.config = config
        self.engine = DispatchEngine(self.device, config)
        if config.workers > 1:
            from ..workers import WorkerPool
            self._backend = WorkerPool(self.device, config,
                                       kill_worker=kill_worker)
        else:
            self._backend = self.engine
        #: stats returned by the backend at close (worker-pool report
        #: material; empty for the in-process backend)
        self.backend_stats: dict = {}

    @property
    def lane_device(self) -> DeviceSpec:
        return self.engine.lane_device

    @property
    def pool(self):
        """The WorkerPool backend, or None for in-process serving."""
        return self._backend if self._backend is not self.engine else None

    def close(self) -> dict:
        """Shut the dispatch backend down (terminates pool workers) and
        return its final stats."""
        self.backend_stats = self._backend.close()
        return self.backend_stats

    # ------------------------------------------------------------------
    def run(self, trace: list[QueryRequest] | None = None,
            arrivals: ArrivalProcess | None = None) -> ServeResult:
        """Serve `trace` (or `arrivals`' trace) to completion.

        Passing an explicit `trace` fixes the offered load exactly, so two
        runs differing only in scheduling policy are comparable
        query-for-query; `arrivals` additionally enables closed-loop
        feedback for tenants that model it.
        """
        if trace is None:
            if arrivals is None:
                raise ValueError("need a trace or an ArrivalProcess")
            trace = arrivals.trace()
        cfg = self.config
        lanes = range(cfg.devices)
        #: min-heap of not-yet-arrived requests (closed-loop feedback
        #: inserts into the future)
        pending: list[tuple[float, int, QueryRequest]] = [
            (r.arrival_s, r.req_id, r) for r in trace]
        heapq.heapify(pending)
        queue = BoundedPriorityQueue(cfg.queue_capacity)
        admission = AdmissionController(queue, slack=cfg.backpressure_slack)
        scheduler = BatchScheduler(
            self.lane_device, max_batch=cfg.max_batch,
            memory_safety=cfg.memory_safety, batching=cfg.mode == "batched")
        metrics = ServeMetrics().with_lanes(cfg.devices)
        records: list[RequestRecord] = []
        segments: list[tuple[float, Timeline]] = []
        segment_devices: list[int] = []

        def respond(req: QueryRequest, t: float) -> None:
            """Closed-loop feedback: any response (result or shed) lets the
            client think and issue its next query."""
            if arrivals is None:
                return
            nxt = arrivals.on_completion(req, t)
            if nxt is not None:
                heapq.heappush(pending, (nxt.arrival_s, nxt.req_id, nxt))

        #: lane bookkeeping: when each device frees up, and how many
        #: estimated batch bytes it still has in flight (routing signal)
        busy_until = {dev: 0.0 for dev in lanes}
        outstanding = {dev: 0.0 for dev in lanes}
        #: min-heap of running batches: (t_end, batch_idx, lane, batch,
        #: bytes); batch indices are issued in dispatch order, so ties on
        #: t_end complete first-dispatched first
        inflight: list[tuple[float, int, int, list[QueryRequest], float]] = []

        now = 0.0
        batch_idx = 0
        epoch = 0
        last_end = 0.0
        while pending or len(queue) or inflight:
            # 1. ingest: every arrival up to now goes through admission
            while pending and pending[0][0] <= now:
                req = heapq.heappop(pending)[2]
                metrics.offered += 1
                decision = admission.offer(req, req.arrival_s)
                if decision is AdmissionDecision.ADMITTED:
                    metrics.admitted += 1
                elif decision is AdmissionDecision.SHED_QUEUE_FULL:
                    metrics.shed_queue_full += 1
                    records.append(RequestRecord(req, "shed_queue_full"))
                    respond(req, req.arrival_s)
                else:
                    metrics.shed_backpressure += 1
                    records.append(RequestRecord(req, "shed_backpressure"))
                    respond(req, req.arrival_s)
            # 2. complete: batches that finished by now
            while inflight and inflight[0][0] <= now:
                t_end, bidx, dev, batch, nbytes = heapq.heappop(inflight)
                outstanding[dev] -= nbytes
                last_end = max(last_end, t_end)
                completions: list[tuple[str, float, bool]] = []
                for req in batch:
                    ok = t_end <= req.deadline_s
                    metrics.record_completion(
                        req.tenant, t_end - req.arrival_s, ok)
                    records.append(RequestRecord(
                        req, "completed" if ok else "missed_deadline",
                        t_end))
                    completions.append((req.tenant, t_end - req.arrival_s, ok))
                    respond(req, t_end)
                self._backend.acknowledge(bidx, t_end, completions)
            # 3. expire: queued queries past their deadline are shed
            for req in queue.drop_expired(now):
                metrics.shed_expired += 1
                records.append(RequestRecord(req, "shed_expired"))
                respond(req, now)

            # 4. dispatch: form the whole round before executing it.
            # Routing only depends on pre-round lane state (a routed lane
            # leaves `idle`, and `outstanding`/`note_service` updates cannot
            # influence the same round), so deferring execution is
            # outcome-identical and lets the worker-pool backend fan a
            # round out across processes
            idle = [dev for dev in lanes if busy_until[dev] <= now]
            assignments: list[DispatchRequest] = []
            while idle and len(queue):
                batch = scheduler.next_batch(queue, now)
                if not batch:
                    break
                if cfg.shed_unsafe:
                    safe = []
                    for req in batch:
                        if self._statically_unsafe(req):
                            metrics.shed_unsafe += 1
                            records.append(
                                RequestRecord(req, "shed_unsafe"))
                            respond(req, now)
                        else:
                            safe.append(req)
                    batch = safe
                    if not batch:
                        continue
                # least outstanding bytes wins the batch; ties go to the
                # lowest device id
                dev = min(idle, key=lambda d: (outstanding[d], d))
                idle.remove(dev)
                assignments.append(
                    DispatchRequest(tuple(batch), batch_idx, dev))
                batch_idx += 1
            if assignments:
                epoch += 1
                outcomes = self._backend.execute_round(assignments, epoch)
                for a, (makespan, timeline, degraded, faults_seen,
                        warnings) in zip(assignments, outcomes):
                    dev = a.lane
                    batch = list(a.batch)
                    segments.append((now, timeline))
                    segment_devices.append(dev)
                    nbytes = sum(request_footprint(r) for r in batch)
                    metrics.record_dispatch(dev, len(batch), makespan,
                                            degraded, faults_seen, warnings,
                                            nbytes)
                    # the estimator sees per-query service time; with N
                    # lanes the backlog drains N-wide, so the wait a queued
                    # query faces shrinks accordingly
                    admission.note_service(
                        len(batch) * cfg.devices, makespan)
                    t_end = now + makespan
                    busy_until[dev] = t_end
                    outstanding[dev] += nbytes
                    heapq.heappush(
                        inflight, (t_end, a.batch_idx, dev, batch, nbytes))
                continue

            # 5. advance: the clock moves to the next arrival or completion
            horizons = []
            if pending:
                horizons.append(pending[0][0])
            if inflight:
                horizons.append(inflight[0][0])
            if len(queue):
                # queued work but every lane busy: wait for the first
                # completion (inflight must be non-empty here)
                horizons = [h for h in horizons if h > now] or horizons
            if not horizons:
                break  # pragma: no cover - loop guard implies an event
            now = max(now, min(horizons))

        metrics.served_s = last_end if metrics.completed else now
        metrics.check_finite()
        return ServeResult(config=cfg, metrics=metrics, records=records,
                           segments=segments,
                           segment_devices=segment_devices)

    # ------------------------------------------------------------------
    def _statically_unsafe(self, req: QueryRequest) -> bool:
        """Admission-side memory check: True when the abstract interpreter
        proves the request cannot fit the lane device resident (MEM701
        under serial execution at this config's ``memory_safety``).
        Verdicts are memoized per (query kind, elements)."""
        memo = getattr(self, "_unsafe_memo", None)
        if memo is None:
            memo = self._unsafe_memo = {}
        key = (req.kind, req.elements)
        if key not in memo:
            from ..analyze.memory_check import check_strategy
            from ..runtime.strategies import Strategy
            verdict = check_strategy(
                req.plan(), Strategy.SERIAL, req.source_rows(),
                self.lane_device, memory_safety=self.config.memory_safety)
            memo[key] = verdict.certain_oom
        return memo[key]
