"""One-batch dispatch simulation, extracted from the serve loop.

The serving loop in :mod:`repro.serve.server` decides *what* to dispatch
and *when*; this module owns *how* a formed batch turns into a simulated
timeline.  The split matters for the worker-pool backend
(:mod:`repro.workers`): a dispatch outcome is a pure function of

    (batch plans + row stats, batch index, serve config, lane device)

with no dependence on serve-loop history -- the content-addressed serve
plan cache (PR 7) replays cached outcomes regardless of what ran before,
and CI gates that replay byte-identical.  Purity is what lets any worker
process simulate any dispatch and return exactly the bytes the in-process
path would have produced.

:class:`DispatchEngine` carries the per-process simulation state (lane
device spec, per-lane WorkloadSchedulers and Stream Pools, the
process-private plan cache); :func:`simulate_dispatch` is the pure entry
point workers and the in-process server share.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultError
from ..faults import FaultPlan
from ..runtime.executor import Executor
from ..runtime.workload import QueryWorkload, WorkloadScheduler
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import Timeline
from ..streampool import StreamPool
from .arrivals import QueryRequest

#: (makespan, frozen timeline, degraded, faults observed, analysis warnings)
DispatchOutcome = tuple[float, Timeline, bool, int, int]


@dataclass(frozen=True)
class DispatchRequest:
    """One formed batch awaiting simulation: the unit the serve loop hands
    to a dispatch backend (in-process engine or worker pool)."""

    batch: tuple[QueryRequest, ...]
    batch_idx: int
    lane: int = 0

    @property
    def tenant(self) -> str:
        """Routing tenant: the batch head's tenant (the batch scheduler
        pops the head first, so this is stable for a given queue state)."""
        return self.batch[0].tenant


class DispatchEngine:
    """Simulates dispatches on one process's copy of the device lanes.

    Owns everything a dispatch needs and nothing the serve loop needs:
    the (possibly host-contended) lane device, one WorkloadScheduler and
    Stream Pool per lane, and the optional plan cache.  The cache is
    **process-private** (see :class:`repro.optimizer.plancache.PlanCache`):
    worker processes each hold their own copy, and pooled hit-rates must
    be combined with ``PlanCache.merge_stats``, never by summing ratios.
    """

    def __init__(self, device: DeviceSpec, config) -> None:
        self.device = device
        self.config = config
        from ..cluster.host import contended_device
        self.lane_device = contended_device(device, config.devices)
        from ..optimizer.fingerprint import calibration_fingerprint
        self._lane_device_fp = calibration_fingerprint(self.lane_device)
        self._wscheds = [
            WorkloadScheduler(self.lane_device, check=config.check,
                              analyze=config.analyze)
            for _ in range(config.devices)]
        self._pools: list[StreamPool | None] = [None] * config.devices

    # ------------------------------------------------------------------
    def dispatch(self, batch: list[QueryRequest], batch_idx: int,
                 lane: int = 0) -> DispatchOutcome:
        """Run one batch on device lane ``lane``; returns (makespan,
        timeline, degraded, faults, analysis warnings), its timeline
        frozen."""
        cfg = self.config
        fault_plan = (cfg.faults.reseeded(batch_idx)
                      if cfg.faults is not None else None)
        cache_key = None
        if cfg.plan_cache is not None:
            cache_key = self.dispatch_key(batch, fault_plan)
            hit = cfg.plan_cache.get(cache_key)
            if hit is not None:
                # repeat batch: the priced dispatch replays verbatim --
                # no planning, no analysis, no simulation
                return hit
        wsched = self._wscheds[lane]
        wsched.faults = fault_plan
        plans = [r.plan() for r in batch]
        warnings = 0
        if cfg.analyze:
            # plan lints before dispatch: error findings abort the batch
            # (the batched path additionally race-checks its stream program
            # inside run_batched_streams)
            from ..analyze import Analyzer
            report = Analyzer(self.lane_device).run_all(plans)
            report.raise_if_errors()
            warnings = len(report.warnings)
        workload = QueryWorkload(plans=plans)
        rows: dict[str, int] = {}
        for req in batch:
            for name, n in req.source_rows().items():
                rows[name] = max(rows.get(name, 0), n)
        try:
            if cfg.mode == "batched":
                if self._pools[lane] is None:
                    self._pools[lane] = StreamPool(
                        self.lane_device, num_streams=1 + cfg.max_streams,
                        engine=wsched._engine())
                else:
                    self._pools[lane].reset()
                result = wsched.run_batched_streams(
                    workload, rows, pool=self._pools[lane],
                    max_streams=cfg.max_streams)
            else:
                result = wsched.run_isolated(workload, rows)
        except FaultError:
            if self._pools[lane] is not None:
                self._pools[lane].reset()
            # a fault-poisoned batch is never cached: pinning the degraded
            # timeline would replay the failure for every repeat query
            return self.dispatch_degraded(batch, fault_plan, warnings)
        faults_seen = sum(
            1 for ev in result.timeline.events if ev.tag.startswith("fault."))
        # frozen: the outcome is cached and replayed on every repeat batch
        out = (result.makespan, result.timeline.freeze(), False, faults_seen,
               warnings)
        if cache_key is not None:
            cfg.plan_cache.put(cache_key, out)
        return out

    def dispatch_key(self, batch: list[QueryRequest],
                     fault_plan: FaultPlan | None) -> str:
        """Content address of one dispatch: the batch's plans and row
        stats + serve knobs + lane-device calibration (+ the reseeded
        fault plan when chaos is on, which keys each batch uniquely --
        deliberately: a faulted schedule must not stand in for a clean
        one)."""
        cfg = self.config
        return cfg.plan_cache.key(
            "serve", cfg.mode, cfg.max_streams, cfg.memory_safety,
            cfg.check, cfg.analyze, self._lane_device_fp,
            tuple(r.fingerprint() for r in batch), fault_plan)

    def dispatch_degraded(self, batch: list[QueryRequest],
                          fault_plan: FaultPlan | None,
                          warnings: int = 0) -> DispatchOutcome:
        """Re-dispatch a fault-poisoned batch query-by-query through the
        Executor's degradation ladder (terminal rung cannot fault)."""
        timeline = Timeline()
        faults_seen = 0
        for req in batch:
            ex = Executor(self.lane_device, check=self.config.check,
                          faults=fault_plan, degrade=True)
            r = ex.run(req.plan(), req.source_rows())
            timeline.extend(r.timeline, offset=timeline.end_time)
            faults_seen += r.faults_injected
        return timeline.end_time, timeline.freeze(), True, faults_seen, warnings

    # -- backend interface -------------------------------------------------
    def execute_round(self, assignments: list[DispatchRequest],
                      epoch: int) -> list[DispatchOutcome]:
        """Simulate one scheduling round's batches, in assignment order.

        The in-process backend runs them sequentially; the worker pool
        overrides this to fan the round out across processes.  Either way
        the outcomes come back in assignment order and the serve loop
        applies bookkeeping identically, which is what keeps pooled and
        in-process summaries byte-identical.
        """
        return [simulate_dispatch(self, a) for a in assignments]

    def acknowledge(self, batch_idx: int, t_end: float,
                    completions: list[tuple[str, float, bool]]) -> None:
        """Completion callback (no-op in process; the pool uses it to ack
        outbox entries and ship per-worker completion records)."""

    def close(self) -> dict:
        """Release backend resources; returns backend stats (empty here)."""
        return {}


def batch_fingerprint(batch: "list[QueryRequest] | tuple[QueryRequest, ...]"
                      ) -> str:
    """Content hash of a batch's query plans and row stats, independent of
    serve knobs: the ``query_fingerprint`` component of the worker pool's
    idempotent dispatch key (docs/SERVING.md)."""
    from ..optimizer.fingerprint import digest
    return digest(tuple(r.fingerprint() for r in batch))


def simulate_dispatch(engine: DispatchEngine,
                      request: DispatchRequest) -> DispatchOutcome:
    """Simulate one dispatch: the pure function both backends share.

    Given the same ``DispatchRequest`` and an equivalently-configured
    engine (same config, same device calibration), this returns the same
    outcome in any process -- the determinism contract the worker pool's
    idempotent replay relies on (docs/SERVING.md).
    """
    return engine.dispatch(list(request.batch), request.batch_idx,
                           request.lane)


__all__ = [
    "DispatchEngine", "DispatchOutcome", "DispatchRequest",
    "batch_fingerprint", "simulate_dispatch",
]
