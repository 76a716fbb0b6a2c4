"""Cross-worker metrics merge and the pool report.

The master serve loop keeps its own :class:`~repro.serve.metrics
.ServeMetrics` while it runs (admission happens in the parent; the pool
only simulates dispatches), so the merge here is not how the summary is
*produced* -- it is how the summary is *proved*.  Each worker logs the
dispatch and completion records it owns; :func:`merge_metrics` rebuilds a
full ServeMetrics from those logs alone (plus the parent's admission-side
counters, which no worker ever sees) and the pool report asserts the
rebuilt summary is **byte-identical** to the master's.

Byte-identity needs the float operations replayed in the master's order:

* dispatch-side counters (``busy_s``, per-lane sums, batch sizes) apply
  in ``batch_idx`` order -- the order the serve loop applied them;
* completion-side samples replay in ``(t_end, batch_idx)`` order -- exactly
  the serve loop's completion-processing order (the in-flight heap's pop
  order) -- with each record's per-query completions kept in batch
  order.

Latency percentiles in the merged summary are nearest-rank over the
merged sample set (``LatencyStats`` sorts at percentile time), the same
method the single-process path uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..serve.metrics import ServeMetrics
from .records import (CompletionRecord, DispatchRecord, RespawnEvent,
                      WorkerPartial)
from .router import Assignment


def admission_partial(master: ServeMetrics) -> ServeMetrics:
    """The parent-only side of the metrics: admission counters and the
    served horizon.  Workers never see an offered query that was shed."""
    m = ServeMetrics()
    m.offered = master.offered
    m.admitted = master.admitted
    m.shed_queue_full = master.shed_queue_full
    m.shed_backpressure = master.shed_backpressure
    m.shed_expired = master.shed_expired
    m.shed_unsafe = master.shed_unsafe
    m.served_s = master.served_s
    return m


def _apply_dispatch(m: ServeMetrics, rec: DispatchRecord) -> None:
    m.record_dispatch(rec.lane, rec.size, rec.makespan, rec.degraded,
                      rec.faults, rec.warnings, rec.nbytes)


def _apply_completions(m: ServeMetrics,
                       records: list[CompletionRecord]) -> None:
    for rec in sorted(records, key=lambda r: (r.t_end, r.batch_idx)):
        for tenant, latency_s, ok in rec.completions:
            m.record_completion(tenant, latency_s, ok)


def worker_metrics(partial: WorkerPartial, devices: int) -> ServeMetrics:
    """One worker's shard of the metrics (admission side left zero; the
    parent owns it).  ``served_s`` stays 0, so rate-type deriveds read 0
    in per-worker summaries -- only the merged view has a horizon."""
    m = ServeMetrics().with_lanes(devices)
    for rec in sorted(partial.dispatches, key=lambda r: r.batch_idx):
        _apply_dispatch(m, rec)
    _apply_completions(m, partial.completions)
    return m


def merge_metrics(partials: list[WorkerPartial], master: ServeMetrics,
                  devices: int) -> ServeMetrics:
    """Rebuild the run's full metrics from worker logs + admission side."""
    m = admission_partial(master).with_lanes(devices)
    dispatches = [rec for p in partials for rec in p.dispatches]
    for rec in sorted(dispatches, key=lambda r: r.batch_idx):
        _apply_dispatch(m, rec)
    _apply_completions(
        m, [rec for p in partials for rec in p.completions])
    return m


@dataclass
class PoolReport:
    """Everything the pool knows after a run: the sanitizer's and the
    SRV60x lints' input, and the ``--pool-report`` JSON payload."""

    num_workers: int
    rebalance: str
    #: router decisions in dispatch order
    assignments: list[Assignment]
    #: all workers' dispatch records, sorted by batch_idx
    dispatches: list[DispatchRecord]
    #: parent-outbox conservation counters (``outbox.*``)
    outbox: dict[str, int]
    respawns: list[RespawnEvent] = field(default_factory=list)
    #: workers killed (chaos + --kill-worker)
    kills: int = 0
    #: worker-local duplicate hits, per worker
    worker_outbox_hits: dict[int, int] = field(default_factory=dict)
    #: warm-spawn latency per worker slot, wall-clock ms (never byte-
    #: compared: wall time is not deterministic)
    warm_ms: dict[int, float] = field(default_factory=dict)
    #: pooled plan-cache stats (PlanCache.merge_stats) or None
    plan_cache: dict | None = None
    events_simulated: int = 0
    per_worker_summaries: dict[int, dict] = field(default_factory=dict)
    merged_summary: dict = field(default_factory=dict)
    master_summary: dict = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        """The determinism contract: merged == master, key for key."""
        return self.merged_summary == self.master_summary

    def dispatches_per_worker(self) -> dict[int, int]:
        out = {w: 0 for w in range(self.num_workers)}
        for a in self.assignments:
            out[a.worker] += 1
        return out

    def tenant_workers(self) -> dict[str, set[int]]:
        """Workers each tenant was routed to across the whole run."""
        out: dict[str, set[int]] = {}
        for a in self.assignments:
            out.setdefault(a.tenant, set()).add(a.worker)
        return out

    def to_json(self) -> dict:
        return {
            "workers": self.num_workers,
            "rebalance": self.rebalance,
            "dispatches_per_worker": {
                str(w): n
                for w, n in sorted(self.dispatches_per_worker().items())},
            "tenants": {
                t: sorted(ws)
                for t, ws in sorted(self.tenant_workers().items())},
            "outbox": dict(self.outbox),
            "worker_outbox_hits": {
                str(w): n
                for w, n in sorted(self.worker_outbox_hits.items())},
            "kills": self.kills,
            "respawns": [
                {"worker": r.worker, "restored": r.restored,
                 "redispatched": r.redispatched, "expected": r.expected}
                for r in self.respawns],
            "warm_ms": {str(w): round(ms, 3)
                        for w, ms in sorted(self.warm_ms.items())},
            "plan_cache": self.plan_cache,
            "events_simulated": self.events_simulated,
            "per_worker_metrics": {
                str(w): s
                for w, s in sorted(self.per_worker_summaries.items())},
            "merged_metrics": self.merged_summary,
            "merged_identical_to_master": self.identical,
        }


def build_pool_report(master: ServeMetrics, pool, config) -> PoolReport:
    """Assemble the post-run report from a closed :class:`~repro.workers
    .pool.WorkerPool` and the master loop's metrics."""
    from ..optimizer.plancache import PlanCache

    partials: list[WorkerPartial] = pool.partials
    merged = merge_metrics(partials, master, config.devices)
    cache_parts = [p.plan_cache for p in partials
                   if p.plan_cache is not None]
    return PoolReport(
        num_workers=pool.num_workers,
        rebalance=config.worker_rebalance,
        assignments=list(pool.router.log),
        dispatches=sorted(
            (rec for p in partials for rec in p.dispatches),
            key=lambda r: r.batch_idx),
        outbox=pool.outbox.counters(),
        respawns=list(pool.respawn_events),
        kills=pool.kills,
        worker_outbox_hits={p.worker: p.outbox_hits for p in partials},
        warm_ms=dict(pool.warm_ms),
        plan_cache=(PlanCache.merge_stats(cache_parts)
                    if cache_parts else None),
        events_simulated=sum(p.events_simulated for p in partials),
        per_worker_summaries={
            p.worker: worker_metrics(p, config.devices).summary()
            for p in partials},
        merged_summary=merged.summary(),
        master_summary=master.summary(),
    )


__all__ = [
    "PoolReport", "admission_partial", "build_pool_report",
    "merge_metrics", "worker_metrics",
]
