"""Plain records shipped between pool, workers, and the merge/sanitizer.

Everything here crosses a process boundary (pickled over pipes), so it is
deliberately dumb data: frozen dataclasses of scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatch as a worker logged it (the merge's dispatch-side row)."""

    batch_idx: int
    epoch: int
    lane: int
    worker: int
    tenant: str
    key_token: str
    query_fingerprint: str
    #: queries in the batch
    size: int
    #: estimated working-set bytes (the lane bookkeeping signal)
    nbytes: float
    makespan: float
    degraded: bool
    faults: int
    warnings: int
    #: entry was restored into a respawned worker from the parent outbox
    #: (not executed by this worker)
    restored: bool = False
    #: entry was re-executed by a respawned worker (crash replay of an
    #: unacknowledged entry; dispatch purity makes the outcome identical)
    reexecuted: bool = False


@dataclass(frozen=True)
class CompletionRecord:
    """One acknowledged batch completion: the merge's completion-side row.

    ``(t_end, batch_idx)`` is the master loop's completion-processing order;
    replaying records in that order (completions within a record keep
    their list order) reproduces the master's latency-sample ordering
    exactly, floats and all.
    """

    t_end: float
    batch_idx: int
    #: (tenant, latency_s, within_deadline) per query, in batch order
    completions: tuple[tuple[str, float, bool], ...]


@dataclass
class WorkerPartial:
    """Everything one worker hands back at collect time."""

    worker: int
    dispatches: list[DispatchRecord] = field(default_factory=list)
    completions: list[CompletionRecord] = field(default_factory=list)
    #: worker-local outbox size and duplicate hits (the idempotency proof)
    outbox_entries: int = 0
    outbox_hits: int = 0
    #: timeline events across every dispatch this worker simulated
    events_simulated: int = 0
    #: the worker's process-private plan-cache snapshot (None when serving
    #: without a cache); pooled rates merge via ``PlanCache.merge_stats``
    plan_cache: dict | None = None


@dataclass(frozen=True)
class RespawnEvent:
    """One crash-recovery episode, as the pool recorded it."""

    worker: int
    #: acked entries restored verbatim (no re-execution)
    restored: int
    #: unacked entries re-dispatched (re-executed; purity => same bytes)
    redispatched: int
    #: entries the parent outbox held for the dead worker at respawn time
    #: (restored + redispatched should cover it; a shortfall is the
    #: SRV603 "replay gap")
    expected: int


__all__ = ["CompletionRecord", "DispatchRecord", "RespawnEvent",
           "WorkerPartial"]
