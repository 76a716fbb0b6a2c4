"""Warm worker-pool serving: multi-process scale-out for the query server.

``ServeConfig(workers=N)`` (CLI: ``repro serve --workers N``) moves
dispatch simulation into N long-lived worker processes, each owning its
simulated device lanes and a process-private plan cache.  Tenants
shard across workers deterministically; every dispatch is idempotent
(keyed on ``(seed, tenant, query_fingerprint, sequence)``) with a
result outbox, so retries and crash replays never re-execute; and
the merged cross-worker metrics are byte-identical to the single-process
path at the same seed.  See docs/SERVING.md, "Worker pools".
"""

from .merge import (PoolReport, admission_partial, build_pool_report,
                    merge_metrics, worker_metrics)
from .outbox import DispatchKey, OutboxEntry, ResultOutbox
from .pool import WorkerPool
from .records import (CompletionRecord, DispatchRecord, RespawnEvent,
                      WorkerPartial)
from .router import Assignment, TenantRouter, route_tenant

__all__ = [
    "Assignment",
    "CompletionRecord",
    "DispatchKey",
    "DispatchRecord",
    "OutboxEntry",
    "PoolReport",
    "RespawnEvent",
    "ResultOutbox",
    "TenantRouter",
    "WorkerPartial",
    "WorkerPool",
    "admission_partial",
    "build_pool_report",
    "merge_metrics",
    "route_tenant",
    "worker_metrics",
]
