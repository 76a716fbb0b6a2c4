"""Memory-aware batch formation over the admission queue.

The scheduler pops the highest-priority request, then pulls every queued
request that shares its *batch key* -- the (name, row width, cardinality)
of its dominant base table -- into the same dispatch, as long as the
batch's estimated device working set stays under the memory budget.
Queries sharing a key read the same upload, so the cross-query shared-scan
path (:meth:`~repro.runtime.workload.WorkloadScheduler.run_batched_streams`)
pays the PCIe transfer and the scan once for the whole batch.

The working-set estimate is deliberately an upper bound (inputs + every
intermediate live at once): admission to a batch must never *create* the
device-OOM chunking regime for co-scheduled queries that would each have
fit alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core.opmodels import out_row_nbytes
from ..plans.plan import OpType
from ..runtime.sizes import estimate_sizes, node_bytes
from ..simgpu.device import DeviceSpec
from .arrivals import QueryRequest, catalog_plan, catalog_rows
from .queue import BoundedPriorityQueue


@lru_cache(maxsize=None)
def _kind_stats(kind: str, elements: int):
    """(batch key, source byte map, intermediate bytes) for a catalog
    query at one scale -- cached, the catalog is small and its plans
    frozen."""
    plan = catalog_plan(kind)
    sizes = estimate_sizes(plan, catalog_rows(kind, elements))
    src_bytes: dict[tuple[str, int, int], float] = {}
    for src in plan.sources():
        key = (src.name, out_row_nbytes(src), sizes[src.name])
        src_bytes[key] = node_bytes(src, sizes)
    driver = max(src_bytes, key=lambda k: (src_bytes[k], k[0]))
    inter = sum(node_bytes(n, sizes)
                for n in plan.topological() if n.op is not OpType.SOURCE)
    return driver, src_bytes, inter


def batch_key(req: QueryRequest) -> tuple[str, int, int]:
    """(table, bytes/row, rows) of the request's dominant base table.

    Requests batch together only when all three match: same-named tables
    with different declared widths or cardinalities (e.g. Q21's 48 B/row
    ``lineitem`` vs Q6's 16 B/row view of it) are *not* merged, since a
    merged plan would share one source node between them.
    """
    return _kind_stats(req.kind, req.elements)[0]


def request_footprint(req: QueryRequest) -> float:
    """Upper-bound device bytes to run the request alone: all source
    uploads plus every intermediate simultaneously live."""
    _, src_bytes, inter = _kind_stats(req.kind, req.elements)
    return sum(src_bytes.values()) + inter


@dataclass
class BatchScheduler:
    """Forms dispatches from the queue under a device-memory budget."""

    device: DeviceSpec
    max_batch: int = 8
    memory_safety: float = 0.8
    #: False degenerates to one-query dispatches (the isolated baseline)
    batching: bool = True

    @property
    def budget_bytes(self) -> float:
        return self.device.global_mem_bytes * self.memory_safety

    def next_batch(self, queue: BoundedPriorityQueue,
                   now: float) -> list[QueryRequest]:
        """Pop the head and co-schedule same-key requests that fit."""
        head = queue.pop()
        if head is None:
            return []
        if not self.batching:
            return [head]
        key = batch_key(head)
        _, src_bytes, inter = _kind_stats(head.kind, head.elements)
        shared: dict[tuple[str, int, int], float] = dict(src_bytes)
        total = sum(shared.values()) + inter
        batch = [head]
        for cand in queue.snapshot():
            if len(batch) >= self.max_batch:
                break
            if batch_key(cand) != key:
                continue
            _, cand_src, cand_inter = _kind_stats(cand.kind, cand.elements)
            marginal = cand_inter + sum(
                b for k, b in cand_src.items() if k not in shared)
            if total + marginal > self.budget_bytes:
                continue
            queue.remove(cand)
            batch.append(cand)
            total += marginal
            shared.update(cand_src)
        return batch
