"""Cross-query workloads: fusing operators *across* queries (SS III-A).

"In data warehousing applications, there are opportunities to apply kernel
fusion across queries since RA operators from different queries can be
fused."

A :class:`QueryWorkload` holds several plans that read the same base
tables.  Merging them into one combined plan makes the shared sources
explicit; shared-scan groups (Fig 2(c)) then appear wherever different
queries filter the same table, and the scan cost is paid once.  The
scheduler compares three regimes:

* **isolated** -- each query executed on its own (input re-uploaded and
  re-scanned per query);
* **shared-source** -- one upload, per-query kernels;
* **cross-query fused** -- one upload, shared-scan kernels for the
  SELECT groups + per-query remainders;
* **batched streams** -- the serving-path variant of cross-query fusion:
  one upload + shared-scan kernels on a lead stream, then each query's
  remaining kernels issued to its own Stream-Pool stream so independent
  remainders overlap on the SM pool (used by :mod:`repro.serve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.fusion import Region
from ..core.multifusion import (
    chain_for_shared_scan,
    find_shared_select_groups,
    split_group_by_registers,
)
from ..errors import PlanError
from ..faults import as_injector
from ..plans.plan import OpType, Plan, PlanNode, derive
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine, SimStream
from ..simgpu.timeline import Timeline
from .executor import LoweredRegion, emit_region
from .sizes import estimate_sizes, node_bytes
from .strategies import STAGING_MEMORY


@dataclass
class QueryWorkload:
    """Several single-chain queries over shared source tables."""

    plans: list[Plan]

    def __post_init__(self):
        if not self.plans:
            raise PlanError("workload needs at least one query")
        for p in self.plans:
            p.validate()

    def merged_plan(self) -> Plan:
        """One plan containing every query, with same-named sources
        merged; query ``qi``'s other nodes are named ``q{qi}.<name>``."""
        nodes: list[PlanNode] = []
        shared: dict[str, PlanNode] = {}
        dropped: dict[PlanNode, PlanNode] = {}
        for qi, plan in enumerate(self.plans):
            # rename a copy per query: a batch may hold one plan twice
            query = derive(plan.name, plan.topological(), {
                n: {"name": f"q{qi}.{n.name}"} for n in plan.nodes
                if n.op is not OpType.SOURCE})
            for node in query.nodes:
                if node.op is OpType.SOURCE:
                    first = shared.setdefault(node.name, node)
                    if first is not node:
                        dropped[node] = first
                        continue
                nodes.append(node)
        merged = derive("workload", nodes, aliases=dropped)
        merged.validate()
        return merged


@dataclass
class WorkloadRunResult:
    mode: str
    timeline: Timeline
    input_bytes: float

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def throughput(self) -> float:
        return self.input_bytes / self.makespan if self.makespan else 0.0


class WorkloadScheduler:
    """Times a workload under the three sharing regimes.

    ``check=True`` sanitizes every timeline the scheduler produces;
    ``faults`` (a :class:`~repro.faults.FaultPlan` or injector) makes every
    engine it drives consult the injector, so serving-path batches degrade
    or raise typed :class:`~repro.errors.FaultError` like the Executor does.
    A :class:`FaultPlan` yields a fresh injector per regime run, keeping
    each run independently deterministic.
    """

    def __init__(self, device: DeviceSpec | None = None,
                 check: bool = False, faults=None,
                 analyze: bool = False):
        self.device = device or DeviceSpec()
        self.check = check
        self.faults = faults
        #: static pre-flight: race-check each batched stream program before
        #: it runs; error findings raise :class:`~repro.errors.AnalysisError`
        self.analyze = analyze

    def _engine(self) -> SimEngine:
        return SimEngine(self.device, check=self.check,
                         faults=as_injector(self.faults))

    # -- helpers ----------------------------------------------------------
    def _emit_query_kernels(self, stream, nodes: Iterable[PlanNode],
                            sizes: dict[str, int],
                            skip: set[str] = frozenset()) -> None:
        """Queue the kernel of every non-source, non-fused node of `nodes`
        (in topological order) onto `stream` (a :class:`SimStream` or
        pooled stream), one region per node."""
        for node in nodes:
            if node.op is OpType.SOURCE or node.name in skip:
                continue
            emit_region(stream, LoweredRegion.of(Region([node]), sizes),
                        self.device, sizes)

    def _upload(self, stream, plan: Plan,
                sizes: dict[str, int]) -> float:
        total = 0.0
        for src in plan.sources():
            nbytes = node_bytes(src, sizes)
            total += nbytes
            if nbytes > 0:
                stream.h2d(nbytes, STAGING_MEMORY, tag=f"input.{src.name}",
                           writes=(src.name,))
        return total

    # -- regimes -------------------------------------------------------------
    def run_isolated(self, workload: QueryWorkload,
                     source_rows: dict[str, int]) -> WorkloadRunResult:
        """Each query uploads and scans its own copy of the inputs."""
        stream = SimStream(stream_id=0)
        total = 0.0
        for plan in workload.plans:
            sizes = estimate_sizes(plan, source_rows)
            total += self._upload(stream, plan, sizes)
            self._emit_query_kernels(stream, plan.topological(), sizes)
        tl = self._engine().run([stream])
        return WorkloadRunResult("isolated", tl, total)

    def run_shared_source(self, workload: QueryWorkload,
                          source_rows: dict[str, int]) -> WorkloadRunResult:
        """One upload of the shared tables; per-query kernels unchanged."""
        merged = workload.merged_plan()
        sizes = estimate_sizes(merged, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, merged, sizes)
        self._emit_query_kernels(stream, merged.topological(), sizes)
        tl = self._engine().run([stream])
        return WorkloadRunResult("shared_source", tl, total)

    def _emit_shared_scans(self, stream, merged: Plan,
                           sizes: dict[str, int]) -> set[str]:
        """Queue the shared-scan kernels for every multi-query SELECT group;
        returns the names of the SELECT nodes they cover."""
        fused_names: set[str] = set()
        for raw_group in find_shared_select_groups(merged):
            for group in split_group_by_registers(raw_group):
                if len(group.selects) < 2:
                    continue  # singleton remainder: leave to the per-query path
                select_names = tuple(s.name for s in group.selects)
                emit_region(stream, LoweredRegion(
                    Region(list(group.selects)), chain_for_shared_scan(group),
                    sizes[group.producer.name], group.producer,
                    side_inputs=(), writes=select_names), self.device, sizes)
                fused_names.update(select_names)
        return fused_names

    def run_cross_query_fused(self, workload: QueryWorkload,
                              source_rows: dict[str, int]) -> WorkloadRunResult:
        """Shared upload + shared-scan kernels for SELECT groups."""
        merged = workload.merged_plan()
        sizes = estimate_sizes(merged, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, merged, sizes)
        fused_names = self._emit_shared_scans(stream, merged, sizes)
        self._emit_query_kernels(stream, merged.topological(), sizes,
                                 skip=fused_names)
        tl = self._engine().run([stream])
        return WorkloadRunResult("cross_query_fused", tl, total)

    def run_batched_streams(self, workload: QueryWorkload,
                            source_rows: dict[str, int],
                            pool=None, max_streams: int = 4
                            ) -> WorkloadRunResult:
        """The serving path's batch dispatch (see :mod:`repro.serve`).

        One lead stream uploads the shared tables and runs the shared-scan
        kernels; each query's remaining kernels then run on a Stream-Pool
        stream of their own, gated on the lead stream via ``selectWait``,
        so independent per-query remainders overlap on the SM pool.

        An injected fault past the retry budget escapes as a typed
        :class:`~repro.errors.FaultError`; the caller (the serve-layer
        dispatcher) recovers by :meth:`~repro.streampool.StreamPool.reset`
        and a degraded re-dispatch.
        """
        pool, total = self.enqueue_batched_streams(
            workload, source_rows, pool=pool, max_streams=max_streams)
        if self.analyze:
            # static pre-flight: race-check the stream program before it
            # runs (lazy import keeps runtime -> analyze one-directional)
            from ..analyze import Analyzer
            Analyzer(self.device).run(
                pool, unit="batched_streams", strict=True)
        tl = pool.wait_all()
        return WorkloadRunResult("batched_streams", tl, total)

    def enqueue_batched_streams(self, workload: QueryWorkload,
                                source_rows: dict[str, int],
                                pool=None, max_streams: int = 4):
        """Build (but do not run) the batched-streams program.

        Returns ``(pool, uploaded_bytes)`` with every command enqueued:
        what :meth:`run_batched_streams` hands to the engine, and what the
        static analyzer's stream race detector inspects.
        """
        from ..streampool import StreamPool

        merged = workload.merged_plan()
        sizes = estimate_sizes(merged, source_rows)
        n_workers = max(1, min(max_streams, len(workload.plans)))
        if pool is None:
            pool = StreamPool(self.device, num_streams=1 + n_workers,
                              engine=self._engine())
        else:
            # serving reuses one pool across batches; refresh the engine so
            # each batch gets its own deterministic injector state
            pool.engine = self._engine()

        lead = pool.get_available_stream()
        total = self._upload(lead, merged, sizes)
        fused_names = self._emit_shared_scans(lead, merged, sizes)

        workers = [pool.get_available_stream() for _ in range(n_workers)]
        for w in workers:
            if w is not lead:
                pool.select_wait(w, lead)
        # one walk buckets the merged plan's nodes by query (every
        # non-source node is named ``q{qi}.<name>``, see merged_plan)
        by_query: list[list[PlanNode]] = [[] for _ in workload.plans]
        for node in merged.topological():
            if node.op is not OpType.SOURCE:
                by_query[int(node.name[1:node.name.index(".")])].append(node)
        for qi, nodes in enumerate(by_query):
            self._emit_query_kernels(workers[qi % n_workers], nodes, sizes,
                                     skip=fused_names)
        return pool, total

    def compare(self, workload: QueryWorkload, source_rows: dict[str, int]
                ) -> dict[str, WorkloadRunResult]:
        return {
            "isolated": self.run_isolated(workload, source_rows),
            "shared_source": self.run_shared_source(workload, source_rows),
            "cross_query_fused": self.run_cross_query_fused(workload, source_rows),
        }
