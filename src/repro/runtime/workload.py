"""Cross-query workloads: fusing operators *across* queries (SS III-A).

"In data warehousing applications, there are opportunities to apply kernel
fusion across queries since RA operators from different queries can be
fused."

A :class:`QueryWorkload` holds several plans that read the same base
tables.  Merging them into one combined plan makes the shared sources
explicit (:meth:`QueryWorkload.merged_plan`, the functional definition);
shared-scan groups (Fig 2(c)) then appear wherever different queries
filter the same table, and the scan cost is paid once.  The scheduler
compares three regimes:

* **isolated** -- each query executed on its own (input re-uploaded and
  re-scanned per query);
* **shared-source** -- one upload, per-query kernels;
* **cross-query fused** -- one upload, shared-scan kernels for the
  SELECT groups + per-query remainders;
* **batched streams** -- the serving-path variant of cross-query fusion:
  one upload + shared-scan kernels on a lead stream, then each query's
  remaining kernels issued to its own Stream-Pool stream so independent
  remainders overlap on the SM pool (used by :mod:`repro.serve`).

Every regime assembles its stream program from per-query programs
(:class:`QueryProgram`) without building the merged plan.  A query's
program -- its lowered kernels, sizes and SELECT consumers -- depends only
on the plan, its batch position, the shared sources it reads and the
device, so it is kept on the frozen plan (:meth:`~repro.plans.plan.Plan.memo`)
and a serving cache miss replays it instead of re-lowering the query.
The assembly gives the same commands, in the same order, as lowering the
merged plan node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.fusion import Region
from ..core.multifusion import (
    SharedScanGroup,
    chain_for_shared_scan,
    split_group_by_registers,
)
from ..core.opmodels import out_row_nbytes
from ..errors import PlanError
from ..faults import as_injector
from ..plans.plan import OpType, Plan, PlanNode, derive
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine, SimStream
from ..simgpu.timeline import Timeline
from .executor import (KernelCommandSpec, LoweredRegion, emit_region,
                       enqueue_commands, region_commands)
from .sizes import estimate_node_sizes, node_bytes, source_node_rows
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


#: what a query's program depends on besides its plan: each source it
#: reads, in the plan's dependency order, as (name, row width, rows) of
#: the batch's first-seen source of that name
SourceSignature = tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class QueryProgram:
    """One query's lowered stream program at one batch position.

    Node names carry the position's ``q{qi}.`` prefix (none for an
    isolated run); sources keep their names and stand in for the batch's
    first-seen source of that name, at its width.  Shared by every batch
    that holds the query at that position over the same sources, so no
    caller may mutate it.
    """

    #: the query's sources, in dependency order
    sources: tuple[PlanNode, ...]
    #: output rows of every node, keyed by (prefixed) node name
    sizes: dict[str, int]
    #: per non-source node, in dependency order: its name and the kernels
    #: it queues (build kernels first)
    steps: tuple[tuple[str, tuple[KernelCommandSpec, ...]], ...]
    #: in dependency order, every source and every other node a SELECT
    #: reads, with the SELECTs reading it
    scans: tuple[tuple[PlanNode, tuple[PlanNode, ...]], ...]


def lower_query(plan: Plan, qi: int | None, signature: SourceSignature,
                device: DeviceSpec) -> QueryProgram:
    """Lower `plan` at batch position `qi` (None: unprefixed) over the
    sources `signature` describes, one region per node: what
    :meth:`WorkloadScheduler.query_program` memoizes on the plan."""
    prefix = "" if qi is None else f"q{qi}."
    widths = {name: width for name, width, _ in signature}
    copies: dict[PlanNode, PlanNode] = {}
    for node in plan.topological():
        copies[node] = (
            replace(node, out_row_nbytes=widths[node.name])
            if node.op is OpType.SOURCE else
            replace(node, name=prefix + node.name,
                    inputs=tuple(copies[i] for i in node.inputs)))
    nodes = list(copies.values())
    sizes = estimate_node_sizes(
        nodes, {name: rows for name, _, rows in signature})
    steps = tuple(
        (node.name, tuple(region_commands(
            LoweredRegion.of(Region([node]), sizes), device, sizes)))
        for node in nodes if node.op is not OpType.SOURCE)
    selects: dict[PlanNode, list[PlanNode]] = {}
    for node in nodes:
        if node.op is OpType.SELECT:
            selects.setdefault(node.inputs[0], []).append(node)
    scans = tuple((node, tuple(selects.get(node, ()))) for node in nodes
                  if node.op is OpType.SOURCE or node in selects)
    return QueryProgram(
        tuple(n for n in nodes if n.op is OpType.SOURCE), sizes, steps, scans)


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
    def query_program(self, plan: Plan, qi: int | None,
                      source_rows: dict[str, int],
                      first_seen: dict[str, tuple[int, int]]) -> QueryProgram:
        """`plan`'s program at batch position `qi` on this device, kept on
        the plan.  `first_seen` maps each source name the batch has read so
        far to its (row width, rows); the plan's new sources join it."""
        signature = []
        for node in plan.topological():
            if node.op is OpType.SOURCE:
                shape = first_seen.get(node.name)
                if shape is None:
                    shape = first_seen[node.name] = (
                        out_row_nbytes(node),
                        source_node_rows(node, source_rows))
                signature.append((node.name, *shape))
        return plan.memo(lower_query, qi, tuple(signature), self.device)

    def _batch(self, workload: QueryWorkload, source_rows: dict[str, int]
               ) -> tuple[list[QueryProgram], list[PlanNode], dict[str, int]]:
        """The batch's per-query programs, its shared sources (first seen
        in query, then dependency order) and its size map."""
        first_seen: dict[str, tuple[int, int]] = {}
        programs = [self.query_program(plan, qi, source_rows, first_seen)
                    for qi, plan in enumerate(workload.plans)]
        sources: dict[str, PlanNode] = {}
        sizes: dict[str, int] = {}
        for program in programs:
            sizes.update(program.sizes)
            for src in program.sources:
                sources.setdefault(src.name, src)
        return programs, list(sources.values()), sizes

    def _upload(self, stream, sources: list[PlanNode],
                sizes: dict[str, int]) -> float:
        total = 0.0
        for src in sources:
            nbytes = node_bytes(src, sizes)
            total += nbytes
            if nbytes > 0:
                stream.h2d(nbytes, STAGING_MEMORY, tag=f"input.{src.name}",
                           writes=(src.name,))
        return total

    def _emit_shared_scans(self, stream, programs: list[QueryProgram],
                           sizes: dict[str, int]) -> set[str]:
        """Queue the shared-scan kernels for every SELECT group (the
        SELECTs of every query reading one node, in query order); returns
        the names of the SELECT nodes they cover."""
        groups: dict[str, tuple[PlanNode, list[PlanNode]]] = {}
        for program in programs:
            for producer, selects in program.scans:
                groups.setdefault(producer.name, (producer, []))[1].extend(
                    selects)
        fused_names: set[str] = set()
        for producer, selects in groups.values():
            if len(selects) < 2:
                continue
            raw_group = SharedScanGroup(producer, tuple(selects))
            for group in split_group_by_registers(raw_group):
                if len(group.selects) < 2:
                    continue  # singleton remainder: leave to the per-query path
                select_names = tuple(s.name for s in group.selects)
                emit_region(stream, LoweredRegion(
                    Region(list(group.selects)), chain_for_shared_scan(group),
                    sizes[producer.name], producer,
                    side_inputs=(), writes=select_names), self.device, sizes)
                fused_names.update(select_names)
        return fused_names

    @staticmethod
    def _replay(stream, program: QueryProgram,
                skip: set[str] = frozenset()) -> None:
        """Queue the kernels of every node of `program` not in `skip`."""
        for name, commands in program.steps:
            if name not in skip:
                enqueue_commands(stream, commands)

    # -- regimes -------------------------------------------------------------
    def run_isolated(self, workload: QueryWorkload,
                     source_rows: dict[str, int]) -> WorkloadRunResult:
        """Each query uploads and scans its own copy of the inputs."""
        stream = SimStream(stream_id=0)
        total = 0.0
        for plan in workload.plans:
            program = self.query_program(plan, None, source_rows, {})
            total += self._upload(stream, plan.sources(), program.sizes)
            self._replay(stream, program)
        tl = self._engine().run([stream])
        return WorkloadRunResult("isolated", tl, total)

    def run_shared_source(self, workload: QueryWorkload,
                          source_rows: dict[str, int]) -> WorkloadRunResult:
        """One upload of the shared tables; per-query kernels unchanged."""
        programs, sources, sizes = self._batch(workload, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, sources, sizes)
        for program in programs:
            self._replay(stream, program)
        tl = self._engine().run([stream])
        return WorkloadRunResult("shared_source", tl, total)

    def run_cross_query_fused(self, workload: QueryWorkload,
                              source_rows: dict[str, int]) -> WorkloadRunResult:
        """Shared upload + shared-scan kernels for SELECT groups."""
        programs, sources, sizes = self._batch(workload, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, sources, sizes)
        fused_names = self._emit_shared_scans(stream, programs, sizes)
        for program in programs:
            self._replay(stream, program, skip=fused_names)
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

        programs, sources, sizes = self._batch(workload, source_rows)
        n_workers = max(1, min(max_streams, len(workload.plans)))
        if pool is None:
            pool = StreamPool(self.device, num_streams=1 + n_workers,
                              engine=self._engine())
        else:
            # serving reuses one pool across batches; refresh the engine so
            # each batch gets its own deterministic injector state
            pool.engine = self._engine()

        lead = pool.get_available_stream()
        total = self._upload(lead, sources, sizes)
        fused_names = self._emit_shared_scans(lead, programs, sizes)

        workers = [pool.get_available_stream() for _ in range(n_workers)]
        for w in workers:
            if w is not lead:
                pool.select_wait(w, lead)
        for qi, program in enumerate(programs):
            self._replay(workers[qi % n_workers], program, skip=fused_names)
        return pool, total

    def compare(self, workload: QueryWorkload, source_rows: dict[str, int]
                ) -> dict[str, WorkloadRunResult]:
        return {
            "isolated": self.run_isolated(workload, source_rows),
            "shared_source": self.run_shared_source(workload, source_rows),
            "cross_query_fused": self.run_cross_query_fused(workload, source_rows),
        }
