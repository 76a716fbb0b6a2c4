"""The simulated-device *runtime*: functional execution + memory management.

Where :class:`repro.runtime.executor.Executor` times a plan from
cardinality annotations, this module actually *runs* it: every region
computes its real NumPy result, device memory is tracked byte-accurately
against the 6 GB budget, and when an allocation does not fit the runtime
spills a resident intermediate back to the host and re-uploads it on next
use -- the mechanism that makes *with round trip* a forced baseline in the
paper ("if the intermediate data is larger than the relatively small GPU
memory ... the intermediate data will have to be transferred back to the
CPU", SS III-A).

Because fusion eliminates intermediates, running the same plan fused under
memory pressure causes *fewer* spills -- benefit (a)/(b) of Fig 7, which
`benchmarks/bench_ablation_memory_pressure.py` quantifies.

The runtime ("run it") and the executor ("time it") interpret the same
:class:`~repro.runtime.strategies.Strategy` and, under faults, step down
the same :func:`repro.faults.ladder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.fission import FissionConfig, plan_segments
from ..core.fusion import FusionResult, Region, fuse_plan
from ..core.opmodels import chain_for_region, lower_region
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..cpubase.select import cpu_select_time
from ..errors import DeviceOOMError, FaultError, PlanError
from ..faults import (FaultInjector, FaultPlan, as_injector, ladder,
                      spurious_oom)
from ..plans.interp import _eval_node, evaluate
from ..plans.plan import OpType, Plan, PlanNode
from ..ra.relation import Relation
from ..simgpu.compression import NONE, CompressionScheme
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine, SimStream
from ..simgpu.memory import DeviceMemory
from ..simgpu.pcie import HostMemory
from ..simgpu.timeline import EventKind, Timeline
from ..streampool.pool import StreamPool
from .strategies import CPU_BASELINE, Strategy

#: operators whose rows are independent of one another given their side
#: inputs, so a chain of them can stream segment-by-segment (fission)
STREAMABLE_OPS = frozenset({
    OpType.SELECT, OpType.PROJECT, OpType.ARITH,
    OpType.SEMI_JOIN, OpType.ANTI_JOIN,
})


def _concat_relations(parts: list[Relation]) -> Relation:
    """Row-wise concatenation preserving field order and key (used to
    re-assemble fission segment outputs in segment order)."""
    first = parts[0]
    if len(parts) == 1:
        return first
    cols = {f: np.concatenate([p.column(f) for p in parts])
            for f in first.fields}
    return Relation(cols, key=first.key)


@dataclass
class DeviceBuffer:
    """A relation materialized on the simulated device (or spilled)."""

    name: str
    relation: Relation
    nbytes: int
    handle: int | None = None       # DeviceMemory handle when resident
    refs_remaining: int = 0         # future consumers

    @property
    def resident(self) -> bool:
        return self.handle is not None


@dataclass
class FunctionalRunResult:
    """Functional answers + the simulated timeline that produced them."""

    results: dict[str, Relation]
    timeline: Timeline
    fusion: FusionResult
    spill_count: int
    peak_device_bytes: int
    #: strategy that actually produced the answers (a :class:`Strategy`
    #: or ``CPU_BASELINE``), and -- when the fault ladder had to step
    #: down -- its label, as in :attr:`RunResult.degraded_to`
    strategy: Strategy | str = Strategy.FUSED
    degraded_to: str | None = None
    #: injector counters (zero when fault injection is off)
    faults_injected: int = 0
    retries: int = 0
    reissues: int = 0

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def roundtrip_time(self) -> float:
        return self.timeline.total_time(tag_prefix="spill")


class GpuRuntime:
    """Executes plans functionally on the simulated device.

    Parameters
    ----------
    device:
        The simulated GPU (its ``global_mem_bytes`` bounds residency).
    strategy:
        A :class:`Strategy` or ``CPU_BASELINE``.  SERIAL / FUSED run the
        resident path (intermediates stay on device, spilled only under
        pressure) unfused / fused; FISSION / FUSED_FISSION run the
        segmented pipeline over pooled streams; WITH_ROUND_TRIP runs the
        resident path unfused with every intermediate eagerly staged to
        the host; ``CPU_BASELINE`` runs the host interpreter.  All
        produce identical tuples; only the simulated schedule differs.
    memory_limit:
        Override the device-memory budget (for memory-pressure studies).
    faults:
        A :class:`~repro.faults.FaultPlan` (or shared injector) the
        simulated engine honors; see docs/FAULTS.md.
    degrade:
        Fall back down :func:`repro.faults.ladder` when repeated OOM /
        exhausted retries defeat the current strategy.  ``None`` =
        degrade iff fault injection is enabled.
    compression:
        The PCIe codec, by the rule the Executor's
        ``ExecutionConfig.compression`` follows too: every source upload
        of the resident path (including fission's resident fallback)
        ships compressed and pays a decompress kernel; spills and the
        fission pipeline's uploads ship raw bytes.
    """

    def __init__(self, device: DeviceSpec | None = None,
                 strategy: Strategy | str = Strategy.FUSED,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 memory_limit: int | None = None,
                 host_memory: HostMemory = HostMemory.PINNED,
                 faults: "FaultPlan | FaultInjector | None" = None,
                 degrade: bool | None = None,
                 compression: CompressionScheme = NONE,
                 fission: FissionConfig = FissionConfig()):
        self.device = device or DeviceSpec()
        ladder(strategy)  # validates the strategy
        self.strategy = strategy
        self.costs = costs
        self.memory = DeviceMemory(
            capacity=memory_limit if memory_limit is not None
            else self.device.global_mem_bytes)
        self.host_memory = host_memory
        self.faults = faults
        self.degrade = degrade
        self.compression = compression
        self.fission = fission

    # ------------------------------------------------------------------
    def run(self, plan: Plan, sources: dict[str, Relation]
            ) -> FunctionalRunResult:
        plan.validate()
        injector = as_injector(self.faults)
        degrade = self.degrade if self.degrade is not None else injector is not None
        steps = ladder(self.strategy) if degrade else (self.strategy,)
        last_err: Exception | None = None
        for step in steps:
            try:
                result = self._run_step(step, plan, sources, injector)
            except (DeviceOOMError, FaultError) as err:
                last_err = err
                continue
            result.strategy = step
            if step != self.strategy:
                result.degraded_to = step if isinstance(step, str) else step.value
            if injector is not None:
                result.faults_injected = injector.faults_injected
                result.retries = injector.retries
                result.reissues = injector.reissues
            return result
        assert last_err is not None
        raise last_err

    def _run_step(self, step: Strategy | str, plan: Plan,
                  sources: dict[str, Relation],
                  injector: FaultInjector | None) -> FunctionalRunResult:
        if step == CPU_BASELINE:
            return self._run_cpubase(plan, sources, injector)
        if step.uses_fission:
            return self._run_fission(plan, sources, injector, step.uses_fusion)
        return self._run_resident(
            plan, sources, injector, step.uses_fusion,
            eager_spill=step is Strategy.WITH_ROUND_TRIP)

    # -- resident (SERIAL / FUSED / WITH_ROUND_TRIP) ---------------------
    def _run_resident(self, plan: Plan, sources: dict[str, Relation],
                      injector: FaultInjector | None, fuse: bool,
                      eager_spill: bool = False) -> FunctionalRunResult:
        self.memory.reset()
        fusion = fuse_plan(plan, enable=fuse)

        stream = SimStream(stream_id=0)
        buffers: dict[str, DeviceBuffer] = {}
        node_results: dict[str, Relation] = {}
        spills = 0

        consumer_counts = self._consumer_counts(plan)

        # upload sources
        for src in plan.sources():
            if src.name not in sources:
                raise PlanError(f"no relation bound for source {src.name!r}")
            rel = sources[src.name]
            node_results[src.name] = rel
            buf = DeviceBuffer(src.name, rel, rel.nbytes,
                               refs_remaining=consumer_counts.get(src.name, 0))
            if injector is not None:
                spurious_oom(injector, f"alloc.{src.name}",
                             self.memory.capacity)
            spills += self._make_room(buf.nbytes, buffers, stream)
            buf.handle = self.memory.alloc(buf.nbytes, src.name)
            if buf.nbytes > 0:
                rows = max(1, rel.num_rows)
                self.compression.upload(
                    stream, buf.nbytes, rows, max(1, buf.nbytes // rows),
                    self.host_memory, self.device, tag=src.name)
            buffers[src.name] = buf
        sink_names = {n.name for n in plan.sinks()}

        # execute regions in order
        for region in fusion.regions:
            self._ensure_inputs_resident(region, buffers, stream)
            out_rel = self._evaluate_region(region, node_results, sources)
            out_name = region.output_node.name
            node_results[out_name] = out_rel

            pinned = {inp.name for node in region.nodes for inp in node.inputs}
            buf = DeviceBuffer(out_name, out_rel, out_rel.nbytes,
                               refs_remaining=consumer_counts.get(out_name, 0))
            try:
                if injector is not None:
                    # an injected allocator hiccup on the output lands in
                    # the spill path below, same as a genuine OOM
                    spurious_oom(injector, f"alloc.{out_name}",
                                 self.memory.capacity)
                spills += self._make_room(buf.nbytes, buffers, stream, pinned)
                if buf.nbytes > 0:
                    buf.handle = self.memory.alloc(buf.nbytes, out_name)
            except DeviceOOMError:
                # the output cannot sit beside the region's (pinned) inputs:
                # stream it to the host as it is produced -- the paper's
                # forced round trip (SS III-A).  A consumer re-uploads it.
                if buf.nbytes > self.memory.capacity:
                    raise
                if buf.nbytes > 0:
                    stream.d2h(buf.nbytes, self.host_memory,
                               tag=f"spill.out.{out_name}")
                    spills += 1
            buffers[out_name] = buf

            self._emit_region_kernels(region, node_results, stream)
            if (eager_spill and buf.resident
                    and out_name not in sink_names):
                # round trip: intermediates never stay resident -- stage
                # each one straight back to the host so the device footprint
                # is one region's inputs + output at a time
                self.memory.free(buf.handle)
                buf.handle = None
                if buf.nbytes > 0:
                    stream.d2h(buf.nbytes, self.host_memory,
                               tag=f"spill.out.{out_name}")
                    spills += 1
            self._release_consumed(region, buffers)

        # download sink results
        results: dict[str, Relation] = {}
        for sink in plan.sinks():
            rel = node_results[sink.name]
            results[sink.name] = rel
            if rel.nbytes > 0:
                stream.d2h(rel.nbytes, self.host_memory,
                           tag=f"output.{sink.name}")

        timeline = SimEngine(self.device, faults=injector).run([stream])
        # count spill round trips from the command log (a spill is a d2h;
        # re-upload is charged when the buffer is touched again)
        spill_events = [e for e in timeline.events if e.tag.startswith("spill")]
        return FunctionalRunResult(
            results=results, timeline=timeline, fusion=fusion,
            spill_count=len([e for e in spill_events
                             if e.kind is EventKind.D2H]),
            peak_device_bytes=self.memory.peak,
        )

    # -- fission (segmented functional pipeline) ------------------------
    def _streamable_chain(self, plan: Plan
                          ) -> tuple[list[PlanNode] | None, PlanNode | None]:
        """The whole plan as one streamable chain, or ``(None, None)``.

        A plan streams when it is a single chain *source -> ops -> sink*
        of :data:`STREAMABLE_OPS` whose side inputs (semi/anti-join build
        sides) are plain sources: those operators treat every row
        independently, so evaluating the chain segment-by-segment and
        concatenating preserves the exact tuples.
        """
        sinks = plan.sinks()
        if len(sinks) != 1:
            return None, None
        chain: list[PlanNode] = []
        node = sinks[0]
        while node.op is not OpType.SOURCE:
            if node.op not in STREAMABLE_OPS or not node.inputs:
                return None, None
            if any(s.op is not OpType.SOURCE for s in node.inputs[1:]):
                return None, None
            chain.append(node)
            node = node.inputs[0]
        driver = node
        chain.reverse()
        if not chain:
            return None, None
        on_chain = ({n.name for n in chain} | {driver.name}
                    | {s.name for n in chain for s in n.inputs[1:]})
        if any(n.name not in on_chain for n in plan.nodes):
            return None, None
        return chain, driver

    def _run_fission(self, plan: Plan, sources: dict[str, Relation],
                     injector: FaultInjector | None, fuse: bool
                     ) -> FunctionalRunResult:
        chain, driver = self._streamable_chain(plan)
        if chain is None:
            # barriers / wide joins cannot stream: resident execution is
            # the in-place fallback for non-streamable shapes
            return self._run_resident(plan, sources, injector, fuse)
        if driver.name not in sources:
            raise PlanError(f"no relation bound for source {driver.name!r}")
        driver_rel = sources[driver.name]
        n_rows = driver_rel.num_rows
        if n_rows == 0:
            return self._run_resident(plan, sources, injector, fuse)

        self.memory.reset()
        fusion = fuse_plan(plan, enable=fuse)
        sink = plan.sinks()[0]
        side_srcs: list[PlanNode] = []
        for node in chain:
            for s in node.inputs[1:]:
                if s.name not in {x.name for x in side_srcs}:
                    if s.name not in sources:
                        raise PlanError(
                            f"no relation bound for source {s.name!r}")
                    side_srcs.append(s)

        engine = SimEngine(self.device, faults=injector)
        pool = StreamPool(self.device, num_streams=self.fission.num_streams,
                          engine=engine)
        row_nbytes = max(1, driver_rel.nbytes // n_rows)
        segments = plan_segments(n_rows, row_nbytes, self.fission)

        # build-side uploads and build kernels run once, before the pipeline
        groups = [chain] if fuse else [[n] for n in chain]
        kchains = [chain_for_region(g, self.costs) for g in groups]
        pre = pool.streams[0]
        for s in side_srcs:
            rel = sources[s.name]
            if rel.nbytes > 0:
                pre.h2d(rel.nbytes, self.host_memory, tag=f"input.{s.name}")
        for kc in kchains:
            side_sizes = {n.name: sources[n.name].num_rows
                          for _, n in kc.side_kernels}
            for spec in kc.side_launch_specs(self.device, side_sizes):
                pre.kernel(spec, tag=spec.name)

        # each segment: slice -> evaluate -> H2D + kernels + D2H on a pooled
        # stream; the real result is recorded by the completion thunk, so
        # answers only exist if the schedule actually finished
        seg_results: dict[int, Relation] = {}
        for seg in segments:
            idx = np.arange(seg.start_row, seg.start_row + seg.n_rows)
            seg_in = driver_rel.take(idx)
            seg_nodes: dict[str, Relation] = {driver.name: seg_in}
            for s in side_srcs:
                seg_nodes[s.name] = sources[s.name]
            rows_in: dict[str, int] = {}
            out = seg_in
            for node in chain:
                rows_in[node.name] = seg_nodes[node.inputs[0].name].num_rows
                out = _eval_node(node, seg_nodes, sources)
                seg_nodes[node.name] = out

            ps = pool.streams[seg.index % pool.num_streams]
            if seg_in.nbytes > 0:
                ps.h2d(seg_in.nbytes, self.host_memory,
                       tag=f"input.{driver.name}.seg{seg.index}")
            for kc, grp in zip(kchains, groups):
                for spec in kc.main_launch_specs(
                        max(rows_in[grp[0].name], 1), self.device):
                    ps.kernel(spec, tag=f"{spec.name}.seg{seg.index}")
            if out.nbytes > 0:
                ps.d2h(out.nbytes, self.host_memory,
                       tag=f"output.{sink.name}.seg{seg.index}")
            last = ps.sim.commands[-1]
            prev = last.thunk

            def record(i=seg.index, r=out, prev=prev):
                if prev is not None:
                    prev()
                seg_results[i] = r

            last.thunk = record

        timeline = pool.wait_all()
        assert all(s.index in seg_results for s in segments)
        out_rel = _concat_relations([seg_results[s.index] for s in segments])

        # the host re-gathers out-of-order segment results (paper SS IV-C)
        gather = out_rel.nbytes / self.costs.host_gather_bw
        if gather > 0:
            t0 = timeline.end_time
            timeline.add(t0, t0 + gather, EventKind.HOST, "cpu_gather",
                         nbytes=out_rel.nbytes)
        return FunctionalRunResult(
            results={sink.name: out_rel}, timeline=timeline, fusion=fusion,
            spill_count=0, peak_device_bytes=self.memory.peak,
        )

    # -- cpubase (host interpreter) --------------------------------------
    def _run_cpubase(self, plan: Plan, sources: dict[str, Relation],
                     injector: FaultInjector | None) -> FunctionalRunResult:
        """Host fallback: the NumPy interpreter computes every node; the
        timeline is a single HOST event timed by the CPU calibration.  No
        device commands remain, so nothing is left to fault (slowdowns may
        still stretch the host event)."""
        self.memory.reset()
        fusion = fuse_plan(plan, enable=False)
        node_results = evaluate(plan, sources)
        duration = 0.0
        for node in plan.nodes:
            if node.op is OpType.SOURCE:
                continue
            prim = node.inputs[0] if node.inputs else node
            rel = node_results[prim.name]
            row = rel.row_nbytes if rel.num_rows else 4
            duration += cpu_select_time(rel.num_rows, max(1, row),
                                        calib=self.device.calib.cpu)
        stream = SimStream(stream_id=0)
        stream.host(duration, tag="cpubase")
        timeline = SimEngine(self.device, faults=injector).run([stream])
        results = {s.name: node_results[s.name] for s in plan.sinks()}
        return FunctionalRunResult(
            results=results, timeline=timeline, fusion=fusion,
            spill_count=0, peak_device_bytes=0,
        )

    # -- memory management ------------------------------------------------
    def _make_room(self, nbytes: int, buffers: dict[str, DeviceBuffer],
                   stream: SimStream, pinned: set[str] | None = None) -> int:
        """Evict resident buffers (largest-first) until `nbytes` fits.

        Buffers named in `pinned` (the running region's inputs) are never
        evicted.  Returns the number of spills performed.  Raises
        DeviceOOMError if the allocation cannot fit even after evicting
        everything evictable.
        """
        pinned = pinned or set()
        if nbytes > self.memory.capacity:
            raise DeviceOOMError(nbytes, self.memory.available,
                                 self.memory.capacity)
        spills = 0
        while not self.memory.fits(nbytes):
            evictable = [b for b in buffers.values()
                         if b.resident and b.name not in pinned]
            candidates = [b for b in evictable if b.refs_remaining > 0]
            # prefer evicting what is still needed *latest*; here: largest
            candidates.sort(key=lambda b: -b.nbytes)
            victims = evictable
            if not victims:
                raise DeviceOOMError(nbytes, self.memory.available,
                                     self.memory.capacity)
            victim = (candidates or victims)[0]
            self.memory.free(victim.handle)
            victim.handle = None
            if victim.refs_remaining > 0:
                # still needed: a true round trip (device -> host now,
                # host -> device on next use)
                stream.d2h(victim.nbytes, self.host_memory,
                           tag=f"spill.out.{victim.name}")
                spills += 1
        return spills

    def _ensure_inputs_resident(self, region: Region,
                                buffers: dict[str, DeviceBuffer],
                                stream: SimStream) -> None:
        for node in region.nodes:
            for inp in node.inputs:
                buf = buffers.get(inp.name)
                if buf is not None and not buf.resident:
                    self._make_room(buf.nbytes, buffers, stream)
                    buf.handle = self.memory.alloc(buf.nbytes, buf.name)
                    if buf.nbytes > 0:
                        stream.h2d(buf.nbytes, self.host_memory,
                                   tag=f"spill.in.{buf.name}")

    def _release_consumed(self, region: Region,
                          buffers: dict[str, DeviceBuffer]) -> None:
        consumed: dict[str, int] = {}
        region_names = {n.name for n in region.nodes}
        for node in region.nodes:
            for inp in node.inputs:
                if inp.name not in region_names:
                    consumed[inp.name] = consumed.get(inp.name, 0) + 1
        for name, times in consumed.items():
            buf = buffers.get(name)
            if buf is None:
                continue
            buf.refs_remaining -= times
            if buf.refs_remaining <= 0 and buf.resident:
                self.memory.free(buf.handle)
                buf.handle = None

    @staticmethod
    def _consumer_counts(plan: Plan) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in plan.nodes:
            for inp in node.inputs:
                counts[inp.name] = counts.get(inp.name, 0) + 1
        for sink in plan.sinks():
            counts[sink.name] = counts.get(sink.name, 0)
        return counts

    # -- functional + timing per region ----------------------------------
    @staticmethod
    def _evaluate_region(region: Region, node_results: dict[str, Relation],
                         sources: dict[str, Relation]) -> Relation:
        out: Relation | None = None
        for node in region.nodes:
            out = _eval_node(node, node_results, sources)
            node_results[node.name] = out
        assert out is not None
        return out

    def _emit_region_kernels(self, region: Region,
                             node_results: dict[str, Relation],
                             stream: SimStream) -> None:
        first = region.nodes[0]
        primary = first.inputs[0] if first.inputs else first
        n_in = node_results[primary.name].num_rows
        chain = lower_region(region, self.costs, n_in)
        side_sizes = {
            n.name: node_results[n.name].num_rows
            for _, n in chain.side_kernels
        }
        for spec in chain.side_launch_specs(self.device, side_sizes):
            stream.kernel(spec, tag=spec.name)
        for spec in chain.main_launch_specs(max(n_in, 1), self.device):
            stream.kernel(spec, tag=spec.name)
