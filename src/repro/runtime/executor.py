"""The plan executor: runs a logical plan on the simulated platform under a
chosen strategy and returns a timeline + derived metrics.

Responsibilities:

* lower the plan through the fusion pass (or the unfused baseline),
* schedule transfers per strategy (round trips / resident intermediates /
  fission pipelining),
* chunk execution when the working set exceeds the 6 GB device memory
  (the regime of Fig 14 / Fig 16),
* account every simulated event in a :class:`repro.simgpu.timeline.Timeline`.

Sizes come from a :class:`~repro.runtime.sizes.PlanShape`: the plan's
annotations, or one real evaluation when :mod:`repro.runtime.gpu_rt` runs
the same program on observed rows and bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from ..core.fission import Segment, run_fissioned, split_for_fission
from ..core.fusion import FusionResult, Region
from ..core.kernel import KernelChain
from ..core.opmodels import lower_region
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..cpubase.select import host_plan_time
from ..errors import DeviceOOMError, PlanError
from ..faults import (FaultInjector, FaultPlan, as_injector, run_with_ladder,
                      spurious_oom)
from ..plans.plan import OpType, Plan, PlanNode
from ..ra.relation import Relation
from ..simgpu.compute import KernelLaunchSpec
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine, SimStream
from ..simgpu.pcie import HostMemory
from ..simgpu.timeline import EventKind, Timeline
from .sizes import PlanShape, chunk_count, footprint
from .strategies import (CPU_BASELINE, ROUNDTRIP_MEMORY, STAGING_MEMORY,
                         ExecutionConfig, Strategy)


@dataclass
class RunResult:
    """Timeline plus derived metrics of one simulated execution."""

    #: a :class:`Strategy`, or ``CPU_BASELINE`` for the host rung
    strategy: Strategy | str
    timeline: Timeline
    sizes: dict[str, int]
    n_in: int
    n_out: int
    input_bytes: float
    output_bytes: float
    fusion: FusionResult | None = None
    num_chunks: int = 1
    #: executor-side estimates of total bytes each PCIe direction should
    #: move; the schedule sanitizer checks the timeline against these
    expected_h2d_bytes: float | None = None
    expected_d2h_bytes: float | None = None
    #: recovery bookkeeping (populated when fault injection is enabled,
    #: see :mod:`repro.faults`): the strategy actually executed when
    #: repeated faults forced a fallback, and injector counters
    degraded_to: str | None = None
    faults_injected: int = 0
    retries: int = 0
    reissues: int = 0
    #: merged :meth:`~repro.analyze.diagnostics.AnalysisReport.summary`
    #: of the static pre-flight (populated when ``analyze=True``)
    analysis: dict | None = None
    #: a :class:`~repro.runtime.gpu_rt.GpuRuntime` run's sink relations,
    #: its device-memory spills (``spill.*`` transfers) and peak bytes
    results: dict[str, Relation] | None = None
    spill_count: int = 0
    peak_device_bytes: int = 0

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def throughput(self) -> float:
        """Input bytes processed per second of end-to-end simulated time."""
        return self.input_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def compute_time(self) -> float:
        return self.timeline.total_time(EventKind.KERNEL)

    @property
    def io_time(self) -> float:
        """Initial-input + final-output transfer time (serial sum)."""
        return (self.timeline.total_time(tag_prefix="input")
                + self.timeline.total_time(tag_prefix="output"))

    @property
    def roundtrip_time(self) -> float:
        """Time moving intermediate results host<->device: WITH_ROUND_TRIP
        staging plus device-memory spills (serial sum)."""
        return (self.timeline.total_time(tag_prefix="roundtrip")
                + self.timeline.total_time(tag_prefix="spill"))

    def kernel_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for ev in self.timeline.filter(EventKind.KERNEL):
            out[ev.tag] = out.get(ev.tag, 0.0) + ev.duration
        return out


@dataclass
class LoweredRegion:
    """A fusion region lowered to its kernel chain, with the plan-level
    buffers its kernels read.

    Its launch specs are built once per (device, rows) and kept: every
    stream program that queues this region -- a lower bound's and each
    run's -- reads the same frozen specs."""

    region: Region
    chain: KernelChain
    n_in: int
    primary_input: PlanNode
    #: buffers the region consumes besides its primary input
    side_inputs: tuple[str, ...]
    #: buffers the main kernels write (every output of a shared scan)
    writes: tuple[str, ...]
    #: bytes of the region's output (what a sink downloads)
    out_bytes: float = 0.0
    _specs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def of(cls, region: Region, sizes: dict[str, int],
           costs: StageCostParams = DEFAULT_STAGE_COSTS,
           out_bytes: float = 0.0) -> "LoweredRegion":
        first = region.nodes[0]
        primary = first.inputs[0] if first.inputs else first
        n_in = sizes[primary.name]
        in_region = {id(n) for n in region.nodes}
        side: list[str] = []
        for node in region.nodes:
            for inp in node.inputs[1:]:
                if id(inp) not in in_region and inp.name not in side:
                    side.append(inp.name)
        return cls(region, lower_region(region, costs, n_in), n_in, primary,
                   tuple(side), (region.output_node.name,), out_bytes)

    def side_specs(self, device: DeviceSpec, sizes: dict[str, int]
                   ) -> tuple[KernelLaunchSpec, ...]:
        """The build kernels' launch specs, sized by ``sizes``."""
        key = (device, tuple(sizes.get(feed.name, 0)
                             for _, feed in self.chain.side_kernels))
        if key not in self._specs:
            self._specs[key] = tuple(
                self.chain.side_launch_specs(device, sizes))
        return self._specs[key]

    def main_specs(self, n_rows: int, device: DeviceSpec
                   ) -> tuple[KernelLaunchSpec, ...]:
        """The main kernels' launch specs over ``n_rows`` input rows."""
        key = (n_rows, device)
        if key not in self._specs:
            self._specs[key] = tuple(
                self.chain.main_launch_specs(n_rows, device))
        return self._specs[key]


#: one queued kernel: (launch spec, buffers it reads, buffers it writes)
KernelCommandSpec = tuple[KernelLaunchSpec, tuple[str, ...], tuple[str, ...]]


def region_commands(lr: LoweredRegion, device: DeviceSpec,
                    sizes: dict[str, int], build: bool = True,
                    frac: float | None = 1.0) -> list[KernelCommandSpec]:
    """The kernels one lowered region queues, in order.

    The build kernels (when ``build``) read the side inputs and write
    ``<region>.build``.  The main kernels run over ``frac`` of the
    region's input rows, at least one (none when ``frac`` is None); they
    read the primary input plus the build buffer -- or the side inputs
    when there is no build, e.g. a gather join -- and write ``lr.writes``.
    """
    commands: list[KernelCommandSpec] = []
    build_buf = f"{lr.region.name}.build"
    if build:
        for spec in lr.side_specs(device, sizes):
            commands.append((spec, lr.side_inputs, (build_buf,)))
    if frac is None:
        return commands
    reads = (lr.primary_input.name,) + (
        (build_buf,) if lr.chain.side_kernels else lr.side_inputs)
    n_rows = max(1, int(round(lr.n_in * frac)))
    for spec in lr.main_specs(n_rows, device):
        commands.append((spec, reads, lr.writes))
    return commands


def emit_region(stream: SimStream, lr: LoweredRegion, device: DeviceSpec,
                sizes: dict[str, int], build: bool = True,
                frac: float | None = 1.0) -> None:
    """Queue one lowered region's kernels (:func:`region_commands`) onto
    ``stream``."""
    enqueue_commands(stream, region_commands(lr, device, sizes, build, frac))


def enqueue_commands(stream: SimStream,
                     commands: Iterable[KernelCommandSpec]) -> None:
    """Queue ``commands`` onto ``stream``, each tagged by its kernel."""
    for spec, reads, writes in commands:
        stream.kernel(spec, tag=spec.name, reads=reads, writes=writes)


class Executor:
    """Runs plans on a simulated device under an :class:`ExecutionConfig`."""

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 check: bool = False,
                 faults: "FaultPlan | FaultInjector | None" = None,
                 degrade: bool | None = None,
                 analyze: bool = False):
        self.device = device or DeviceSpec()
        self.costs = costs
        #: strict mode: sanitize every schedule this executor produces and
        #: raise ScheduleInvariantError at the first violation
        self.check = check
        #: static pre-flight (see :mod:`repro.analyze`): lint the plan,
        #: verify fusion legality, and race-check the serial stream program
        #: before dispatch; error findings raise AnalysisError
        self.analyze = analyze
        self._analysis_reports: list = []
        #: fault-injection plan/injector honored by every simulated engine
        #: this executor drives (see :mod:`repro.faults`)
        self.faults = faults
        #: fall back through cheaper strategies when faults keep winning;
        #: None means "degrade iff faults are enabled"
        self.degrade = degrade

    # ------------------------------------------------------------------
    def _analyzer(self):
        from ..analyze import Analyzer
        return Analyzer(self.device, self.costs)

    def run(self, plan: "Plan | PlanShape",
            source_rows: dict[str, int] | None = None,
            config: ExecutionConfig = ExecutionConfig()) -> RunResult:
        """Time `plan` under `config`; a :class:`PlanShape` lets repeated
        runs of one plan share its sizes and fusion regions."""
        shape = PlanShape.of(plan)
        plan = shape.plan
        plan.validate()
        self._analysis_reports = []
        if self.analyze:
            self._analysis_reports.append(
                self._analyzer().run(plan, strict=True))
            self._memory_preflight(plan, source_rows, config)
        injector = as_injector(self.faults)
        result = run_with_ladder(
            config.strategy,
            lambda step: self._run_once(shape, source_rows, config, step,
                                        injector),
            injector, self.degrade)
        if self.check:
            from ..validate import validate_run
            validate_run(result, self.device).raise_if_failed()
        if self.analyze and self._analysis_reports:
            from ..analyze import AnalysisReport
            merged = AnalysisReport()
            for rep in self._analysis_reports:
                merged.merge(rep)
            result.analysis = merged.summary()
        return result

    def _memory_preflight(self, plan: Plan,
                          source_rows: dict[str, int] | None,
                          config: ExecutionConfig) -> None:
        """Refuse certain-OOM dispatch: vet the configured strategy's
        peak-footprint interval against this device before lowering
        anything.  A MEM701 verdict raises AnalysisError; MEM703/MEM706
        land in the run's analysis summary."""
        from ..analyze.memory_check import MemoryTarget
        target = MemoryTarget(plan, source_rows,
                              strategies=(config.strategy,),
                              memory_safety=config.memory_safety,
                              device=self.device)
        self._analysis_reports.append(
            self._analyzer().run(target, strict=True))

    def _run_once(self, shape: PlanShape, source_rows: dict[str, int] | None,
                  config: ExecutionConfig, step,
                  injector: FaultInjector | None) -> RunResult:
        if step == CPU_BASELINE:
            return self._run_cpubase(shape, source_rows, config)
        config = config if step is config.strategy else replace(
            config, strategy=step)
        if injector is not None:
            # a spurious allocator failure here models the device refusing
            # the strategy's working set outright
            spurious_oom(injector, f"exec.{config.strategy.value}",
                         self.device.global_mem_bytes)
        return self._execute(shape, source_rows, config, injector)

    def _execute(self, shape: PlanShape, source_rows: dict[str, int] | None,
                 config: ExecutionConfig, injector: FaultInjector | None,
                 functional=None) -> RunResult:
        """One device run of ``config.strategy`` on ``shape``'s sizes.
        A :class:`~repro.runtime.gpu_rt.GpuRuntime` passes ``functional``:
        its ``place(stream, nbytes)`` puts each single-stream program in
        device memory (a chunked program at its chunk sizes), its
        ``segment_thunk(prefix, driver)`` runs per segment."""
        plan = shape.plan
        sizes = shape.sizes(source_rows)
        nbytes = shape.nbytes(source_rows)
        fusion = shape.fusion(config.strategy.uses_fusion)
        if self.analyze:
            self._analysis_reports.append(
                self._analyzer().run(fusion, strict=True))
        lowered = shape.lowered(config.strategy.uses_fusion, source_rows,
                                self.costs)
        driver = self._driver_source(plan, sizes)

        n_in = sizes[driver.name]
        input_bytes = nbytes[driver.name]
        sink_names = {n.name for n in plan.sinks()}
        output_bytes = (sum(lr.out_bytes for lr in lowered
                            if lr.region.output_node.name in sink_names)
                        + sum(nbytes[n.name] for n in _source_sinks(plan)))
        n_out = sum(sizes[n.name] for n in plan.sinks())

        # a fault run's engine prunes the streams it runs, and a
        # placement re-queues their commands: both get a program of
        # their own instead of the shape's
        program = (self._build_program(shape, source_rows, config)
                   if injector is not None or functional is not None
                   else self.program(shape, source_rows, config))
        if program.phases is not None:
            timeline, num_chunks, (expected_h2d, expected_d2h) = (
                self._run_fission(shape, program, sizes, nbytes,
                                  driver, config, injector, functional))
        else:
            timeline, num_chunks, (expected_h2d, expected_d2h) = (
                self._run_serial(shape, program, lowered, nbytes, driver,
                                 config, injector, functional))
        return RunResult(
            strategy=config.strategy, timeline=timeline, sizes=sizes,
            n_in=n_in, n_out=n_out, input_bytes=input_bytes,
            output_bytes=output_bytes, fusion=fusion, num_chunks=num_chunks,
            expected_h2d_bytes=expected_h2d, expected_d2h_bytes=expected_d2h,
        )

    def program(self, shape: PlanShape, source_rows: dict[str, int] | None,
                config: ExecutionConfig) -> "DeviceProgram":
        """The stream program :meth:`run` queues for ``config.strategy``
        on ``shape`` when no fault is injected, without running it.  It
        is built once per (config, row map, device, costs) and kept on
        the shape, so the optimizer's lower bound and every run read the
        same commands and none may mutate them.  Raises
        :class:`~repro.errors.DeviceOOMError` where the run would."""
        return shape.derived(
            ("program", config, self.device, self.costs), source_rows,
            lambda: self._build_program(shape, source_rows, config))

    def _build_program(self, shape: PlanShape,
                       source_rows: dict[str, int] | None,
                       config: ExecutionConfig) -> "DeviceProgram":
        plan = shape.plan
        sizes = shape.sizes(source_rows)
        nbytes = shape.nbytes(source_rows)
        lowered = shape.lowered(config.strategy.uses_fusion, source_rows,
                                self.costs)
        driver = self._driver_source(plan, sizes)
        if _pipelines(config):
            program = self._fission_program(shape, lowered, sizes, nbytes,
                                            driver, config)
            if program is not None:
                return program
            # nothing to pipeline: the run degenerates to serial
        stream, num_chunks, scales = self._serial_stream(
            shape, lowered, sizes, nbytes, driver, config)
        return DeviceProgram((stream,), num_chunks=num_chunks,
                             scales=tuple(scales))

    def run_cpubase(self, plan: "Plan | PlanShape",
                    source_rows: dict[str, int] | None = None) -> RunResult:
        """Run the host-interpreter baseline as a first-class strategy
        (the optimizer's CPU side of the CPU-vs-GPU crossover), not just
        the degradation ladder's last rung."""
        shape = PlanShape.of(plan)
        shape.plan.validate()
        return self._run_cpubase(shape, source_rows, ExecutionConfig())

    def _run_cpubase(self, shape: PlanShape,
                     source_rows: dict[str, int] | None,
                     config: ExecutionConfig) -> RunResult:
        """Host-interpreter fallback timeline: every operator runs on the
        CPU (one pass per node, timed by the CPU calibration), so there is
        no device command left for fault injection to break."""
        plan = shape.plan
        sizes = shape.sizes(source_rows)
        nbytes = shape.nbytes(source_rows)
        driver = self._driver_source(plan, sizes)
        duration = host_plan_time(plan.nodes, sizes, self.device.calib.cpu)
        timeline = Timeline()
        timeline.add(0.0, duration, EventKind.HOST, "cpubase")

        n_in = sizes[driver.name]
        output_bytes = sum(nbytes[n.name] for n in plan.sinks())
        return RunResult(
            strategy=config.strategy, timeline=timeline, sizes=sizes,
            n_in=n_in, n_out=sum(sizes[n.name] for n in plan.sinks()),
            input_bytes=nbytes[driver.name],
            output_bytes=output_bytes, fusion=None, num_chunks=1,
        )

    @staticmethod
    def _driver_source(plan: Plan, sizes: dict[str, int]) -> PlanNode:
        sources = plan.sources()
        if not sources:
            raise PlanError("plan has no sources")
        return max(sources, key=lambda s: sizes[s.name])

    # -- serial / round-trip execution ------------------------------------------
    def _run_serial(self, shape: PlanShape, program: "DeviceProgram",
                    lowered: list[LoweredRegion], nbytes: dict[str, float],
                    driver: PlanNode, config: ExecutionConfig,
                    injector: FaultInjector | None, functional=None
                    ) -> tuple[Timeline, int, tuple[float, float]]:
        """(timeline, chunks, expected (H2D, D2H) bytes) of one serial or
        round-trip run of ``program``."""
        plan = shape.plan
        engine = SimEngine(self.device, check=self.check, faults=injector)
        (stream,) = program.streams
        num_chunks, scales = program.num_chunks, program.scales
        sink_names = {n.name for n in plan.sinks()}
        expected = self._expected_serial_bytes(
            plan, lowered, nbytes, sink_names, config)
        if self.analyze and config.include_transfers:
            # transfers off means sources are never "written", which would
            # false-positive the use-before-upload check -- skip then
            self._analysis_reports.append(
                self._analyzer().run([stream], unit=f"serial.{plan.name}",
                                     strict=True))
        if functional is not None:
            placed = nbytes
            if num_chunks > 1:
                # the sizes the chunk planner admitted: the driver and
                # every buffer a driver-scaled region writes hold a chunk
                chunked = [driver.name] + [
                    name for lr, scaled in zip(lowered, scales) if scaled
                    for name in lr.writes]
                placed = {**nbytes, **{n: nbytes[n] / num_chunks
                                       for n in chunked}}
            stream = functional.place(stream, placed)
        return engine.run([stream]), num_chunks, expected

    def _serial_stream(self, shape: PlanShape, lowered: list[LoweredRegion],
                       sizes: dict[str, int], nbytes: dict[str, float],
                       driver: PlanNode, config: ExecutionConfig
                       ) -> tuple[SimStream, int, list[bool]]:
        """(the one stream, chunks, which regions scale with the driver)
        of a serial or round-trip run."""
        plan = shape.plan
        num_chunks = 1
        if config.include_transfers:
            num_chunks = self._plan_chunks(plan, lowered, nbytes, driver,
                                           config)

        stream = SimStream(stream_id=0)
        upload = config.compression.upload
        sink_names = {n.name for n in plan.sinks()}

        # side (non-driver) sources are loaded once, up front
        if config.include_transfers:
            for src in plan.sources():
                if src is driver:
                    continue
                if nbytes[src.name] > 0:
                    upload(stream, nbytes[src.name], sizes[src.name],
                           shape.row_nbytes(src), STAGING_MEMORY, self.device,
                           tag=src.name, writes=(src.name,))

        scales = [self._scales_with_driver(lr, driver) for lr in lowered]
        for chunk in range(num_chunks):
            frac = 1.0 / num_chunks
            if config.include_transfers:
                upload(stream, nbytes[driver.name] * frac,
                       max(1, int(round(sizes[driver.name] * frac))),
                       shape.row_nbytes(driver), STAGING_MEMORY, self.device,
                       tag=f"{driver.name}.c{chunk}", writes=(driver.name,))
            for lr, scaled in zip(lowered, scales):
                if chunk > 0 and not scaled:
                    continue
                chunk_frac = frac if scaled else 1.0
                # build kernels run once, not per chunk
                emit_region(stream, lr, self.device, sizes, build=chunk == 0,
                            frac=chunk_frac)
                # round trip: stage each intermediate (non-sink) result out/in
                out_name = lr.region.output_node.name
                if (config.strategy is Strategy.WITH_ROUND_TRIP
                        and config.include_transfers
                        and out_name not in sink_names):
                    staged = lr.out_bytes * chunk_frac
                    if staged > 0:
                        stream.d2h(staged, ROUNDTRIP_MEMORY,
                                   tag=f"roundtrip.out.{lr.region.name}",
                                   reads=(out_name,))
                        stream.h2d(staged, ROUNDTRIP_MEMORY,
                                   tag=f"roundtrip.in.{lr.region.name}",
                                   writes=(out_name,))
            if config.include_transfers:
                for lr, scaled in zip(lowered, scales):
                    if chunk == 0 or scaled:
                        _download_sink(stream, lr, sink_names,
                                       frac if scaled else 1.0, f".c{chunk}")

        if config.include_transfers:
            _download_source_sinks(stream, plan, nbytes)
        return stream, num_chunks, scales

    def _expected_serial_bytes(self, plan: Plan, lowered: list[LoweredRegion],
                               nbytes: dict[str, float], sink_names: set[str],
                               config: ExecutionConfig) -> tuple[float, float]:
        """(H2D, D2H) bytes the serial schedule should move in total:
        sources at their wire size, spills raw."""
        if not config.include_transfers:
            return (0.0, 0.0)
        wire = config.compression.wire_bytes
        h2d = sum(wire(nbytes[s.name]) for s in plan.sources())
        d2h = 0.0
        for lr in lowered:
            if lr.region.output_node.name in sink_names:
                d2h += lr.out_bytes
            elif (config.strategy is Strategy.WITH_ROUND_TRIP
                  and lr.out_bytes > 0):
                h2d += lr.out_bytes
                d2h += lr.out_bytes
        for src in _source_sinks(plan):
            d2h += nbytes[src.name]
        return (h2d, d2h)

    @staticmethod
    def _scales_with_driver(lr: LoweredRegion, driver: PlanNode) -> bool:
        """Does this region's size scale when the driver input is chunked?

        True when the region (transitively, through any input edge) consumes
        the driver source; False for driver-independent regions -- e.g. a
        side-table select -- which run exactly once regardless of chunking.
        """
        stack = [lr.primary_input]
        stack.extend(inp for node in lr.region.nodes for inp in node.inputs)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node is driver:
                return True
            stack.extend(node.inputs)
        return False

    @staticmethod
    def _co_driver_sources(prefix: list[LoweredRegion], driver: PlanNode,
                           sizes: dict[str, int]) -> list[PlanNode]:
        """Sources that must stream with the driver: column arrays read
        positionally by gather joins inside the pipelined prefix."""
        out: list[PlanNode] = []
        for lr in prefix:
            for node in lr.region.nodes:
                if (node.op is OpType.JOIN and node.params.get("gather")
                        and len(node.inputs) > 1
                        and node.inputs[1].op is OpType.SOURCE
                        and sizes[node.inputs[1].name] == sizes[driver.name]
                        and node.inputs[1] is not driver):
                    out.append(node.inputs[1])
        return out

    def _plan_chunks(self, plan: Plan, lowered: list[LoweredRegion],
                     nbytes: dict[str, float], driver: PlanNode,
                     config: ExecutionConfig) -> int:
        """How many chunks are needed for the working set to fit on device."""
        budget = self.device.global_mem_bytes * config.memory_safety
        side, working, has_barrier = footprint(
            plan, [lr.region for lr in lowered], driver,
            lambda node: nbytes[node.name])
        chunks = chunk_count(side, working, budget, has_barrier)
        if chunks is not None:
            return int(chunks)
        if side >= budget:
            # side inputs alone exceed the chunking budget: report the
            # budget actually available, not the raw capacity
            raise DeviceOOMError(int(side), int(budget),
                                 self.device.global_mem_bytes)
        raise DeviceOOMError(int(working), int(budget - side),
                             self.device.global_mem_bytes)

    # -- fission execution --------------------------------------------------------
    def _run_fission(self, shape: PlanShape, program: "DeviceProgram",
                     sizes: dict[str, int], nbytes: dict[str, float],
                     driver: PlanNode, config: ExecutionConfig,
                     injector: FaultInjector | None, functional=None
                     ) -> tuple[Timeline, int, tuple[float, float]]:
        """Like :meth:`_run_serial`, pipelining the driver's prefix."""
        plan = shape.plan
        place = functional.place if functional is not None else (lambda s: s)
        phases = program.phases
        prefix, rest = phases.prefix, phases.rest
        pre, post = program.streams

        timeline = Timeline()
        engine = SimEngine(self.device, check=self.check, faults=injector)

        # phase A: load side sources, run driver-independent regions, and
        # run the prefix's build kernels once
        if pre.commands:
            timeline = engine.run([place(pre)])

        # phase B: pipelined segments over the driver input
        sink_names = {n.name for n in plan.sinks()}
        whole_plan_is_prefix = not rest and len(plan.sinks()) == 1
        prefix_sel = 1.0
        for lr in prefix:
            prefix_sel *= lr.region.selectivity
        out_node = prefix[-1].region.output_node
        out_row = shape.row_nbytes(out_node)
        n_driver = sizes[driver.name]
        # segments differ only in size, and one run has at most two sizes:
        # build each size's launches once and share the frozen specs
        templates: dict[int, list[KernelLaunchSpec]] = {}

        def kernel_builder(seg: Segment):
            specs = templates.get(seg.n_rows)
            if specs is None:
                specs = templates[seg.n_rows] = []
                seg_frac = seg.n_rows / max(n_driver, 1)
                for lr in prefix:
                    n_seg_in = max(1, int(round(lr.n_in * seg_frac)))
                    specs.extend(lr.main_specs(n_seg_in, self.device))
            return specs

        fis_cfg = config.fission
        if not whole_plan_is_prefix:
            # results stay on device for the barrier stage: no per-segment
            # upload and no host gather
            fis_cfg = replace(fis_cfg, host_gather=False)

        pipe_tl = run_fissioned(
            self.device,
            n_rows=n_driver,
            in_row_nbytes=phases.in_row,
            out_row_nbytes=out_row if whole_plan_is_prefix else 0,
            output_selectivity=prefix_sel if whole_plan_is_prefix else 0.0,
            kernel_builder=kernel_builder,
            config=fis_cfg,
            engine=SimEngine(self.device, check=self.check, faults=injector),
            costs=self.costs,
            segment_thunk=(functional.segment_thunk(
                [lr.region for lr in prefix], driver)
                if functional is not None else None),
        )
        timeline.extend(pipe_tl, offset=timeline.end_time)

        # phase C: the remaining (driver-dependent / barrier-bound) regions,
        # then the sources that are also sinks
        if post.commands:
            post_tl = SimEngine(self.device, check=self.check,
                                faults=injector).run([place(post)])
            timeline.extend(post_tl, offset=timeline.end_time)

        expected_h2d = sum(nbytes[s.name] for s in plan.sources())
        expected_d2h = sum(
            lr.out_bytes for lr in [*phases.phase_a, *rest]
            if lr.region.output_node.name in sink_names)
        expected_d2h += sum(nbytes[s.name] for s in _source_sinks(plan))
        if whole_plan_is_prefix:
            expected_d2h += float(n_driver) * prefix_sel * out_row
        return timeline, 1, (expected_h2d, expected_d2h)

    def _fission_program(self, shape: PlanShape,
                         lowered: list[LoweredRegion], sizes: dict[str, int],
                         nbytes: dict[str, float], driver: PlanNode,
                         config: ExecutionConfig) -> "DeviceProgram | None":
        """A fission run's program: phase A's and phase C's streams and
        what phase B pipelines; None when the driver has no prefix to
        pipeline (the run degenerates to serial)."""
        plan = shape.plan
        by_region = {id(lr.region): lr for lr in lowered}
        prefix, phase_a, rest = (
            [by_region[id(r)] for r in part]
            for part in split_for_fission([lr.region for lr in lowered],
                                          driver))
        if not prefix:
            return None

        # column arrays consumed positionally by gather joins in the prefix
        # stream with the driver, segment by segment (Q1's six columns)
        co_drivers = self._co_driver_sources(prefix, driver, sizes)

        sink_names = {n.name for n in plan.sinks()}
        pre = SimStream(stream_id=0)
        for src in plan.sources():
            if src is driver or src in co_drivers:
                continue
            if nbytes[src.name] > 0:
                pre.h2d(nbytes[src.name], STAGING_MEMORY,
                        tag=f"input.{src.name}", writes=(src.name,))
        for lr in phase_a:
            emit_region(pre, lr, self.device, sizes)
            _download_sink(pre, lr, sink_names)
        for lr in prefix:
            emit_region(pre, lr, self.device, sizes, frac=None)

        post = SimStream(stream_id=0)
        for lr in rest:
            emit_region(post, lr, self.device, sizes)
            _download_sink(post, lr, sink_names)
        _download_source_sinks(post, plan, nbytes)

        in_row = (shape.row_nbytes(driver)
                  + sum(shape.row_nbytes(s) for s in co_drivers))
        return DeviceProgram(
            (pre, post), pipelined_bytes=float(sizes[driver.name]) * in_row,
            pipelined_memory=config.fission.memory,
            phases=_FissionPhases(prefix, phase_a, rest, in_row))


@dataclass(frozen=True)
class _FissionPhases:
    """How a fission run splits its regions: ``phase_a`` (driver-free)
    and the ``prefix``'s builds run in phase A, phase B pipelines the
    driver and its co-drivers, ``in_row`` bytes a row, through the
    ``prefix``, and ``rest`` runs in phase C."""

    prefix: list[LoweredRegion]
    phase_a: list[LoweredRegion]
    rest: list[LoweredRegion]
    in_row: int


@dataclass(frozen=True)
class DeviceProgram:
    """The commands one single-device run queues (:meth:`Executor.program`).

    ``streams`` run one after another, each one in order.  A fission run
    has two (phases A and C) and, between them, pipelines
    ``pipelined_bytes`` of driver input over the H2D engine from
    ``pipelined_memory``; every other run is one stream, of
    ``num_chunks`` chunks."""

    streams: tuple[SimStream, ...]
    pipelined_bytes: float = 0.0
    pipelined_memory: HostMemory = STAGING_MEMORY
    num_chunks: int = 1
    #: a serial run's regions: which scale with the driver when chunked
    scales: tuple[bool, ...] = ()
    #: a fission run's phases, None for a serial one
    phases: _FissionPhases | None = None


def _pipelines(config: ExecutionConfig) -> bool:
    """Does ``config`` run the fission pipeline (phases A, B, C)?"""
    return config.strategy.uses_fission and config.include_transfers


def _source_sinks(plan: Plan) -> list[PlanNode]:
    """Sources no operator consumes: each is downloaded as it is."""
    return [n for n in plan.sinks() if n.op is OpType.SOURCE]


def _download_sink(stream: SimStream, lr: LoweredRegion,
                   sink_names: set[str], frac: float = 1.0,
                   suffix: str = "") -> None:
    """Download ``frac`` of a sink region's output, tagged
    ``output.<region><suffix>`` (fault sites are keyed by tag)."""
    out_name = lr.region.output_node.name
    if out_name in sink_names and lr.out_bytes > 0:
        stream.d2h(lr.out_bytes * frac, STAGING_MEMORY,
                   tag=f"output.{lr.region.name}{suffix}", reads=(out_name,))


def _download_source_sinks(stream: SimStream, plan: Plan,
                           nbytes: dict[str, float]) -> None:
    for src in _source_sinks(plan):
        if nbytes[src.name] > 0:
            stream.d2h(nbytes[src.name], STAGING_MEMORY,
                       tag=f"output.{src.name}", reads=(src.name,))
