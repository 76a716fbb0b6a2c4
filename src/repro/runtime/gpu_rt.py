"""The simulated-device *runtime*: the Executor's program on real data.

The :class:`~repro.runtime.executor.Executor` is the one interpreter of a
plan, and a :class:`~repro.runtime.sizes.PlanShape` gives it sizes from
one of two sources: the plan's annotations ("time it") or one real
evaluation ("run it").  :class:`GpuRuntime` is the second kind of caller:
it observes every node's rows and bytes, runs the Executor's program on
them, and adds two things:

* **device memory** -- :class:`DevicePlacement` places the buffers each
  single-stream program reads and writes in the 6 GB budget and spills
  what does not fit back to the host -- why *with round trip* is forced
  in the paper (SS III-A).  Fusion eliminates intermediates, so a fused
  plan spills less (Fig 7(a)/(b), `bench_ablation_memory_pressure.py`).
  The Executor's chunk planner is the size rule: a chunked serial program
  is placed at the sizes it admitted (the driver and every buffer a
  driver-scaled region writes hold one chunk); the placement checks
  that rule rather than adding its own.
  Under fission the pass places phases A and C, which the planner does
  not size; the pipelined segments and the prefix output are not placed,
  so a fission run's peak is a floor;
* **segment results** -- under fission each segment evaluates the
  prefix's leading run of :data:`STREAMABLE_OPS` on its slice of the
  driver; the host re-gather concatenates the slices in segment order and
  evaluates the rest of the plan once, so the answers only exist if the
  schedule actually finished.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import reduce
from typing import Callable

import numpy as np

from ..core.fission import FissionConfig, Segment
from ..core.fusion import Region
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..errors import DeviceOOMError
from ..faults import (FaultInjector, FaultPlan, as_injector, ladder,
                      run_with_ladder, spurious_oom)
from ..plans.interp import _eval_node
from ..plans.plan import OpType, Plan, PlanNode
from ..ra.operators import union_all
from ..ra.relation import Relation
from ..simgpu.compression import NONE, CompressionScheme
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimStream, TransferCommand
from ..simgpu.memory import DeviceMemory
from .executor import Executor, RunResult
from .sizes import PlanShape
from .strategies import (CPU_BASELINE, STAGING_MEMORY, ExecutionConfig,
                         Strategy)

#: operators that are row-local and keep row order given their side
#: inputs, so a run of them evaluated segment by segment and concatenated
#: equals the whole evaluation (fission)
STREAMABLE_OPS = frozenset({OpType.SELECT, OpType.PROJECT, OpType.ARITH,
                            OpType.SEMI_JOIN, OpType.ANTI_JOIN})


class DevicePlacement:
    """Device memory as a static pass over single-stream programs.

    A command allocates each buffer of the size map it writes (fault site
    ``alloc.<name>``); a kernel re-uploads each spilled buffer it reads
    (``spill.in``), and a buffer is freed after the last kernel reading
    it.  To make room, buffers the command does not read are evicted,
    largest first among those a later kernel reads, each with a
    ``spill.out`` D2H; others go for free.  A kernel output that cannot
    fit beside its inputs streams to the host after its last writer; an
    upload that cannot fit, or a buffer larger than the device, raises
    :class:`DeviceOOMError`.  Spills go through the pinned staging
    buffers (:data:`~repro.runtime.strategies.STAGING_MEMORY`).  One run's
    programs share one placement; ``spilled_h2d`` / ``spilled_d2h`` total
    the bytes of its ``spill.*`` transfers.
    """

    def __init__(self, memory: DeviceMemory, nbytes: dict[str, float],
                 injector: FaultInjector | None = None):
        memory.reset()
        self.memory = memory
        self.nbytes = nbytes
        self.injector = injector
        #: resident buffer -> DeviceMemory handle, in allocation order
        self.handles: dict[str, int] = {}
        #: buffers spilled or streamed to the host that are read again
        self.on_host: set[str] = set()
        self.spills = 0
        self.spilled_h2d = 0.0
        self.spilled_d2h = 0.0

    def place(self, stream: SimStream,
              nbytes: dict[str, float] | None = None) -> SimStream:
        """``stream``'s commands with the spill transfers this run needs;
        ``nbytes`` sizes this program's buffers (default: the
        placement's), e.g. a chunked program's at one chunk."""
        if nbytes is not None:
            self.nbytes = nbytes
        cmds = stream.commands
        # a kernel needs what it reads on the device; a download ships
        # whichever copy exists, so it holds nothing resident
        reads = [set() if isinstance(c, TransferCommand)
                 else {n for n in c.reads if n in self.nbytes} for c in cmds]
        reads_left = Counter(n for r in reads for n in r)
        last_write = {n: i for i, c in enumerate(cmds) for n in c.writes}
        streaming: set[str] = set()
        out = SimStream(stream_id=stream.stream_id)
        for i, cmd in enumerate(cmds):
            pinned = reads[i]
            for name in sorted(pinned):
                if name in self.on_host and name not in streaming:
                    self._alloc(name, pinned, reads_left, out)
                    self.on_host.discard(name)
                    if self.nbytes[name] > 0:
                        out.h2d(self.nbytes[name], STAGING_MEMORY,
                                tag=f"spill.in.{name}")
                        self.spilled_h2d += self.nbytes[name]
            for name in cmd.writes:
                if (name not in self.nbytes or name in self.handles
                        or name in self.on_host):
                    continue
                try:
                    spurious_oom(self.injector, f"alloc.{name}",
                                 self.memory.capacity)
                    self._alloc(name, pinned, reads_left, out)
                except DeviceOOMError:
                    # the output cannot sit beside the command's inputs:
                    # stream it to the host as it is produced -- the
                    # paper's forced round trip (SS III-A)
                    if (isinstance(cmd, TransferCommand)
                            or self.nbytes[name] > self.memory.capacity):
                        raise
                    streaming.add(name)
                    self.on_host.add(name)
            out.enqueue(cmd)
            for name in sorted(streaming):
                if last_write[name] == i:
                    streaming.discard(name)
                    self._spill_out(name, out)
            for name in pinned:
                reads_left[name] -= 1
                if reads_left[name] == 0:
                    self.on_host.discard(name)
                    if name in self.handles:
                        self.memory.free(self.handles.pop(name))
        return out

    def _alloc(self, name: str, pinned: set[str], reads_left: Counter,
               out: SimStream) -> None:
        nbytes = self.nbytes[name]
        while not self.memory.fits(nbytes):
            evictable = [n for n in self.handles if n not in pinned]
            if nbytes > self.memory.capacity or not evictable:
                raise DeviceOOMError(int(nbytes), self.memory.available,
                                     self.memory.capacity)
            needed = [n for n in evictable if reads_left[n] > 0]
            victim = (max(needed, key=self.nbytes.__getitem__) if needed
                      else evictable[0])
            self.memory.free(self.handles.pop(victim))
            if needed:
                # still needed: a true round trip (device -> host now,
                # host -> device on next use)
                self.on_host.add(victim)
                self._spill_out(victim, out)
        self.handles[name] = self.memory.alloc(nbytes, name)

    def _spill_out(self, name: str, out: SimStream) -> None:
        if self.nbytes[name] > 0:
            out.d2h(self.nbytes[name], STAGING_MEMORY,
                    tag=f"spill.out.{name}")
            self.spills += 1
            self.spilled_d2h += self.nbytes[name]


def _streamable_run(prefix: list[Region], driver: PlanNode) -> list[PlanNode]:
    """The fission prefix's leading run of :data:`STREAMABLE_OPS`, each
    node consuming the one before it (the first, the driver)."""
    run: list[PlanNode] = []
    prev = driver
    for node in (n for region in prefix for n in region.nodes):
        if node.op not in STREAMABLE_OPS or node.inputs[0] is not prev:
            break
        run.append(node)
        prev = node
    return run


class _FunctionalRun(DevicePlacement):
    """One ladder step of a :class:`GpuRuntime`: the hooks the Executor
    calls while it runs its program, and the answers they produce."""

    def __init__(self, shape: PlanShape, sources: dict[str, Relation],
                 memory: DeviceMemory, injector: FaultInjector | None):
        super().__init__(memory, shape.nbytes(None), injector)
        self.shape = shape
        self.sources = sources
        self.run: list[PlanNode] = []
        self.segments: dict[int, dict[str, Relation]] = {}
        self.rows_done = 0

    def segment_thunk(self, prefix: list[Region], driver: PlanNode
                      ) -> Callable[[Segment], None] | None:
        self.run = _streamable_run(prefix, driver)
        self.driver = driver
        return self._record if self.run else None

    def _record(self, seg: Segment) -> None:
        self.segments[seg.index] = self._eval_run(seg.start_row, seg.n_rows)
        self.rows_done += seg.n_rows

    def _eval_run(self, start: int, n_rows: int) -> dict[str, Relation]:
        local = dict(self.shape.relations)
        local[self.driver.name] = self.sources[self.driver.name].take(
            np.arange(start, start + n_rows))
        for node in self.run:
            local[node.name] = _eval_node(node, local, self.sources)
        return {node.name: local[node.name] for node in self.run}

    def results(self) -> dict[str, Relation]:
        plan = self.shape.plan
        rels = self.shape.relations
        if self.run:
            # the host re-gather (paper SS IV-C): segment slices in
            # segment order, then the rest of the plan once
            n_driver = self.shape.sizes(None)[self.driver.name]
            assert self.rows_done == n_driver
            outs = ([self.segments[i] for i in sorted(self.segments)]
                    or [self._eval_run(0, n_driver)])
            rels = {n.name: reduce(union_all, [o[n.name] for o in outs])
                    for n in self.run}
            for node in plan.topological():
                if node.name not in rels:
                    rels[node.name] = _eval_node(node, rels, self.sources)
        return {s.name: rels[s.name] for s in plan.sinks()}


class GpuRuntime:
    """Executes plans functionally on the simulated device.

    ``strategy`` is a :class:`Strategy` or ``CPU_BASELINE``; every one
    produces identical tuples, only the simulated schedule differs.
    :meth:`run` returns the Executor's :class:`RunResult` with the sink
    ``results``, ``spill_count`` and ``peak_device_bytes`` filled in, its
    ``strategy`` the ladder rung that produced them, and the spill bytes
    counted in its expected PCIe bytes.

    ``memory_limit`` caps the placement's capacity below ``device``'s
    memory, which the Executor still plans for: a budget the chunk
    planner does not chunk for, so intermediates that do not fit
    round-trip through the host -- the paper's forced round trip
    (SS III-A, `bench_ablation_memory_pressure.py`).  A smaller
    ``device`` instead makes the Executor chunk, and then nothing
    spills.  ``faults`` is a
    :class:`~repro.faults.FaultPlan` (or shared injector) that the engine
    and the ``alloc.<buffer>`` sites honor, and ``degrade`` falls back
    down :func:`repro.faults.ladder` when faults defeat a strategy
    (``None``: iff injection is on); see docs/FAULTS.md.
    ``compression`` is the codec of every serial source upload, as in
    ``ExecutionConfig.compression``.
    """

    def __init__(self, device: DeviceSpec | None = None,
                 strategy: Strategy | str = Strategy.FUSED,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 memory_limit: int | None = None,
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
        self.faults = faults
        self.degrade = degrade
        self.compression = compression
        self.fission = fission

    def run(self, plan: Plan, sources: dict[str, Relation]) -> RunResult:
        shape = PlanShape.observe(plan, sources)
        injector = as_injector(self.faults)
        executor = Executor(self.device, self.costs)
        config = ExecutionConfig(fission=self.fission,
                                 compression=self.compression)

        def attempt(step: Strategy | str) -> RunResult:
            functional = _FunctionalRun(shape, sources, self.memory,
                                        injector)
            if step == CPU_BASELINE:
                timed = executor.run_cpubase(shape)
            else:
                timed = executor._execute(
                    shape, None, replace(config, strategy=step), injector,
                    functional)
            timed.strategy = step
            timed.results = functional.results()
            timed.spill_count = functional.spills
            timed.peak_device_bytes = self.memory.peak
            if timed.expected_h2d_bytes is not None:
                timed.expected_h2d_bytes += functional.spilled_h2d
                timed.expected_d2h_bytes += functional.spilled_d2h
            return timed

        return run_with_ladder(self.strategy, attempt, injector, self.degrade)
