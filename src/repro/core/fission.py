"""The kernel-fission pass (paper SS IV).

Fission partitions a kernel's work into *segments* so that segment
computation and PCIe transfers overlap: while segment *i* computes,
segment *i+1*'s input is downloading and segment *i-1*'s output is
uploading (Fig 13).  The C2070's two copy engines make a three-stage
pipeline possible, so at least three streams are used.

The CPU must re-gather the segment outputs at the end, since results
arrive at different times (SS IV-C) -- that host gather is charged here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..simgpu.compute import KernelLaunchSpec
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine
from ..simgpu.pcie import HostMemory
from ..simgpu.timeline import EventKind, Timeline
from ..streampool.pool import StreamPool
from .stagecosts import DEFAULT_STAGE_COSTS, StageCostParams

if TYPE_CHECKING:
    from ..plans.plan import PlanNode
    from .fusion import Region


@dataclass(frozen=True)
class FissionConfig:
    """Tuning knobs for the fission schedule."""

    num_streams: int = 3
    #: preferred bytes of *input* per segment; large enough to stay on the
    #: flat part of the PCIe bandwidth curve, small enough to pipeline
    target_segment_bytes: int = 96 << 20
    min_segments: int = 3
    max_segments: int = 4096
    #: fission requires pinned host memory for async overlap (SS IV-B)
    memory: HostMemory = HostMemory.PINNED
    host_gather: bool = True


@dataclass(frozen=True)
class Segment:
    index: int
    start_row: int
    n_rows: int


def plan_segments(n_rows: int, in_row_nbytes: int,
                  config: FissionConfig = FissionConfig()) -> list[Segment]:
    """Split `n_rows` into pipeline segments."""
    total_bytes = n_rows * in_row_nbytes
    by_size = math.ceil(total_bytes / config.target_segment_bytes)
    n_seg = min(config.max_segments, max(config.min_segments, by_size))
    n_seg = min(n_seg, max(1, n_rows))
    bounds = [round(i * n_rows / n_seg) for i in range(n_seg + 1)]
    return [
        Segment(index=i, start_row=bounds[i], n_rows=bounds[i + 1] - bounds[i])
        for i in range(n_seg)
        if bounds[i + 1] > bounds[i]
    ]


def split_for_fission(regions: Sequence[Region], driver: PlanNode
                      ) -> tuple[list[Region], list[Region], list[Region]]:
    """Partition lowered regions into (pipeline prefix, phase A, phase C).

    The prefix is the maximal chain of non-barrier regions starting at
    the first region whose primary input is the driver source, where
    each region's side inputs are computable *before* the driver
    arrives (driver-independent).  Phase A holds driver-independent
    regions that must run before the pipeline (e.g. dimension-table
    selects feeding the prefix's build kernels); phase C everything
    else, in order.  Purely structural -- no sizes involved -- so the
    executor and the static memory analysis share it exactly.
    """
    # which regions (by node-name of output) depend on the driver
    driver_dep: set[str] = set()
    for region in regions:
        if any(inp is driver or inp.name in driver_dep
               for node in region.nodes for inp in node.inputs):
            driver_dep.update(n.name for n in region.nodes)

    def primary(region: Region) -> PlanNode:
        first = region.nodes[0]
        return first.inputs[0] if first.inputs else first

    def side_independent(region: Region) -> bool:
        return not any(inp is driver or inp.name in driver_dep
                       for node in region.nodes for inp in node.inputs[1:])

    prefix: list[Region] = []
    phase_a: list[Region] = []
    rest: list[Region] = []
    expect: PlanNode | None = None
    started = False
    done = False
    for region in regions:
        if done:
            rest.append(region)
            continue
        if not started:
            if (primary(region) is driver and not region.is_barrier_op
                    and side_independent(region)):
                started = True
                prefix.append(region)
                expect = region.output_node
            elif region.output_node.name in driver_dep:
                rest.append(region)   # driver-dependent, can't run early
            else:
                phase_a.append(region)
            continue
        if (not region.is_barrier_op and primary(region) is expect
                and side_independent(region)):
            prefix.append(region)
            expect = region.output_node
        else:
            done = True
            rest.append(region)
    return prefix, phase_a, rest


#: builds the compute launches for one segment of `n_rows` elements
SegmentKernelBuilder = Callable[[Segment], Sequence[KernelLaunchSpec]]


def run_fissioned(
    device: DeviceSpec,
    n_rows: int,
    in_row_nbytes: int,
    out_row_nbytes: int,
    output_selectivity: float,
    kernel_builder: SegmentKernelBuilder,
    config: FissionConfig = FissionConfig(),
    engine: SimEngine | None = None,
    costs: StageCostParams = DEFAULT_STAGE_COSTS,
    segment_thunk: Callable[[Segment], None] | None = None,
) -> Timeline:
    """Execute a fissioned (pipelined) run and return its timeline.

    Each segment is issued to a pooled stream as H2D -> kernels -> D2H; the
    engine overlaps segments across streams.  A final host-side gather of
    the output is appended when configured.
    """
    engine = engine or SimEngine(device)
    pool = StreamPool(device, num_streams=config.num_streams, engine=engine)
    segments = plan_segments(n_rows, in_row_nbytes, config)

    for seg in segments:
        stream = pool.streams[seg.index % pool.num_streams]
        in_bytes = seg.n_rows * in_row_nbytes
        out_bytes = seg.n_rows * output_selectivity * out_row_nbytes
        stream.h2d(in_bytes, config.memory, tag=f"h2d.seg{seg.index}")
        for spec in kernel_builder(seg):
            stream.kernel(spec, tag=f"{spec.name}.seg{seg.index}")
        thunk = (lambda s=seg: segment_thunk(s)) if segment_thunk else None
        if out_bytes > 0:
            stream.d2h(out_bytes, config.memory, tag=f"d2h.seg{seg.index}",
                       thunk=thunk)
        elif thunk is not None:
            # results stay on device (out_row_nbytes=0): no transfer to
            # occupy the D2H engine, so fire the thunk when the segment's
            # last command completes instead
            last = stream.sim.commands[-1]
            if last.thunk is None:
                last.thunk = thunk
            else:
                def chained(prev=last.thunk, t=thunk):
                    prev()
                    t()
                last.thunk = chained

    timeline = pool.wait_all()

    if config.host_gather:
        out_bytes_total = n_rows * output_selectivity * out_row_nbytes
        gather_time = out_bytes_total / costs.host_gather_bw
        t0 = timeline.end_time
        timeline.add(t0, t0 + gather_time, EventKind.HOST, "cpu_gather",
                     nbytes=out_bytes_total)
    return timeline
