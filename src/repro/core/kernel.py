"""Kernel IR: operators as multi-stage GPU kernels.

An RA *operator kernel* (paper SS II) is one or more CUDA kernels built from
stages.  Following Diamos et al.'s SELECT (Fig 3):

* a **compute kernel** = PARTITION -> compute stage(s) -> BUFFER,
* a global synchronization, then
* a **gather kernel** = GATHER.

Fusion (Fig 6) chains multiple compute stages inside one compute kernel and
shares a single partition/buffer/gather -- this module provides the stage
and kernel dataclasses that make that rewrite a simple list operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..simgpu.compute import KernelLaunchSpec, default_grid
from ..simgpu.device import DeviceSpec


class StageKind(enum.Enum):
    PARTITION = "partition"
    FILTER = "filter"
    MAP = "map"
    PROJECT = "project"
    JOIN_PROBE = "join_probe"
    SET_LOOKUP = "set_lookup"
    PRODUCT_EXPAND = "product_expand"
    REDUCE = "reduce"
    HASH_BUILD = "hash_build"
    SORT_PASS = "sort_pass"
    BUFFER = "buffer"
    GATHER = "gather"


#: stage kinds that do per-element work between partition and buffer
COMPUTE_STAGE_KINDS = frozenset({
    StageKind.FILTER, StageKind.MAP, StageKind.PROJECT, StageKind.JOIN_PROBE,
    StageKind.SET_LOOKUP, StageKind.PRODUCT_EXPAND, StageKind.REDUCE,
})


@dataclass(frozen=True)
class StageSpec:
    """Cost description of one stage, per element *entering* the stage.

    ``selectivity`` is elements leaving / elements entering; traffic and
    instruction figures are per entering element except
    ``writes_bytes_per_output`` which is per *leaving* element.
    """

    kind: StageKind
    name: str
    insts_per_input: float = 0.0
    reads_bytes_per_input: float = 0.0
    writes_bytes_per_output: float = 0.0
    selectivity: float = 1.0
    regs: int = 0


@dataclass
class Kernel:
    """One simulated CUDA kernel: an ordered list of stages.

    ``op_names`` records which logical plan operators contributed stages
    (one for a plain kernel, several for a fused kernel).
    """

    name: str
    stages: list[StageSpec]
    op_names: list[str] = field(default_factory=list)
    base_regs: int = 10

    @property
    def regs_per_thread(self) -> int:
        """Register pressure: base + every stage's live registers.

        This is the quantity fusion's cost model watches -- "each thread has
        to store more intermediate data" (SS III-C).
        """
        return self.base_regs + sum(s.regs for s in self.stages)

    @property
    def output_selectivity(self) -> float:
        sel = 1.0
        for s in self.stages:
            sel *= s.selectivity
        return sel

    def traffic_and_insts(self, n_in: int) -> tuple[float, float, float]:
        """(bytes_read, bytes_written, instructions) for `n_in` inputs."""
        reads = writes = insts = 0.0
        alive = float(n_in)
        for s in self.stages:
            insts += alive * s.insts_per_input
            reads += alive * s.reads_bytes_per_input
            alive *= s.selectivity
            writes += alive * s.writes_bytes_per_output
        return reads, writes, insts

    def launch_spec(self, n_in: int, device: DeviceSpec,
                    resource_fraction: float = 1.0) -> KernelLaunchSpec:
        reads, writes, insts = self.traffic_and_insts(n_in)
        ctas, threads = default_grid(n_in, device, resource_fraction=resource_fraction)
        return KernelLaunchSpec(
            name=self.name,
            num_elements=n_in,
            num_ctas=ctas,
            threads_per_cta=threads,
            regs_per_thread=self.regs_per_thread,
            bytes_read=reads,
            bytes_written=writes,
            instructions=insts,
        )

    def duration(self, n_in: int, device: DeviceSpec,
                 resource_fraction: float = 1.0) -> float:
        from ..simgpu.compute import kernel_duration
        return kernel_duration(device, self.launch_spec(n_in, device, resource_fraction))


@dataclass
class KernelChain:
    """The kernels implementing one operator (or one fused region), in order.

    For the standard skeleton this is ``[compute_kernel, gather_kernel]``;
    barrier operators (SORT, ...) may contribute a different shape.
    `side_kernels` are prerequisite kernels over *other* inputs (the
    hash-build of a JOIN) that must run before the chain; each is paired
    with the plan node whose result it consumes, so the executor can size
    it.
    """

    name: str
    kernels: list[Kernel]
    side_kernels: list[tuple[Kernel, object]] = field(default_factory=list)

    @property
    def output_selectivity(self) -> float:
        sel = 1.0
        for k in self.kernels:
            sel *= k.output_selectivity
        return sel

    def side_launch_specs(self, device: DeviceSpec,
                          side_sizes: dict[str, int] | None = None
                          ) -> list[KernelLaunchSpec]:
        """Launch specs of the prerequisite (build) kernels, each sized by
        its feed node's entry in `side_sizes` (rows by node name, e.g. a
        whole plan's row map; a missing node counts as one row)."""
        specs: list[KernelLaunchSpec] = []
        for kern, feed_node in self.side_kernels:
            n_side = (side_sizes or {}).get(feed_node.name, 0)
            specs.append(kern.launch_spec(max(int(n_side), 1), device))
        return specs

    def main_launch_specs(self, n_in: int, device: DeviceSpec,
                          resource_fraction: float = 1.0) -> list[KernelLaunchSpec]:
        """Launch specs of the main kernels (compute [+ gather])."""
        specs: list[KernelLaunchSpec] = []
        alive = n_in
        for k in self.kernels:
            specs.append(k.launch_spec(alive, device, resource_fraction))
            alive = int(round(alive * k.output_selectivity))
        return specs

    def launch_specs(self, n_in: int, device: DeviceSpec,
                     side_sizes: dict[str, int] | None = None,
                     resource_fraction: float = 1.0) -> list[KernelLaunchSpec]:
        """Launch specs for the chain in execution order (side builds first)."""
        return (self.side_launch_specs(device, side_sizes)
                + self.main_launch_specs(n_in, device, resource_fraction))

    def total_duration(self, n_in: int, device: DeviceSpec,
                       side_sizes: dict[str, int] | None = None) -> float:
        from ..simgpu.compute import kernel_duration
        return sum(kernel_duration(device, s)
                   for s in self.launch_specs(n_in, device, side_sizes))
