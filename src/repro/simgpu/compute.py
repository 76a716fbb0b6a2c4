"""Kernel timing model: occupancy-scaled roofline + launch overhead.

A kernel launch is described by :class:`KernelLaunchSpec` -- its grid shape,
per-thread register demand, and its total global-memory traffic and
instruction count.  Simulated duration is::

    t = launch + max(traffic / mem_bw, instructions / inst_rate) / utilization

where *utilization* ramps with resident threads (so small grids and
half-resource grids run below peak, reproducing Fig 12) and register
pressure beyond the Fermi per-thread limit is charged as spill traffic
(the cost-model caveat of SS III-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .device import DeviceSpec

#: Default CTA shape used by the RA kernel implementations (grid-stride
#: loops sized to the device, as in Diamos et al.'s primitives).
DEFAULT_THREADS_PER_CTA = 256
DEFAULT_CTAS_PER_SM = 8

#: fit: throughput penalty applied to kernels that share the device with
#: another co-resident kernel (cache/DRAM interference; Fig 12 shows
#: concurrent streams losing to a single full kernel at large N, with the
#: crossover near 8M elements).
CONCURRENT_PENALTY = 0.96

#: fit: host-side cudaDeviceSynchronize-style overhead paid between
#: operator invocations in the unstreamed execution path (Fig 12).
DEVICE_SYNC_S = 25e-6

SPILL_BYTES_PER_REG = 8  # one 4-byte store + one 4-byte load per excess reg


@dataclass(frozen=True)
class KernelLaunchSpec:
    """Everything the timing model needs about one kernel launch."""

    name: str
    num_elements: int
    num_ctas: int
    threads_per_cta: int
    regs_per_thread: int
    bytes_read: float
    bytes_written: float
    instructions: float
    shared_bytes_per_cta: int = 0

    def scaled(self, factor: float, name: str | None = None) -> "KernelLaunchSpec":
        """A launch processing `factor` times the elements (same grid)."""
        return replace(
            self,
            name=name or self.name,
            num_elements=max(0, int(round(self.num_elements * factor))),
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            instructions=self.instructions * factor,
        )

    @property
    def total_traffic(self) -> float:
        return self.bytes_read + self.bytes_written


def default_grid(
    n_elements: int,
    device: DeviceSpec,
    threads_per_cta: int = DEFAULT_THREADS_PER_CTA,
    resource_fraction: float = 1.0,
) -> tuple[int, int]:
    """(num_ctas, threads_per_cta) for a grid-stride launch.

    `resource_fraction` < 1 reproduces the paper's "no stream (new)"
    configuration that uses half the threads and CTAs.
    """
    threads = max(1, int(threads_per_cta * resource_fraction))
    full_ctas = max(1, int(DEFAULT_CTAS_PER_SM * device.num_sms * resource_fraction))
    ctas = min(full_ctas, max(1, math.ceil(n_elements / threads)))
    return ctas, threads


def kernel_duration(
    device: DeviceSpec,
    spec: KernelLaunchSpec,
    granted_sms: int | None = None,
    concurrent: bool = False,
) -> float:
    """Simulated wall-clock seconds for one kernel launch."""
    if spec.num_elements <= 0:
        return device.kernel_launch_s

    occ = device.occupancy(
        spec.threads_per_cta, spec.regs_per_thread, spec.shared_bytes_per_cta
    )

    sms = device.num_sms if granted_sms is None else max(1, min(granted_sms, device.num_sms))
    resident_ctas = min(spec.num_ctas, sms * max(occ.ctas_per_sm, 1))
    resident_threads = resident_ctas * spec.threads_per_cta
    util_inst = max(device.utilization(resident_threads, sms, kind="inst"), 1e-6)
    util_mem = max(device.utilization(resident_threads, sms, kind="mem"), 1e-6)

    t_mem = _traffic(device, spec) / device.mem_bw
    t_inst = spec.instructions / device.inst_rate
    t = device.kernel_launch_s + max(t_mem / util_mem, t_inst / util_inst)
    if concurrent:
        t /= CONCURRENT_PENALTY
    return t


def kernel_floor(device: DeviceSpec, spec: KernelLaunchSpec) -> float:
    """Seconds no launch of ``spec`` can beat: :func:`kernel_duration` at
    full utilization, ``launch + max(traffic / mem_bw, instructions /
    inst_rate)`` with the spill traffic counted.  The DES divides both
    terms by a utilization of at most 1 and a concurrent kernel by
    :data:`CONCURRENT_PENALTY` < 1, so every launch takes at least this
    long, compared exactly."""
    if spec.num_elements <= 0:
        return device.kernel_launch_s
    return device.kernel_launch_s + max(
        _traffic(device, spec) / device.mem_bw,
        spec.instructions / device.inst_rate)


def _traffic(device: DeviceSpec, spec: KernelLaunchSpec) -> float:
    """Global-memory bytes of one launch, with the register spills a
    thread past the per-thread limit pays."""
    traffic = spec.total_traffic
    g = device.calib.gpu
    if spec.regs_per_thread > g.max_regs_per_thread:
        excess = spec.regs_per_thread - g.max_regs_per_thread
        traffic += excess * SPILL_BYTES_PER_REG * spec.num_elements
    return traffic


def sms_requested(device: DeviceSpec, spec: KernelLaunchSpec) -> int:
    """SMs this launch would need for full co-residency."""
    occ = device.occupancy(
        spec.threads_per_cta, spec.regs_per_thread, spec.shared_bytes_per_cta
    )
    return device.sms_needed(spec.num_ctas, occ)
