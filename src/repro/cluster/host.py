"""Shared-host PCIe contention model for the simulated cluster.

All N devices hang off one host (the paper's Table II host, N slots).
Each device keeps its *own* PCIe x16 link -- links are point-to-point --
but every staging transfer is ultimately a host-DRAM read or write, and
the host memory system is shared.  So the per-device staging bandwidth
when ``sharers`` devices transfer concurrently is::

    min(link_bw, host_staging_bw / sharers)

with ``host_staging_bw`` the host's aggregate streaming bandwidth
(:class:`~repro.simgpu.calibration.CpuCalibration` ``read_bw``, 25 GB/s).
Few devices are link-limited (no contention visible); many devices become
host-memory-limited and per-device bandwidth falls off as 1/N -- the
crossover at ``host_bw / link_bw`` (~4 devices for the simulated C2070
host) is what bends the scaling curves in ``BENCH_cluster.json``.

We model this statically: each device gets a
:class:`~repro.simgpu.device.DeviceSpec` whose PCIe calibration carries
the shared-host quotient as a **throughput cap**
(``PcieCalibration.host_share_bw``): a transfer of ``n`` bytes takes
``max(link_time(n), latency + n / (host_bw / sharers))``.  The fixed
per-transfer latency and the saturation knee are per-link properties and
stay unchanged -- capping the *asymptotic* link bandwidths instead (the
old model) silently multiplied the small-transfer knee penalty by the
sharer count, which is what produced the spurious 4->8-device regression
in early ``BENCH_cluster.json`` snapshots.  Static (rather than
time-varying) contention keeps every
per-device :class:`~repro.simgpu.engine.SimEngine` run a pure function of
its own inputs -- the property the validation layer and the
byte-identical CI smoke depend on -- at the cost of being conservative
when devices' transfer phases do not actually overlap (docs/CLUSTER.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from ..simgpu.calibration import Calibration
from ..simgpu.device import DeviceSpec


def contended_calibration(calib: Calibration, sharers: int,
                          host_staging_bw: float | None = None) -> Calibration:
    """`calib` with staging throughput capped at the shared-host quotient.

    The four asymptotic link bandwidths, the latency, and the saturation
    knee are untouched (they are per-link properties); the cap rides in
    ``pcie.host_share_bw`` and applies in
    :meth:`repro.simgpu.pcie.PcieModel.transfer_time` as a floor on
    transfer time, so contention never amplifies the small-transfer knee.
    """
    sharers = max(1, int(sharers))
    if sharers == 1:
        return calib
    host_bw = (host_staging_bw if host_staging_bw is not None
               else calib.cpu.read_bw)
    cap = host_bw / sharers
    return replace(calib, pcie=replace(calib.pcie, host_share_bw=cap))


def contended_device(base: DeviceSpec, sharers: int,
                     host_staging_bw: float | None = None) -> DeviceSpec:
    """`base` as seen when `sharers` devices share the host's memory.

    Equal inputs give the same object, so the simulator's per-device
    memos (keyed on the device) find it by identity instead of comparing
    two equal specs field by field."""
    if max(1, int(sharers)) == 1:
        return base
    return _contended_device(base, int(sharers), host_staging_bw)


@lru_cache(maxsize=256)
def _contended_device(base: DeviceSpec, sharers: int,
                      host_staging_bw: float | None) -> DeviceSpec:
    return replace(base, calib=contended_calibration(
        base.calib, sharers, host_staging_bw))


@dataclass(frozen=True)
class ClusterSpec:
    """Static shape of the simulated cluster.

    ``pcie_sharers`` defaults to ``num_devices`` (every device's staging
    phases overlap -- the conservative worst case); callers that know the
    phases are staggered can pass a smaller value.
    """

    num_devices: int = 4
    base: DeviceSpec = DeviceSpec()
    pcie_sharers: int | None = None

    def __post_init__(self):
        if self.num_devices < 1:
            raise ValueError(
                f"num_devices must be >= 1, got {self.num_devices}")

    @property
    def sharers(self) -> int:
        if self.pcie_sharers is None:
            return self.num_devices
        return max(1, min(self.pcie_sharers, self.num_devices))

    def devices(self) -> list[DeviceSpec]:
        """One contended DeviceSpec per cluster slot."""
        dev = contended_device(self.base, self.sharers)
        return [dev for _ in range(self.num_devices)]
