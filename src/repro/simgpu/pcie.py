"""PCIe 2.0 transfer-time model (paper Fig 4(b)).

The model captures the four measured curves -- {pinned, paged} x {H2D, D2H}
-- with three effects:

1. a fixed per-transfer latency (driver + DMA setup),
2. a bandwidth ramp for small transfers (half-saturation size), and
3. for pinned memory, a mild degradation at very large sizes ("the lower OS
   performance caused by large amount of pinned memory").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .calibration import PcieCalibration


class Direction(enum.Enum):
    H2D = "h2d"  # CPU writes GPU
    D2H = "d2h"  # CPU reads GPU


class HostMemory(enum.Enum):
    PINNED = "pinned"
    PAGED = "paged"


@dataclass(frozen=True)
class PcieModel:
    calib: PcieCalibration

    def _asymptotic_bw(self, direction: Direction, memory: HostMemory) -> float:
        c = self.calib
        h2d = direction is Direction.H2D
        if memory is HostMemory.PINNED:
            return c.pinned_h2d_bw if h2d else c.pinned_d2h_bw
        return c.paged_h2d_bw if h2d else c.paged_d2h_bw

    def peak_bandwidth(self, direction: Direction, memory: HostMemory) -> float:
        """The fastest any transfer can stream: ``transfer_time(n) >=
        n / peak_bandwidth`` for every ``n``, because the ramp and the
        pinned degradation only lower the asymptote, and the latency and
        the ``host_share_bw`` cap only add time."""
        bw = self._asymptotic_bw(direction, memory)
        if self.calib.host_share_bw is not None:
            bw = min(bw, self.calib.host_share_bw)
        return bw

    def bandwidth(self, nbytes: float, direction: Direction, memory: HostMemory) -> float:
        """Effective bandwidth (bytes/s) for a transfer of `nbytes`.

        Excludes the fixed latency term; see :meth:`transfer_time` for the
        full cost, and :meth:`effective_bandwidth` for the end-to-end value
        the Fig 4(b) bench plots.
        """
        if nbytes <= 0:
            return self._asymptotic_bw(direction, memory)
        c = self.calib
        bw = self._asymptotic_bw(direction, memory)
        # small-transfer ramp
        bw *= nbytes / (nbytes + c.half_saturation_bytes)
        # large pinned-allocation degradation
        if memory is HostMemory.PINNED and nbytes > c.pinned_degradation_onset_bytes:
            over = nbytes - c.pinned_degradation_onset_bytes
            frac = min(1.0, over / c.pinned_degradation_span_bytes)
            bw *= 1.0 - c.pinned_degradation * frac
        return bw

    def transfer_time(self, nbytes: float, direction: Direction, memory: HostMemory,
                      host_slowdown: float = 1.0) -> float:
        """Wall-clock seconds to move `nbytes` across PCIe.

        ``host_slowdown`` models a loaded host slowing the staging path
        (fault injection, see :mod:`repro.faults`): paged transfers bounce
        through a host buffer whose memcpy stretches by that factor, while
        pinned transfers DMA directly and only pay it on the setup latency.
        """
        if nbytes <= 0:
            return 0.0
        t = self.calib.latency_s + nbytes / self.bandwidth(nbytes, direction, memory)
        if self.calib.host_share_bw is not None:
            # shared-host contention is a *throughput cap*, not a link
            # property: the transfer cannot stream faster than this
            # device's share of host DRAM bandwidth, but the per-link
            # latency and small-transfer knee are unchanged by neighbours
            t = max(t, self.calib.latency_s + nbytes / self.calib.host_share_bw)
        if host_slowdown > 1.0:
            if memory is HostMemory.PAGED:
                t += (host_slowdown - 1.0) * nbytes / self.bandwidth(
                    nbytes, direction, memory)
            else:
                t += (host_slowdown - 1.0) * self.calib.latency_s
        return t

    def effective_bandwidth(
        self, nbytes: float, direction: Direction, memory: HostMemory
    ) -> float:
        """End-to-end bandwidth including latency (what bandwidthTest reports)."""
        t = self.transfer_time(nbytes, direction, memory)
        return nbytes / t if t > 0 else 0.0
