"""The analytic cost model: closed-form prices over the calibration.

Prices a single-device or host
:class:`~repro.optimizer.space.StrategyOption` from the same constants
the simulator runs on (:mod:`repro.simgpu.calibration`) plus
:class:`~repro.optimizer.stats.DataStats` -- no simulation.  The
estimates are deliberately simple roofline-style sums (PCIe transfer
curves + memory-bandwidth-bound kernels + launch overhead + the CPU
calibration for host work), which buys two properties the tests pin
down:

* **monotone in row count** -- every term grows with bytes moved;
* **fast** -- the OPT5xx analyzer lints price a whole single-device
  strategy space in microseconds.

It has two users.  The OPT5xx lints (:mod:`repro.analyze.opt_lints`)
compare a forced strategy against these prices.  The optimizer reads
only the host baseline's price, ``host_plan_time``, which is exact and
so serves as that option's lower bound.  It does not order or explain
the optimizer's choices: those are the simulated makespans and the
bounds of :meth:`~repro.optimizer.optimizer.Optimizer.choose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cpubase.select import host_plan_time
from ..plans.plan import Plan
from ..runtime.sizes import PlanShape, node_bytes, region_bytes
from ..runtime.strategies import ROUNDTRIP_MEMORY, STAGING_MEMORY, Strategy
from ..simgpu.device import DeviceSpec
from ..simgpu.pcie import Direction, PcieModel
from .space import StrategyOption
from .stats import DataStats

#: fraction of the smaller of (transfer, compute) a fission pipeline is
#: assumed to hide (segment ramp-up/down keeps it below 1.0)
_FISSION_OVERLAP = 0.85


@dataclass(frozen=True)
class CostEstimate:
    """Priced components of one strategy option (seconds)."""

    option: StrategyOption
    h2d_s: float = 0.0
    kernel_s: float = 0.0
    d2h_s: float = 0.0
    launch_s: float = 0.0
    #: intermediate host round trips (WITH_ROUND_TRIP only)
    roundtrip_s: float = 0.0
    #: CPU work (the host baseline)
    host_s: float = 0.0
    #: time hidden by pipelining (fission overlap); subtracted
    overlap_s: float = 0.0

    @property
    def total_s(self) -> float:
        return max(0.0, self.h2d_s + self.kernel_s + self.d2h_s
                   + self.launch_s + self.roundtrip_s + self.host_s
                   - self.overlap_s)


class CostModel:
    """Analytic strategy pricing over one device's calibration."""

    def __init__(self, device: DeviceSpec | None = None):
        self.device = device or DeviceSpec()
        self.pcie = PcieModel(self.device.calib.pcie)

    # ------------------------------------------------------------------
    def estimate(self, plan: "Plan | PlanShape", stats: DataStats,
                 option: StrategyOption) -> CostEstimate:
        """Price one single-device or host option.  Pricing several
        options over one :class:`PlanShape` estimates sizes and fuses the
        plan once."""
        shape = PlanShape.of(plan)
        if option.kind == "cpubase":
            return CostEstimate(option=option, host_s=host_plan_time(
                shape.plan.nodes, shape.sizes(stats.source_rows()),
                self.device.calib.cpu))
        return self._estimate_single(shape, stats, option)

    # -- single device ---------------------------------------------------
    def _estimate_single(self, shape: PlanShape, stats: DataStats,
                         option: StrategyOption) -> CostEstimate:
        strategy = option.strategy
        pcie = self.pcie
        gpu = self.device.calib.gpu
        plan = shape.plan
        sizes = shape.sizes(stats.source_rows())

        input_bytes = sum(node_bytes(s, sizes) for s in plan.sources())
        output_bytes = sum(node_bytes(n, sizes) for n in plan.sinks())
        # sources and outputs stage through pinned buffers under every
        # strategy, as the Executor stages them
        h2d_s = pcie.transfer_time(input_bytes, Direction.H2D, STAGING_MEMORY)
        d2h_s = pcie.transfer_time(output_bytes, Direction.D2H,
                                   STAGING_MEMORY)

        kernel_s = 0.0
        launches = 0
        roundtrip_s = 0.0
        for region in shape.fusion(strategy.uses_fusion).regions:
            primary, in_b, out_b = region_bytes(region, sizes)
            touched = in_b + out_b
            if region.is_barrier_op:
                # multi-pass device sort/group: log2(n) sweeps over the data
                n_in = sizes[primary.name]
                touched *= max(1.0, math.log2(max(float(n_in), 2.0)) / 4.0)
            kernel_s += touched / gpu.mem_bw
            launches += 1
            # every intermediate result bounces through host memory under
            # the paper's "with round trip" baseline (SS III-B)
            if (strategy is Strategy.WITH_ROUND_TRIP
                    and out_b > 0.0):
                roundtrip_s += (
                    pcie.transfer_time(out_b, Direction.D2H, ROUNDTRIP_MEMORY)
                    + pcie.transfer_time(out_b, Direction.H2D,
                                         ROUNDTRIP_MEMORY))
        launch_s = launches * gpu.kernel_launch_s

        overlap_s = 0.0
        if strategy.uses_fission:
            # the pipelined prefix hides transfer under compute (or vice
            # versa): the smaller of the two, discounted for segment ramp
            overlap_s = _FISSION_OVERLAP * min(h2d_s, kernel_s)

        return CostEstimate(
            option=option, h2d_s=h2d_s, kernel_s=kernel_s, d2h_s=d2h_s,
            launch_s=launch_s, roundtrip_s=roundtrip_s, overlap_s=overlap_s)
