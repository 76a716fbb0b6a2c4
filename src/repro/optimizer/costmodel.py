"""The host baseline's price: ``host_plan_time`` over the calibration.

Prices the host (``cpubase``)
:class:`~repro.optimizer.space.StrategyOption` from the CPU calibration
the simulator runs on (:mod:`repro.simgpu.calibration`) plus
:class:`~repro.optimizer.stats.DataStats` -- no simulation.  The price
is exact: it is the makespan ``Executor.run_cpubase`` reports, so
:meth:`~repro.optimizer.optimizer.Optimizer._lower_bound` uses it as
that option's bound.

Device options have no closed-form price here.  Every report of what a
device strategy costs -- the chooser, ``explain()`` and the OPT5xx lints
(:mod:`repro.analyze.opt_lints`) -- reads the simulated makespans and
the bounds of :meth:`~repro.optimizer.optimizer.Optimizer.choose`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpubase.select import host_plan_time
from ..plans.plan import Plan
from ..runtime.sizes import PlanShape
from ..simgpu.device import DeviceSpec
from ..simgpu.pcie import PcieModel
from .space import StrategyOption
from .stats import DataStats


@dataclass(frozen=True)
class CostEstimate:
    """The host baseline's price (seconds)."""

    host_s: float


class CostModel:
    """Host-baseline pricing over one device's calibration."""

    def __init__(self, device: DeviceSpec | None = None):
        self.device = device or DeviceSpec()
        self.pcie = PcieModel(self.device.calib.pcie)

    def estimate(self, plan: "Plan | PlanShape", stats: DataStats,
                 option: StrategyOption) -> CostEstimate:
        """Price the host baseline; a device option raises ValueError."""
        if option.kind != "cpubase":
            raise ValueError(
                f"CostModel prices only the host baseline, not "
                f"{option.label!r}")
        shape = PlanShape.of(plan)
        return CostEstimate(host_s=host_plan_time(
            shape.plan.nodes, shape.sizes(stats.source_rows()),
            self.device.calib.cpu))
