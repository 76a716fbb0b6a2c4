"""Optimizer lints (OPT5xx): pricing checks on hand-forced strategies.

A caller who pins an execution strategy (an
:class:`~repro.optimizer.StrategyTarget`) opts out of the cost-based
optimizer -- legal, but worth auditing: the forced choice may be far
off what the optimizer would pick for the declared input sizes.  The
pass asks :meth:`~repro.optimizer.Optimizer.choose` for its decision
over the single-device + host strategy space and reads the simulated
prices the chooser compares, so a lint and the choice never disagree.
The forced option's price is its simulated makespan; when branch and
bound pruned it, the lint uses its lower bound if that alone reaches
the OPT501 factor, and otherwise simulates it once.  A plan with no
feasible option gets no OPT5xx diagnostic.

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
OPT501    warning   forced strategy priced >= 2x the optimizer's choice
                    for the declared input sizes
OPT502    info      the optimizer picks the host baseline: the input
                    sits on the CPU side of the CPU/GPU crossover, so
                    any forced GPU strategy pays the PCIe round trip
                    for nothing
========  ========  ====================================================
"""

from __future__ import annotations

import dataclasses

from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..errors import PlanError
from ..optimizer.optimizer import Decision, Optimizer
from ..optimizer.space import CPU_BASELINE, StrategyTarget
from ..optimizer.stats import DataStats
from ..runtime.sizes import PlanShape
from ..simgpu.device import DeviceSpec
from .diagnostics import Diagnostic, Severity, SourceLocation

#: OPT501 fires when forced price / chosen price reaches this factor
OVERPRICE_FACTOR = 2.0


class OptimizerLintPass:
    """All OPT5xx checks over one
    :class:`~repro.optimizer.StrategyTarget`."""

    name = "optimizer-lints"
    codes = ("OPT501", "OPT502")

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS):
        self.optimizer = Optimizer(device, costs)

    def run(self, target: StrategyTarget) -> list[Diagnostic]:
        plan = target.plan
        plan.validate()  # a malformed plan raises; it is not "infeasible"
        shape = PlanShape(plan)
        stats = DataStats.from_rows(plan, target.source_rows)
        try:
            decision = self.optimizer.choose(shape, stats=stats)
        except PlanError:  # no feasible option: nothing to compare
            return []
        diags: list[Diagnostic] = []
        self._overpriced(target, shape, stats, decision, diags)
        self._crossover(target, decision, diags)
        return diags

    # -- helpers ---------------------------------------------------------
    def _diag(self, target: StrategyTarget, code: str, severity: Severity,
              message: str) -> Diagnostic:
        return Diagnostic(
            code=code, severity=severity, message=message,
            location=SourceLocation(target.plan.name, "strategy",
                                    target.forced_label),
            pass_name=self.name)

    def _overpriced(self, target: StrategyTarget, shape: PlanShape,
                    stats: DataStats, decision: Decision,
                    diags: list[Diagnostic]) -> None:
        """OPT501: the forced strategy leaves >= 2x on the table."""
        forced = next((c for c in decision.candidates
                       if c.label == target.forced_label), None)
        best = decision.chosen
        if forced is None or not forced.feasible or best.price_s <= 0:
            return
        if forced.pruned and (forced.bound_s
                              < OVERPRICE_FACTOR * best.price_s):
            # the bound alone does not settle it: simulate once
            sim, feasible, _, _ = self.optimizer._simulate(
                shape, stats, forced.option)
            if not feasible:
                return
            forced = dataclasses.replace(forced, sim_makespan_s=sim)
        ratio = forced.price_s / best.price_s
        if ratio >= OVERPRICE_FACTOR:
            diags.append(self._diag(
                target, "OPT501", Severity.WARNING,
                f"forced strategy {target.forced_label!r} prices at "
                f"{forced.price_text()}, {ratio:.1f}x the best option "
                f"{best.label!r} ({best.price_text()}); drop the "
                f"override and let the optimizer choose"))

    def _crossover(self, target: StrategyTarget, decision: Decision,
                   diags: list[Diagnostic]) -> None:
        """OPT502: input is on the CPU side of the crossover."""
        host = decision.chosen
        gpu = [c for c in decision.ranked() if c.label != CPU_BASELINE]
        if (host.label != CPU_BASELINE or not gpu
                or target.forced_label == CPU_BASELINE):
            return
        diags.append(self._diag(
            target, "OPT502", Severity.INFO,
            f"host baseline ({host.price_text()}) prices below every GPU "
            f"option (best {gpu[0].label!r}: {gpu[0].price_text()}): this "
            f"input is on the CPU side of the crossover and the forced "
            f"{target.forced_label!r} pays the PCIe round trip "
            f"for nothing"))
