"""Optimizer lints (OPT5xx): pricing checks on hand-forced strategies.

A caller who pins an execution strategy (an
:class:`~repro.optimizer.StrategyTarget`) opts out of the cost-based
optimizer -- legal, but worth auditing: the forced choice may be far
off what the analytic cost model would pick for the declared input
sizes.  The pass prices the whole single-device + host strategy space
analytically (no simulation, so the lint stays cheap enough for CI)
and flags forced choices that the model says leave large factors on
the table.

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
OPT501    warning   forced strategy analytically priced >= 2x the best
                    enumerated option for the declared input sizes
OPT502    info      the host baseline prices below every GPU option:
                    the input sits on the CPU side of the CPU/GPU
                    crossover, so any forced GPU strategy pays the
                    PCIe round trip for nothing
========  ========  ====================================================
"""

from __future__ import annotations

from ..optimizer.costmodel import CostModel
from ..optimizer.space import CPU_BASELINE, StrategyTarget, enumerate_options
from ..optimizer.stats import DataStats
from ..simgpu.device import DeviceSpec
from .diagnostics import Diagnostic, Severity, SourceLocation

#: OPT501 fires when forced price / best price reaches this factor
OVERPRICE_FACTOR = 2.0


class OptimizerLintPass:
    """All OPT5xx checks over one
    :class:`~repro.optimizer.StrategyTarget`."""

    name = "optimizer-lints"
    codes = ("OPT501", "OPT502")

    def __init__(self, device: DeviceSpec | None = None):
        self.device = device or DeviceSpec()
        self.model = CostModel(self.device)

    def run(self, target: StrategyTarget) -> list[Diagnostic]:
        plan = target.plan
        plan.validate()
        stats = DataStats.from_rows(plan, target.source_rows)
        prices: dict[str, float] = {}
        for option in enumerate_options(plan, stats):
            try:
                prices[option.label] = self.model.estimate(
                    plan, stats, option).total_s
            except Exception:  # unpriceable shape: not this lint's problem
                continue
        diags: list[Diagnostic] = []
        self._overpriced(target, prices, diags)
        self._crossover(target, prices, diags)
        return diags

    # -- helpers ---------------------------------------------------------
    def _diag(self, target: StrategyTarget, code: str, severity: Severity,
              message: str) -> Diagnostic:
        return Diagnostic(
            code=code, severity=severity, message=message,
            location=SourceLocation(target.plan.name, "strategy",
                                    target.forced_label),
            pass_name=self.name)

    def _overpriced(self, target: StrategyTarget, prices: dict[str, float],
                    diags: list[Diagnostic]) -> None:
        """OPT501: the forced strategy leaves >= 2x on the table."""
        forced = prices.get(target.forced_label)
        if forced is None or not prices:
            return
        best_label, best = min(prices.items(), key=lambda kv: kv[1])
        if best > 0 and forced / best >= OVERPRICE_FACTOR:
            diags.append(self._diag(
                target, "OPT501", Severity.WARNING,
                f"forced strategy {target.forced_label!r} prices at "
                f"{forced * 1e3:.3f} ms, {forced / best:.1f}x the best "
                f"option {best_label!r} ({best * 1e3:.3f} ms); drop the "
                f"override and let the optimizer choose"))

    def _crossover(self, target: StrategyTarget, prices: dict[str, float],
                   diags: list[Diagnostic]) -> None:
        """OPT502: input is on the CPU side of the crossover."""
        host = prices.get(CPU_BASELINE)
        gpu = [p for label, p in prices.items() if label != CPU_BASELINE]
        if host is None or not gpu or target.forced_label == CPU_BASELINE:
            return
        if host < min(gpu):
            diags.append(self._diag(
                target, "OPT502", Severity.INFO,
                f"host baseline ({host * 1e3:.3f} ms) prices below every "
                f"GPU option (best {min(gpu) * 1e3:.3f} ms): this input "
                f"is on the CPU side of the crossover and the forced "
                f"{target.forced_label!r} pays the PCIe round trip "
                f"for nothing"))
