"""The compilation pipeline: rewrites -> strategy -> fusion -> lowering.

"Our current efforts are focused on automation of these optimizations in
the compiler" (SS VII).  This module is that automation, end to end: give
it a logical plan and input cardinalities and it returns a
:class:`CompiledPlan` -- the optimized plan, the chosen execution
strategy with its rationale, the fused regions and the lowered kernel
chains -- ready to execute or inspect.

It adds no model of its own.  The strategy is the
:class:`~repro.optimizer.Optimizer`'s single-device choice, and the
regions are the ones the :class:`~repro.runtime.executor.Executor` runs
under that strategy (one :class:`~repro.runtime.sizes.PlanShape` feeds
both), so what :meth:`CompiledPlan.describe` shows is what
:meth:`CompiledPlan.run` executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plans.plan import Plan
from ..plans.rewrite import optimize_plan
from ..simgpu.device import DeviceSpec
from .fusion import FusionResult
from .kernel import KernelChain


@dataclass
class CompiledPlan:
    """The pipeline's output artifact."""

    source_plan: Plan
    plan: Plan                    # after rewrites
    fusion: FusionResult
    chains: list[KernelChain]
    strategy: object              # runtime.Strategy (late import to avoid cycle)
    strategy_reasons: tuple[str, ...]
    source_rows: dict[str, int]
    device: DeviceSpec

    @property
    def num_kernels(self) -> int:
        return sum(len(c.kernels) + len(c.side_kernels) for c in self.chains)

    @property
    def max_register_pressure(self) -> int:
        regs = [k.regs_per_thread for c in self.chains for k in c.kernels]
        return max(regs) if regs else 0

    def describe(self) -> str:
        lines = [f"compiled plan {self.source_plan.name!r}:"]
        lines.append(f"  strategy: {getattr(self.strategy, 'value', self.strategy)}")
        for reason in self.strategy_reasons:
            lines.append(f"    - {reason}")
        lines.append(f"  kernels: {self.num_kernels} "
                     f"(max {self.max_register_pressure} regs/thread)")
        for line in self.fusion.describe().splitlines()[1:]:
            lines.append("  " + line.strip())
        return "\n".join(lines)

    def run(self, executor=None):
        """Execute under the chosen strategy; returns the RunResult."""
        from ..runtime.executor import Executor
        from ..runtime.strategies import ExecutionConfig
        executor = executor or Executor(self.device)
        return executor.run(self.plan, self.source_rows,
                            ExecutionConfig(strategy=self.strategy))


def compile_plan(plan: Plan, source_rows: dict[str, int],
                 device: DeviceSpec | None = None) -> CompiledPlan:
    """Run the full pipeline on a logical plan."""
    from ..optimizer import Optimizer
    from ..runtime.sizes import PlanShape

    device = device or DeviceSpec()
    plan.validate()

    optimized = optimize_plan(plan)
    shape = PlanShape(optimized)
    decision = Optimizer(device).choose(
        shape, source_rows, include_cpubase=False)
    strategy = decision.chosen.option.strategy
    reasons = tuple(
        f"{c.label}: {c.price_text()}"
        + (" (chosen)" if c.option == decision.chosen.option else "")
        for c in decision.ranked())

    fusion = shape.fusion(strategy.uses_fusion)
    chains = [lr.chain
              for lr in shape.lowered(strategy.uses_fusion, source_rows)]

    return CompiledPlan(
        source_plan=plan, plan=optimized, fusion=fusion, chains=chains,
        strategy=strategy, strategy_reasons=reasons,
        source_rows=dict(source_rows), device=device,
    )
