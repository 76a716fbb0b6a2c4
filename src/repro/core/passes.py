"""The compilation pipeline: rewrites -> fusion -> strategy -> lowering.

"Our current efforts are focused on automation of these optimizations in
the compiler" (SS VII).  This module is that automation, end to end: give
it a logical plan and input cardinalities and it returns a
:class:`CompiledPlan` -- the optimized plan, the fused regions, the chosen
execution strategy with its rationale, and the lowered kernel chains --
ready to execute or inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..plans.plan import Plan
from ..plans.rewrite import optimize_plan
from ..simgpu.device import DeviceSpec
from .cost import FusionCostModel
from .fusion import FusionResult, fuse_plan
from .kernel import KernelChain
from .stagecosts import DEFAULT_STAGE_COSTS, StageCostParams


@dataclass(frozen=True)
class PipelineOptions:
    """What the pipeline is allowed to do."""

    rewrite: bool = True          # plan-level rewrites before fusion
    fuse: bool = True             # the fusion pass
    use_cost_model: bool = True   # register-pressure-aware fusion decisions
    auto_strategy: bool = True    # pick serial/fused/fission automatically


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
                 device: DeviceSpec | None = None,
                 options: PipelineOptions = PipelineOptions(),
                 costs: StageCostParams = DEFAULT_STAGE_COSTS) -> CompiledPlan:
    """Run the full pipeline on a logical plan."""
    from ..runtime.executor import LoweredRegion
    from ..runtime.sizes import estimate_sizes
    from ..runtime.strategies import Strategy

    device = device or DeviceSpec()
    plan.validate()

    optimized = optimize_plan(plan) if options.rewrite else plan
    cost_model = (FusionCostModel(device, costs)
                  if options.fuse and options.use_cost_model else None)
    fusion = fuse_plan(optimized, cost_model=cost_model, enable=options.fuse)

    sizes = estimate_sizes(optimized, source_rows)
    chains = [LoweredRegion.of(region, sizes, costs).chain
              for region in fusion.regions]

    if options.auto_strategy:
        from ..optimizer import Optimizer
        decision = Optimizer(device, costs=costs).choose(
            optimized, source_rows, include_cpubase=False)
        strategy = decision.chosen.option.strategy
        reasons = tuple(
            f"{c.label}: {c.price_text()}"
            + (" (chosen)" if c.option == decision.chosen.option else "")
            for c in decision.ranked())
    else:
        strategy = Strategy.FUSED if options.fuse else Strategy.SERIAL
        reasons = ("strategy fixed by pipeline options",)

    return CompiledPlan(
        source_plan=plan, plan=optimized, fusion=fusion, chains=chains,
        strategy=strategy, strategy_reasons=tuple(reasons),
        source_rows=dict(source_rows), device=device,
    )
