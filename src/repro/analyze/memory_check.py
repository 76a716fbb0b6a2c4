"""Memory-safety checks (MEM7xx): prove or refute OOM-freedom statically.

A :class:`MemoryTarget` names a plan (or a
:class:`~repro.plans.distribute.DistributedPlan`), the row counts /
stats it will run with, and the strategies under consideration.  The
pass interprets the plan abstractly (:mod:`repro.analyze.absint`) and
compares per-strategy peak-footprint intervals against the device
budget.  The footprint and chunk rules are the executor's own
(:func:`repro.runtime.sizes.footprint` and
:func:`~repro.runtime.sizes.chunk_count`, which ``Executor._plan_chunks``
calls at dispatch), evaluated at the ends of the row intervals before
anything runs.

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
MEM701    error     certain OOM: the strategy's peak resident set lower
                    bound already exceeds the device budget with no
                    chunking escape (side inputs alone overflow, or a
                    barrier region blocks chunking)
MEM702    warning   possible OOM: the device budget falls inside the
                    peak-footprint interval (or the driver source is
                    statically ambiguous), so safety depends on
                    cardinalities the analysis cannot pin down
MEM703    info      chunked / pipelined execution proven sufficient:
                    the working set exceeds residency but fission
                    segments or serial chunking bound it under budget
MEM704    warning   cluster exchange hot destination: one device's
                    received exchange volume may exceed its budget
                    under the partition scheme and observed skew
MEM705    info      pre-aggregation is load-bearing for memory fit (raw
                    frontier exchange would overflow the destination
                    budget; partial-state blocks fit)
MEM706    info      fusion-savings report: bytes of intermediates the
                    fused form never materializes (the paper's
                    footprint claim, statically)
========  ========  ====================================================

The soundness contract (``tests/analyze/test_memory_soundness.py``):
a strategy this pass calls safe must never raise ``DeviceOOMError`` at
runtime for the same (plan, rows, device), and every runtime OOM must
carry a MEM701/MEM702 flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.fusion import fuse_plan
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..plans.distribute import DistributedPlan
from ..plans.plan import Plan
from ..runtime.strategies import CPU_BASELINE, ExecutionConfig, Strategy
from ..simgpu.device import DeviceSpec
from .absint import (Interval, StrategyFootprint, fusion_savings,
                     plan_envelopes, strategy_footprint)
from .diagnostics import Diagnostic, Severity, SourceLocation

#: strategies a single-device MemoryTarget is vetted against by default
DEFAULT_STRATEGIES: tuple = (
    Strategy.SERIAL, Strategy.FUSED, Strategy.FISSION,
    Strategy.FUSED_FISSION, Strategy.WITH_ROUND_TRIP, CPU_BASELINE,
)


@dataclass
class MemoryTarget:
    """A memory-safety question, as an analyzable unit.

    ``plan`` may be a plain :class:`~repro.plans.plan.Plan` (vetted per
    single-device strategy) or a :class:`DistributedPlan` (per-shard
    local phase plus exchange-volume bounds).  ``stats`` optionally
    seeds sources the ``source_rows`` mapping does not name and carries
    the skew the exchange bounds price.
    """

    plan: "Plan | DistributedPlan"
    source_rows: dict[str, int] | None = None
    stats: object = None
    strategies: tuple = DEFAULT_STRATEGIES
    #: device-memory safety margin
    memory_safety: float = ExecutionConfig.memory_safety
    #: override the analyzer's device for this one target
    device: DeviceSpec | None = None
    #: pre-compiled :class:`~repro.core.fusion.FusionResult` to vet
    #: instead of the default cost-model-free fuse (the executor
    #: pre-flight passes its own, so the verdict covers the exact
    #: regions it will dispatch)
    fusion: object = None

    @property
    def unit(self) -> str:
        return self.plan.name


class MemoryCheckPass:
    """All MEM7xx checks over one :class:`MemoryTarget`."""

    name = "memory-check"
    codes = ("MEM701", "MEM702", "MEM703", "MEM704", "MEM705", "MEM706")

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS):
        self.device = device or DeviceSpec()
        self.costs = costs

    # ------------------------------------------------------------------
    def run(self, target: MemoryTarget) -> list[Diagnostic]:
        device = target.device or self.device
        if isinstance(target.plan, DistributedPlan):
            return self._run_cluster(target, target.plan, device)
        return self._run_single(target, target.plan, device)

    # -- single device ---------------------------------------------------
    def _run_single(self, target: MemoryTarget, plan: Plan,
                    device: DeviceSpec) -> list[Diagnostic]:
        plan.validate()
        envs = plan_envelopes(plan, target.source_rows, target.stats)
        diags: list[Diagnostic] = []
        for strategy in target.strategies:
            fp = strategy_footprint(plan, strategy, envs, device,
                                    target.memory_safety,
                                    fusion=target.fusion)
            diags.extend(self._verdict_diags(target.unit, fp))
        diags.extend(self._savings_diag(target.unit, plan, envs,
                                        fusion=target.fusion))
        return diags

    # -- cluster ---------------------------------------------------------
    def _run_cluster(self, target: MemoryTarget, dist: DistributedPlan,
                     device: DeviceSpec) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        local = dist.phases(states=dist.preagg is not None).local
        # shard 0 holds the largest slice, so its verdict bounds every
        # shard's
        envs = plan_envelopes(local, dist.shard_rows(local, 0), target.stats)
        strategies = [s for s in target.strategies if s != CPU_BASELINE]
        for strategy in strategies:
            fp = strategy_footprint(local, strategy, envs, device,
                                    target.memory_safety)
            diags.extend(self._verdict_diags(
                target.unit, fp, phase="shard-local"))
        diags.extend(self._savings_diag(target.unit, local, envs))
        diags.extend(self._exchange_diags(target, dist, device))
        return diags

    def _exchange_diags(self, target: MemoryTarget, dist: DistributedPlan,
                        device: DeviceSpec) -> list[Diagnostic]:
        """MEM704/MEM705: per-destination exchange-volume bounds."""
        if dist.suffix_mode != "exchange" or dist.exchange is None:
            return []
        budget = float(device.global_mem_bytes) * target.memory_safety
        n = dist.num_shards
        full_envs = plan_envelopes(dist.plan, target.source_rows,
                                   target.stats)
        frontier = full_envs[dist.exchange.buffer]
        raw_bytes = frontier.bytes
        skew = float(getattr(target.stats, "max_skew", 0.0) or 0.0)
        hot_share = max(1.0 / n, min(1.0, skew))
        raw_hot = raw_bytes.scale(hot_share)

        diags: list[Diagnostic] = []
        loc = SourceLocation(target.unit, "exchange", dist.exchange.buffer)
        if dist.preagg is not None:
            # shards ship partial-state blocks: one block of
            # `state_block_nbytes` per PREAGG_FLUSH_ROWS frontier rows
            spec = dist.preagg
            per_shard = frontier.rows.scale(1.0 / n)
            flushes_hi = (math.inf if math.isinf(per_shard.hi)
                          else float(spec.flushes(per_shard.hi)))
            total_state = Interval(
                float(spec.flushes(per_shard.lo)) * n * spec.state_block_nbytes,
                (math.inf if math.isinf(flushes_hi)
                 else flushes_hi * n * spec.state_block_nbytes))
            hot = total_state.scale(hot_share)
            if hot.hi > budget:
                diags.append(self._diag(
                    "MEM704", Severity.WARNING, loc,
                    f"exchange hot destination may receive "
                    f"{hot.render(' B')} of partial states "
                    f"(scheme={dist.scheme}, skew share {hot_share:.3f}) "
                    f"against a {budget:,.0f} B device budget"))
            if raw_hot.lo > budget >= hot.hi:
                diags.append(self._diag(
                    "MEM705", Severity.INFO, loc,
                    f"pre-aggregation is load-bearing for fit: raw "
                    f"frontier exchange {raw_hot.render(' B')} per hot "
                    f"destination overflows the {budget:,.0f} B budget; "
                    f"partial-state blocks {hot.render(' B')} fit"))
        elif raw_hot.hi > budget:
            diags.append(self._diag(
                "MEM704", Severity.WARNING, loc,
                f"exchange hot destination may receive "
                f"{raw_hot.render(' B')} of raw frontier rows "
                f"(scheme={dist.scheme}, skew share {hot_share:.3f}) "
                f"against a {budget:,.0f} B device budget"))
        return diags

    # -- diagnostics -----------------------------------------------------
    def _diag(self, code: str, severity: Severity, loc: SourceLocation,
              message: str) -> Diagnostic:
        return Diagnostic(code=code, severity=severity, message=message,
                          location=loc, pass_name=self.name)

    def _verdict_diags(self, unit: str, fp: StrategyFootprint,
                       phase: str = "") -> list[Diagnostic]:
        label = f"{fp.strategy}@{phase}" if phase else fp.strategy
        loc = SourceLocation(unit, "strategy", label)
        budget = fp.budget_bytes
        detail = (f"peak {fp.peak_bytes.render(' B')} "
                  f"(side inputs {fp.side_bytes.render(' B')}, working set "
                  f"{fp.working_bytes.render(' B')}) vs budget "
                  f"{budget:,.0f} B")
        if fp.verdict == "certain-oom":
            cause = ("side inputs alone overflow the budget"
                     if fp.side_bytes.lo >= budget else
                     "a barrier region pins the whole working set")
            return [self._diag(
                "MEM701", Severity.ERROR, loc,
                f"certain OOM under {fp.strategy!r}: {detail}; {cause}")]
        if fp.verdict == "possible-oom":
            why = ("driver source ambiguous under unknown cardinalities"
                   if fp.driver_ambiguous else
                   "the budget falls inside the peak interval")
            return [self._diag(
                "MEM702", Severity.WARNING, loc,
                f"possible OOM under {fp.strategy!r}: {detail}; {why}")]
        out: list[Diagnostic] = []
        if fp.pipelined:
            out.append(self._diag(
                "MEM703", Severity.INFO, loc,
                f"safe under {fp.strategy!r} via pipelined fission: "
                f"driver streams in segments, so residency never holds "
                f"the whole {fp.working_bytes.render(' B')} working set"))
        elif fp.chunks.hi > 1:
            out.append(self._diag(
                "MEM703", Severity.INFO, loc,
                f"safe under {fp.strategy!r} via chunking: "
                f"{fp.chunks.render()} chunks bound the "
                f"{fp.working_bytes.render(' B')} working set under the "
                f"{budget:,.0f} B budget"))
        return out

    def _savings_diag(self, unit: str, plan: Plan,
                      envs, fusion=None) -> list[Diagnostic]:
        if fusion is None or not getattr(fusion, "regions", None):
            fusion = fuse_plan(plan, enable=True)
        savings = fusion_savings(fusion, envs)
        if savings.hi <= 0:
            return []
        return [self._diag(
            "MEM706", Severity.INFO,
            SourceLocation(unit, "fusion", "savings"),
            f"fusion eliminates {savings.render(' B')} of materialized "
            f"intermediates across {fusion.num_fused_regions} fused "
            f"region(s)")]


# ----------------------------------------------------------------------
# the one-call verdict the optimizer / executors consult
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryVerdict:
    """Cacheable per-strategy answer for pre-flight callers."""

    strategy: str
    verdict: str                    # "safe" | "certain-oom" | "possible-oom"
    peak_lo: float
    peak_hi: float
    budget: float
    detail: str = ""

    @property
    def certain_oom(self) -> bool:
        return self.verdict == "certain-oom"


def check_strategy(plan: Plan, strategy: "Strategy | str",
                   source_rows: dict[str, int] | None,
                   device: DeviceSpec,
                   memory_safety: float = ExecutionConfig.memory_safety,
                   stats: object = None,
                   fusion=None, envs=None) -> MemoryVerdict:
    """One strategy's memory verdict -- the entry point
    ``Optimizer.choose`` and the executor pre-flights use (verdicts are
    content-addressed under ``absint:*`` keys in the
    :class:`~repro.optimizer.plancache.PlanCache` by their callers).
    The plan's envelopes do not depend on the strategy: a caller vetting
    several strategies passes ``plan_envelopes(plan, source_rows,
    stats)`` as `envs` once."""
    if envs is None:
        envs = plan_envelopes(plan, source_rows, stats)
    fp = strategy_footprint(plan, strategy, envs, device, memory_safety,
                            fusion=fusion)
    detail = (f"peak {fp.peak_bytes.render(' B')} vs budget "
              f"{fp.budget_bytes:,.0f} B")
    return MemoryVerdict(
        strategy=fp.strategy, verdict=fp.verdict,
        peak_lo=fp.peak_bytes.lo, peak_hi=fp.peak_bytes.hi,
        budget=fp.budget_bytes, detail=detail)
