"""Interval abstract interpretation over plan DAGs (docs/ANALYSIS.md).

The executor sizes every kernel and its device residency from the point
arithmetic in :mod:`repro.runtime.sizes`; this module evaluates that
same arithmetic at the two corners of its intervals, so memory-safety
questions ("can this strategy OOM?") get a static answer before
anything is simulated.  Every sizing rule is monotone non-decreasing in
its inputs, so ``[f(all lo seeds), f(all hi seeds)]`` is the tightest
correct interval, not merely a sound one.  The contract the soundness
harness enforces (``tests/analyze/test_memory_soundness.py``):

    for every node ``n``:  ``env[n].rows.lo <= estimate_sizes(...)[n]
    <= env[n].rows.hi``, with equality when every source is known

Seeding: a source's row count comes from the caller's ``source_rows``
mapping (what the executor itself receives), else from
:class:`~repro.optimizer.stats.DataStats` when provided, else from the
plan's declared ``n_rows``; a source with none of those is *unknown*
(``[0, inf)``), which downstream can only ever produce possible-OOM
warnings, never certain-OOM errors.

On top of the envelopes, :func:`strategy_footprint` evaluates the
executor's own OOM decision procedure (:func:`~repro.runtime.sizes
.footprint`, :func:`~repro.runtime.sizes.chunk_count` and the fission
prefix split) at both corners per strategy, and :func:`fusion_savings`
statically quantifies the paper's footprint claim: bytes of
intermediates that fusion never materializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.fission import split_for_fission
from ..core.fusion import FusionResult, fuse_plan
from ..core.opmodels import out_row_nbytes
from ..plans.plan import OpType, Plan, PlanNode
from ..runtime.sizes import chunk_count, footprint, node_rows
from ..runtime.strategies import CPU_BASELINE, ExecutionConfig, Strategy
from ..simgpu.device import DeviceSpec

__all__ = [
    "Interval", "Envelope", "plan_envelopes", "fusion_savings",
    "StrategyFootprint", "strategy_footprint",
]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` over non-negative reals;
    ``hi = inf`` encodes an unknown upper bound."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def exact(value: float) -> "Interval":
        return Interval(float(value), float(value))

    # -- queries ---------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return not math.isinf(self.hi)

    # -- arithmetic (all operands non-negative) --------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> "Interval":
        """Multiply by a non-negative scalar (``inf * 0 = 0`` here: a
        zero-width row contributes no bytes however many rows it has)."""
        if factor == 0:
            return Interval.exact(0.0)
        return Interval(self.lo * factor, self.hi * factor)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def render(self, unit: str = "") -> str:
        def fmt(v: float) -> str:
            if math.isinf(v):
                return "inf"
            return f"{v:,.0f}"
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]{unit}"


@dataclass(frozen=True)
class Envelope:
    """Static bounds on one plan node's output: a row-count interval
    plus the node's (exact, schema-derived) bytes-per-row."""

    rows: Interval
    row_nbytes: int

    @property
    def bytes(self) -> Interval:
        return self.rows.scale(float(self.row_nbytes))


def _seed_source(node: PlanNode, source_rows: dict[str, int] | None,
                 stats) -> tuple[float, float]:
    """Row range of a SOURCE, in the executor's own lookup order."""
    n = (source_rows or {}).get(node.name)
    if n is None and stats is not None:
        try:
            n = stats.table(node.name).rows
        except KeyError:
            pass
    if n is None:
        n = node.params.get("n_rows")
    return (0, math.inf) if n is None else (int(n), int(n))


def plan_envelopes(plan: Plan, source_rows: dict[str, int] | None = None,
                   stats=None) -> dict[str, Envelope]:
    """Per-node cardinality/byte envelopes, keyed by node name.

    Evaluates :func:`repro.runtime.sizes.node_rows` at the all-lo and
    all-hi source seeds in one topological pass; ``stats`` is an
    optional :class:`~repro.optimizer.stats.DataStats` used to seed
    sources the caller's ``source_rows`` does not name.
    """
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    envs: dict[str, Envelope] = {}
    for node in plan.topological():
        name = node.name
        if node.op is OpType.SOURCE:
            lo[name], hi[name] = _seed_source(node, source_rows, stats)
        else:
            lo[name] = node_rows(node, lo)
            hi[name] = node_rows(node, hi)
        envs[name] = Envelope(rows=Interval(float(lo[name]), float(hi[name])),
                              row_nbytes=out_row_nbytes(node))
    return envs


# ----------------------------------------------------------------------
# fusion-savings report: the paper's footprint claim, statically
# ----------------------------------------------------------------------

def fusion_savings(fusion: FusionResult,
                   envs: dict[str, Envelope]) -> Interval:
    """Bytes of intermediates fusion eliminates: every non-terminal node
    of a fused region would, unfused, materialize its output to device
    memory; fused, it lives in registers."""
    total = Interval.exact(0.0)
    for region in fusion.regions:
        if not region.fused:
            continue
        for node in region.nodes[:-1]:
            total = total + envs[node.name].bytes
    return total


# ----------------------------------------------------------------------
# strategy footprint: the executor's chunk rule at both corners
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyFootprint:
    """Static memory verdict for one (plan, strategy, device) triple.

    ``verdict`` is one of ``safe`` (cannot raise
    :class:`~repro.errors.DeviceOOMError`), ``certain-oom`` (must
    raise), or ``possible-oom`` (the budget lies inside the peak
    interval, or the driver source is ambiguous)."""

    strategy: str
    budget_bytes: float
    side_bytes: Interval
    working_bytes: Interval       # driver input + every region output
    peak_bytes: Interval          # side + working: vs the budget
    chunks: Interval              # serial chunks to fit (inf: must raise)
    has_barrier: bool
    pipelined: bool               # fission prefix absorbs the driver
    driver: str
    driver_ambiguous: bool
    verdict: str
    fused_regions: int = 0
    notes: tuple[str, ...] = field(default=())


def _driver_candidates(plan: Plan, envs: dict[str, Envelope]
                       ) -> list[PlanNode]:
    """Sources the executor's ``max(sources, key=rows)`` could pick.

    With exact envelopes this is exactly one node (first max, matching
    ``max()``'s tie-breaking); with unknown sources every candidate
    whose upper bound reaches the best-known lower bound is possible.
    """
    sources = plan.sources()
    if not sources:
        return []
    best_lo = max(envs[s.name].rows.lo for s in sources)
    cands = [s for s in sources if envs[s.name].rows.hi >= best_lo]
    if len(cands) <= 1:
        return cands
    exact = all(envs[s.name].rows.is_exact for s in sources)
    if exact:
        # ties resolve to the first max, like the executor's max()
        return [max(sources, key=lambda s: envs[s.name].rows.lo)]
    return cands


def strategy_footprint(plan: Plan, strategy: "Strategy | str",
                       envs: dict[str, Envelope],
                       device: DeviceSpec,
                       memory_safety: float = ExecutionConfig.memory_safety,
                       fusion: FusionResult | None = None
                       ) -> StrategyFootprint:
    """Memory verdict for running ``plan`` under ``strategy`` on
    ``device``, from precomputed envelopes.

    Mirrors the executor exactly: the host baseline cannot OOM; fission
    strategies with a non-empty pipeline prefix stream the driver in
    segments and never take the chunk-planning path; everything else
    (and fission's degenerate no-prefix case) goes through the
    executor's own :func:`~repro.runtime.sizes.footprint` and
    :func:`~repro.runtime.sizes.chunk_count`, evaluated at the lo and
    hi corners of the envelopes.
    """
    label = strategy if isinstance(strategy, str) else strategy.value
    budget = float(device.global_mem_bytes) * memory_safety
    zero = Interval.exact(0.0)
    if label == CPU_BASELINE:
        return StrategyFootprint(
            strategy=label, budget_bytes=budget, side_bytes=zero,
            working_bytes=zero, peak_bytes=zero, chunks=Interval.exact(1.0),
            has_barrier=False, pipelined=False, driver="",
            driver_ambiguous=False, verdict="safe",
            notes=("host interpreter: no device allocation",))

    strat = Strategy(label)
    if fusion is None:
        fusion = fuse_plan(plan, enable=strat.uses_fusion)
    regions = list(fusion.regions)
    candidates = _driver_candidates(plan, envs)
    ambiguous = len(candidates) != 1

    nbytes = {name: env.bytes for name, env in envs.items()}
    per_driver: list[StrategyFootprint] = []
    for driver in candidates:
        side_lo, working_lo, has_barrier = footprint(
            plan, regions, driver, lambda node: nbytes[node.name].lo)
        side_hi, working_hi, _ = footprint(
            plan, regions, driver, lambda node: nbytes[node.name].hi)
        side = Interval(side_lo, side_hi)
        working = Interval(working_lo, working_hi)
        pipelined = (strat.uses_fission
                     and bool(split_for_fission(regions, driver)[0]))
        if pipelined:
            verdict = "safe"
            chunks = Interval.exact(1.0)
            notes: tuple[str, ...] = (
                "pipelined prefix: driver streams in segments, "
                "no whole-input residency",)
        else:
            # the rule grows with both byte counts, so the lo corner
            # raising means every point raises, and the hi corner
            # fitting means every point fits
            chunks_lo = chunk_count(side_lo, working_lo, budget, has_barrier)
            chunks_hi = chunk_count(side_hi, working_hi, budget, has_barrier)
            verdict = ("certain-oom" if chunks_lo is None
                       else "safe" if chunks_hi is not None
                       else "possible-oom")
            chunks = Interval(
                math.inf if chunks_lo is None else float(chunks_lo),
                math.inf if chunks_hi is None else float(chunks_hi))
            notes = ()
        per_driver.append(StrategyFootprint(
            strategy=label, budget_bytes=budget, side_bytes=side,
            working_bytes=working, peak_bytes=side + working, chunks=chunks,
            has_barrier=has_barrier, pipelined=pipelined,
            driver=driver.name, driver_ambiguous=ambiguous,
            verdict=verdict, fused_regions=fusion.num_fused_regions,
            notes=notes))

    if not per_driver:
        return StrategyFootprint(
            strategy=label, budget_bytes=budget, side_bytes=zero,
            working_bytes=zero, peak_bytes=zero, chunks=Interval.exact(1.0),
            has_barrier=False, pipelined=False, driver="",
            driver_ambiguous=False, verdict="safe",
            notes=("plan has no sources",))
    if len(per_driver) == 1:
        return per_driver[0]
    # ambiguous driver: merge conservatively -- certain only when every
    # plausible driver choice is certain, safe only when all are safe
    verdicts = {fp.verdict for fp in per_driver}
    merged_verdict = verdicts.pop() if len(verdicts) == 1 else "possible-oom"
    peak = per_driver[0].peak_bytes
    side = per_driver[0].side_bytes
    working = per_driver[0].working_bytes
    chunks = per_driver[0].chunks
    for fp in per_driver[1:]:
        peak = peak.hull(fp.peak_bytes)
        side = side.hull(fp.side_bytes)
        working = working.hull(fp.working_bytes)
        chunks = chunks.hull(fp.chunks)
    first = per_driver[0]
    return StrategyFootprint(
        strategy=label, budget_bytes=first.budget_bytes, side_bytes=side,
        working_bytes=working, peak_bytes=peak, chunks=chunks,
        has_barrier=any(fp.has_barrier for fp in per_driver),
        pipelined=all(fp.pipelined for fp in per_driver),
        driver="|".join(fp.driver for fp in per_driver),
        driver_ambiguous=True, verdict=merged_verdict,
        fused_regions=first.fused_regions,
        notes=("driver source ambiguous under unknown cardinalities",))
