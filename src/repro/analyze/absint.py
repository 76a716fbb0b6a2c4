"""Interval abstract interpretation over plan DAGs (docs/ANALYSIS.md).

The executor sizes every kernel from :func:`repro.runtime.sizes
.estimate_sizes`; this module re-derives those sizes *as intervals*, so
memory-safety questions ("can this strategy OOM?") get a sound static
answer before anything is simulated.  The contract the soundness harness
enforces (``tests/analyze/test_memory_soundness.py``):

    for every node ``n``:  ``env[n].rows.lo <= estimate_sizes(...)[n]
    <= env[n].rows.hi``

Seeding: a source's row count comes from the caller's ``source_rows``
mapping (what the executor itself receives), else from
:class:`~repro.optimizer.stats.DataStats` when provided, else from the
plan's declared ``n_rows``; a source with none of those is *unknown*
(``[0, inf)``), which downstream can only ever produce possible-OOM
warnings, never certain-OOM errors.  Propagation brackets the executor's
``round()`` arithmetic with floor/ceil, so envelopes stay sound even
where Python's bankers' rounding is involved.

On top of the envelopes, :func:`strategy_footprint` mirrors the
executor's actual OOM decision procedure (``Executor._plan_chunks`` and
the fission prefix split) per strategy, and :func:`fusion_savings`
statically quantifies the paper's footprint claim: bytes of
intermediates that fusion never materializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.fission import split_for_fission
from ..core.fusion import FusionResult, Region, fuse_plan
from ..core.opmodels import out_row_nbytes
from ..plans.plan import OpType, Plan, PlanNode
from ..runtime.strategies import CPU_BASELINE, Strategy
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

    @staticmethod
    def unknown() -> "Interval":
        return Interval(0.0, math.inf)

    # -- queries ---------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return not math.isinf(self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    # -- arithmetic (all operands non-negative) --------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> "Interval":
        """Multiply by a non-negative scalar (``inf * 0 = 0`` here: a
        zero-width row contributes no bytes however many rows it has)."""
        if factor == 0:
            return Interval.exact(0.0)
        return Interval(self.lo * factor, self.hi * factor)

    def round_bracket(self) -> "Interval":
        """Sound bracket of the executor's ``int(round(x))``: whatever
        the rounding mode, the result lies in ``[floor(lo), ceil(hi)]``."""
        hi = self.hi if math.isinf(self.hi) else float(math.ceil(self.hi))
        return Interval(float(math.floor(self.lo)), hi)

    def clamp_min(self, floor_value: float) -> "Interval":
        return Interval(max(self.lo, floor_value), max(self.hi, floor_value))

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
                 stats) -> Interval:
    """Row interval of a SOURCE, in the executor's own lookup order."""
    if source_rows is not None and node.name in source_rows:
        return Interval.exact(int(source_rows[node.name]))
    if stats is not None:
        try:
            return Interval.exact(int(stats.table(node.name).rows))
        except KeyError:
            pass
    if node.params.get("n_rows") is not None:
        return Interval.exact(int(node.params["n_rows"]))
    return Interval.unknown()


def plan_envelopes(plan: Plan, source_rows: dict[str, int] | None = None,
                   stats=None) -> dict[str, Envelope]:
    """Per-node cardinality/byte envelopes, keyed by node name.

    Mirrors :func:`repro.runtime.sizes.estimate_sizes` rule for rule,
    with every ``round()`` bracketed; ``stats`` is an optional
    :class:`~repro.optimizer.stats.DataStats` used to seed sources the
    caller's ``source_rows`` does not name.
    """
    envs: dict[str, Envelope] = {}
    for node in plan.topological():
        envs[node.name] = Envelope(
            rows=_node_rows(node, envs, source_rows, stats),
            row_nbytes=out_row_nbytes(node))
    return envs


def _node_rows(node: PlanNode, envs: dict[str, Envelope],
               source_rows: dict[str, int] | None, stats) -> Interval:
    if node.op is OpType.SOURCE:
        return _seed_source(node, source_rows, stats)
    left = envs[node.inputs[0].name].rows
    sel = node.selectivity
    if node.op is OpType.UNION:
        right = envs[node.inputs[1].name].rows
        return (left + right).scale(sel).round_bracket().clamp_min(0.0)
    if node.op is OpType.UNION_ALL:
        # mirrors sizes._node_size exactly: bag concat ignores selectivity
        return left + envs[node.inputs[1].name].rows
    if node.op is OpType.TOP_N:
        n = float(node.params["n"])
        return Interval(max(0.0, min(left.lo, n)),
                        max(0.0, min(left.hi, n)))
    if node.op is OpType.AGGREGATE:
        n_groups = node.params.get("n_groups")
        if n_groups is not None:
            return Interval.exact(max(1, int(n_groups)))
        return left.scale(sel).round_bracket().clamp_min(1.0)
    # PRODUCT encodes right rows as selectivity; everything else scales
    # its primary input -- same shape as sizes._node_size
    return left.scale(sel).round_bracket().clamp_min(0.0)


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
# strategy footprint: Executor._plan_chunks, abstractly
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
    chunks: Interval              # serial chunking needed to fit
    has_barrier: bool
    pipelined: bool               # fission prefix absorbs the driver
    driver: str
    driver_ambiguous: bool
    verdict: str
    fused_regions: int = 0
    notes: tuple[str, ...] = field(default=())


def _region_geometry(regions: list[Region], envs: dict[str, Envelope],
                     driver: PlanNode) -> tuple[Interval, bool]:
    """(sum of region-output bytes, any-barrier) over lowered regions."""
    out = Interval.exact(0.0)
    barrier = False
    for region in regions:
        out = out + envs[region.output_node.name].bytes
        if region.is_barrier_op:
            barrier = True
    return out, barrier


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


def _chunks_needed(working: Interval, side: Interval,
                   budget: float) -> Interval:
    """Chunk-count interval ``ceil(working / (budget - side))``."""
    def at(w: float, s: float) -> float:
        room = budget - s
        if room <= 0:
            return math.inf
        if w <= room:
            return 1.0
        if math.isinf(w):
            return math.inf
        return float(math.ceil(w / room))
    return Interval(at(working.lo, side.lo), at(working.hi, side.hi))


def _serial_verdict(side: Interval, working: Interval, budget: float,
                    has_barrier: bool) -> str:
    """The `_plan_chunks` decision procedure over intervals.

    The executor raises iff ``side >= budget`` or (``side + working >
    budget`` and some region is a barrier); anything else chunks its
    way through.
    """
    peak = side + working
    certain = side.lo >= budget or (has_barrier and peak.lo > budget)
    if certain:
        return "certain-oom"
    safe = side.hi < budget and (not has_barrier or peak.hi <= budget)
    return "safe" if safe else "possible-oom"


def strategy_footprint(plan: Plan, strategy: "Strategy | str",
                       envs: dict[str, Envelope],
                       device: DeviceSpec,
                       memory_safety: float = 0.9,
                       fusion: FusionResult | None = None
                       ) -> StrategyFootprint:
    """Memory verdict for running ``plan`` under ``strategy`` on
    ``device``, from precomputed envelopes.

    Mirrors the executor exactly: the host baseline cannot OOM; fission
    strategies with a non-empty pipeline prefix stream the driver in
    segments and never take the chunk-planning path; everything else
    (and fission's degenerate no-prefix case) goes through the
    ``_plan_chunks`` rules abstracted over intervals.
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

    per_driver: list[StrategyFootprint] = []
    for driver in candidates:
        side = Interval.exact(0.0)
        for src in plan.sources():
            if src is not driver:
                side = side + envs[src.name].bytes
        working = envs[driver.name].bytes
        region_out, has_barrier = _region_geometry(regions, envs, driver)
        working = working + region_out

        pipelined = False
        # fission degenerates to the serial path (at the executor's
        # *default* safety margin) when nothing can be pipelined
        eff_budget = budget
        if strat.uses_fission:
            prefix, _, _ = split_for_fission(regions, driver)
            pipelined = bool(prefix)
            if not pipelined:
                eff_budget = float(device.global_mem_bytes) * 0.9

        if pipelined:
            verdict = "safe"
            chunks = Interval.exact(1.0)
            notes = ("pipelined prefix: driver streams in segments, "
                     "no whole-input residency",)
        else:
            verdict = _serial_verdict(side, working, eff_budget, has_barrier)
            chunks = _chunks_needed(working, side, eff_budget)
            notes = ()
        per_driver.append(StrategyFootprint(
            strategy=label, budget_bytes=eff_budget, side_bytes=side,
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
    if verdicts == {"certain-oom"}:
        merged_verdict = "certain-oom"
    elif verdicts == {"safe"}:
        merged_verdict = "safe"
    else:
        merged_verdict = "possible-oom"
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
