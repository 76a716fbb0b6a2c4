"""The chooser: price every strategy, pick one, explain it, cache it.

:meth:`Optimizer.choose` enumerates the registered strategy space
(:mod:`repro.optimizer.space`) and gives every option a provable lower
bound on its simulated makespan.  It then confirms options on the
calibrated simulator -- the authoritative price -- in branch-and-bound
order: cheapest bound first, stopping once no remaining bound can beat
the best confirmed price.  The returned :class:`Decision` carries every
candidate's price (simulated, or the bound that ruled it out), so
callers can ask not just *what* was chosen but *why* and *what it
beat*.  :meth:`Optimizer.run` executes the winner by reusing the run
that confirmed it whenever nothing about the execution differs from the
confirmation.

Decisions are content-addressed: the cache key is plan hash + stats
digest + calibration fingerprint + cluster shape, so a repeat query
skips enumeration and simulation entirely, and any change to the data
stats or the platform re-prices from scratch.

Tie-breaking prefers the *simpler* strategy (serial < fused < fission <
fused+fission < round-trip < host < cluster): when pipelining or devices
buy nothing, the optimizer should say so by picking the plain plan.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from dataclasses import dataclass, field

from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..errors import DeviceOOMError, FaultError, PlanError
from ..plans.plan import OpType, Plan
from ..runtime.executor import Executor
from ..runtime.sizes import PlanShape, node_bytes
from ..runtime.strategies import (ROUNDTRIP_MEMORY, STAGING_MEMORY,
                                  ExecutionConfig, Strategy)
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import stream_floor
from ..simgpu.pcie import Direction, PcieModel
from .costmodel import CostModel
from .fingerprint import (calibration_fingerprint, cluster_fingerprint,
                          plan_fingerprint)
from .plancache import PlanCache
from .space import EnumContext, StrategyOption, enumerate_from
from .stats import DataStats

#: tie-break order: simpler strategies win equal prices
_RANK = {
    Strategy.SERIAL: 0, Strategy.FUSED: 1, Strategy.FISSION: 2,
    Strategy.FUSED_FISSION: 3, Strategy.WITH_ROUND_TRIP: 4,
}


def _rank(option: StrategyOption) -> int:
    if option.kind == "single":
        return _RANK[option.strategy]
    if option.kind == "cpubase":
        return 5
    return 6 + option.devices


#: the note a candidate carries when branch and bound skipped it
PRUNED_NOTE = "bound \u2265 best"

#: what a run that cannot execute raises: the option is infeasible
_RUN_ERRORS = (DeviceOOMError, PlanError, FaultError, KeyError, ValueError)


@dataclass(frozen=True)
class PricedOption:
    """One candidate with its lower-bound and (optionally) simulated
    price."""

    option: StrategyOption
    #: the simulator's authoritative makespan; None when the option was
    #: infeasible or branch and bound never confirmed it
    sim_makespan_s: float | None = None
    feasible: bool = True
    notes: tuple[str, ...] = ()
    #: provable lower bound on the simulated makespan
    #: (:meth:`Optimizer._lower_bound`); None when it was not needed
    bound_s: float | None = None

    @property
    def pruned(self) -> bool:
        """Skipped by branch and bound: its bound could not beat the
        chosen option, so it was never simulated."""
        return (self.feasible and self.sim_makespan_s is None
                and self.bound_s is not None)

    @property
    def price_s(self) -> float | None:
        """What the chooser compares: the simulated makespan, else the
        lower bound (None when MEM701 ruled the option out first)."""
        if self.sim_makespan_s is not None:
            return self.sim_makespan_s
        return self.bound_s

    def price_text(self, digits: int = 3) -> str:
        """The price in ms of a simulated or pruned option, saying which."""
        ms = f"{self.price_s * 1e3:.{digits}f} ms"
        if self.sim_makespan_s is not None:
            return f"{ms} simulated"
        return f"\u2265 {ms} (lower bound, not simulated)"

    @property
    def label(self) -> str:
        return self.option.label


@dataclass
class Decision:
    """A priced, explainable strategy choice for (plan, stats, devices)."""

    plan_name: str
    plan_fp: str
    stats_digest: str
    calibration_fp: str
    max_devices: int
    chosen: PricedOption
    #: every candidate, in enumeration order
    candidates: tuple[PricedOption, ...]
    cache_key: str = ""
    cache_hit: bool = False
    #: the simulator run that confirmed `chosen`, for
    #: :meth:`Optimizer.run` to reuse; None on a cache hit, and never
    #: stored in the cache
    confirmed_run: object = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def ranked(self) -> list[PricedOption]:
        """Feasible candidates: the priced ones cheapest first, then the
        pruned ones by bound."""
        key = (lambda c: (c.price_s, _rank(c.option)))
        feasible = [c for c in self.candidates if c.feasible]
        return (sorted((c for c in feasible if not c.pruned), key=key)
                + sorted((c for c in feasible if c.pruned), key=key))

    def rejected(self, n: int = 2) -> list[PricedOption]:
        """The best `n` feasible candidates the chooser did not pick."""
        out = [c for c in self.ranked() if c.option != self.chosen.option]
        return out[:n]

    @property
    def best_price_s(self) -> float:
        """The cheapest price actually paid for (pruned bounds excluded)."""
        ranked = [c for c in self.ranked() if not c.pruned]
        return ranked[0].price_s if ranked else self.chosen.price_s

    def explain(self) -> str:
        """Human-readable pricing table (the ``--explain`` output); a
        pruned candidate shows its lower bound in the sim column."""
        lines = [
            f"plan {self.plan_name}  stats {self.stats_digest[:12]}  "
            f"calibration {self.calibration_fp[:12]}  "
            f"max_devices {self.max_devices}"
            + ("  [cache hit]" if self.cache_hit else ""),
            f"{'':2s}{'strategy':28s} {'sim (ms)':>10s}  notes",
        ]
        for cand in self.ranked() + [c for c in self.candidates
                                     if not c.feasible]:
            mark = "*" if cand.option == self.chosen.option else " "
            sim = ""
            if cand.sim_makespan_s is not None:
                sim = f"{cand.sim_makespan_s * 1e3:10.3f}"
            elif cand.pruned:
                sim = f"\u2265{cand.bound_s * 1e3:.3f}"
            note = "; ".join(cand.notes)
            if not cand.feasible:
                note = ("infeasible" + (": " + note if note else ""))
            lines.append(f"{mark:2s}{cand.label:28s} {sim:>10s}  {note}")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Deterministically-rounded dict (CI byte-compares the sorted
        JSON dump of this across reruns)."""
        out: dict[str, object] = {
            "optimizer.plan": self.plan_name,
            "optimizer.plan_fp": self.plan_fp,
            "optimizer.stats_digest": self.stats_digest,
            "optimizer.calibration_fp": self.calibration_fp,
            "optimizer.max_devices": self.max_devices,
            "optimizer.chosen": self.chosen.label,
            "optimizer.chosen_price_s": round(self.chosen.price_s, 9),
            "optimizer.candidates": len(self.candidates),
            "optimizer.confirmed": sum(
                1 for c in self.candidates
                if c.bound_s is not None and not c.pruned),
        }
        for cand in self.candidates:
            key = f"candidate.{cand.label}"
            out[f"{key}.feasible"] = int(cand.feasible)
            if cand.sim_makespan_s is not None:
                out[f"{key}.sim_s"] = round(cand.sim_makespan_s, 9)
            if cand.bound_s is not None:
                out[f"{key}.bound_s"] = round(cand.bound_s, 9)
        return out


class Optimizer:
    """Cost-based strategy chooser with a content-addressed decision cache."""

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 cache: PlanCache | None = None,
                 cluster_seed: int = 0,
                 pcie_sharers: int | None = None):
        self.device = device or DeviceSpec()
        self.costs = costs
        #: shared plan cache: decisions and memory verdicts land here
        self.cache = cache
        self.cluster_seed = cluster_seed
        self.pcie_sharers = pcie_sharers
        self.cost_model = CostModel(self.device)

    # ------------------------------------------------------------------
    def choose(self, plan: "Plan | PlanShape",
               source_rows: dict[str, int] | None = None,
               stats: DataStats | None = None, max_devices: int = 1,
               schemes: tuple[str, ...] = ("hash",),
               include_cpubase: bool = True) -> Decision:
        """Price the strategy space for (plan, stats) and pick a winner.

        One :class:`PlanShape` feeds the memory verdicts, the bounds and
        every confirming run, so the plan is sized and fused once per
        fusion flag."""
        shape = PlanShape.of(plan)
        plan = shape.plan
        plan.validate()
        if stats is None:
            stats = DataStats.from_rows(plan, source_rows)

        plan_fp = plan_fingerprint(plan)
        calib_fp = calibration_fingerprint(self.device)
        stats_dg = stats.digest()
        cache_key = PlanCache.key(
            "decision", plan_fp, stats_dg, calib_fp,
            cluster_fingerprint(max_devices, "/".join(schemes),
                                self.cluster_seed, self.pcie_sharers),
            include_cpubase)
        if self.cache is not None:
            hit = self.cache.get(cache_key)
            if hit is not None:
                return dataclasses.replace(hit, cache_hit=True)

        ctx = EnumContext(
            plan=plan, stats=stats, max_devices=max_devices, schemes=schemes,
            include_cpubase=include_cpubase)
        # the memory verdicts of every device strategy read one set of
        # envelopes, built when the first verdict misses the cache
        from ..analyze.absint import plan_envelopes
        envelopes = functools.cache(
            lambda: plan_envelopes(plan, stats.source_rows(), stats))
        priced: list[PricedOption] = []
        #: (bound, rank, index) of every option left to confirm, a heap
        pending: list[tuple[float, int, int]] = []
        #: indices whose bound is still the cheap source bound
        unrefined: set[int] = set()
        for option in enumerate_from(ctx):
            priced.append(PricedOption(option=option))
            verdict = self._memory_verdict(shape, plan_fp, stats_dg,
                                           calib_fp, option, stats, envelopes)
            if verdict is not None and verdict.certain_oom:
                # hard-prune without simulating: the abstract interpreter
                # proved the dispatch would raise DeviceOOMError
                priced[-1] = dataclasses.replace(
                    priced[-1], feasible=False,
                    notes=(f"MEM701 certain OOM: {verdict.detail}",))
                continue
            pending.append((self._source_bound(shape, ctx, option),
                            _rank(option), len(priced) - 1))
            if option.kind == "single":
                unrefined.add(len(priced) - 1)
        heapq.heapify(pending)

        # branch and bound: confirm the cheapest bounds first; an option
        # whose (bound, rank, index) already loses to the best confirmed
        # (price, rank, index) cannot win, since price >= bound -- and
        # neither can any option after it in this order.  A device
        # option's command floor is computed only when its cheap bound
        # reaches the head, and it goes back in at the larger of the two;
        # when a refined key reaches the head, every other option's bound
        # is at least as large, so options are confirmed in the order of
        # their refined bounds and the choice is the same as bounding
        # every option up front
        best: tuple[float, int, int] | None = None
        best_run = None
        while pending:
            key = heapq.heappop(pending)
            bound, rank, i = key
            if best is not None and key > best:
                for bound, _, j in [key, *pending]:
                    priced[j] = dataclasses.replace(
                        priced[j], bound_s=bound, notes=(PRUNED_NOTE,))
                break
            if i in unrefined:
                unrefined.discard(i)
                heapq.heappush(pending, (
                    max(bound, self._command_floor(shape, ctx,
                                                   priced[i].option)),
                    rank, i))
                continue
            sim, feasible, notes, run = self._simulate(
                shape, stats, priced[i].option)
            priced[i] = dataclasses.replace(
                priced[i], sim_makespan_s=sim, feasible=feasible,
                notes=tuple(notes), bound_s=bound)
            if feasible and (best is None or (sim, rank, i) < best):
                best, best_run = (sim, rank, i), run

        # every feasible option was confirmed or pruned against `best`
        if best is None:
            raise PlanError(
                f"no feasible execution strategy for plan {plan.name!r}")
        decision = Decision(
            plan_name=plan.name, plan_fp=plan_fp, stats_digest=stats_dg,
            calibration_fp=calib_fp, max_devices=max_devices,
            chosen=priced[best[2]],
            candidates=tuple(priced), cache_key=cache_key)
        if self.cache is not None:
            self.cache.put(cache_key, decision)
        return dataclasses.replace(decision, confirmed_run=best_run)

    # ------------------------------------------------------------------
    def _lower_bound(self, shape: PlanShape, ctx: EnumContext,
                     option: StrategyOption) -> float:
        """Seconds no simulated run of `option` can beat: the larger of
        its source bound (:meth:`_source_bound`) and, for a single-device
        option, its command floor (:meth:`_command_floor`).
        :meth:`choose` reaches the same value lazily, computing the
        command floor only for an option whose source bound is at the
        head of the branch-and-bound order."""
        bound = self._source_bound(shape, ctx, option)
        if option.kind == "single":
            bound = max(bound, self._command_floor(shape, ctx, option))
        return bound

    def _source_bound(self, shape: PlanShape, ctx: EnumContext,
                      option: StrategyOption) -> float:
        """The cheap bound, from the plan's sizes alone.

        Every transfer takes at least ``bytes / peak_bandwidth``
        (:meth:`~repro.simgpu.pcie.PcieModel.peak_bandwidth`), a device
        has one H2D copy engine, and every device strategy uploads every
        source row once, chunked or not -- so the source bytes over the
        pinned H2D peak bound each single-device option.  The round-trip
        strategy always runs as one stream, so its spills (D2H) and
        re-uploads (H2D) of every non-sink result, both through pageable
        memory, add on top.  The host baseline's bound is its exact
        price, ``host_plan_time``, read through
        :meth:`CostModel.estimate`.

        A cluster option runs two phases in sequence, so its bound is
        their floors' sum, both read on the :class:`DistributedPlan` its
        confirming run uses (:meth:`ClusterExecutor.distribute`).  The
        host phase starts at the barrier, no earlier than every shard's
        local makespan, which is at least the busiest shard's upload of
        the shard-local plan's sources on a contended device.  In host
        mode the barrier is followed by the ``cluster.merge`` event,
        whose interpreter part the sizes alone fix
        (:func:`~repro.cluster.executor.host_suffix_time`, the run's own
        term).  The bytes the host gathers stay out of the floor: only
        the shard programs' output downloads know them, and fission's
        download rule can differ from the size map.
        """
        if option.kind == "cpubase":
            return self.cost_model.estimate(shape, ctx.stats, option).host_s
        rows = ctx.stats.source_rows()
        if option.kind == "single":
            plan = shape.plan
            sizes = shape.sizes(rows)
            pcie = self.cost_model.pcie
            bound = (sum(node_bytes(s, sizes) for s in plan.sources())
                     / pcie.peak_bandwidth(Direction.H2D, STAGING_MEMORY))
            if option.strategy is Strategy.WITH_ROUND_TRIP:
                sinks = {n.name for n in plan.sinks()}
                spilled = sum(node_bytes(n, sizes) for n in plan.nodes
                              if n.op is not OpType.SOURCE
                              and n.name not in sinks)
                bound += (
                    spilled / pcie.peak_bandwidth(Direction.H2D,
                                                  ROUNDTRIP_MEMORY)
                    + spilled / pcie.peak_bandwidth(Direction.D2H,
                                                    ROUNDTRIP_MEMORY))
            return bound
        from ..cluster.executor import host_suffix_time
        cx = self._cluster_executor(option)
        dist = cx.distribute(shape.plan, rows)
        phases = dist.phases(states=dist.preagg is not None)
        bound = 0.0
        if any(n.op is not OpType.SOURCE for n in phases.local.nodes):
            busiest = max(
                sum(node_bytes(s, dist.shard_rows(phases.local, shard))
                    for s in phases.local.sources())
                for shard in range(option.devices))
            bound = busiest / PcieModel(cx.device.calib.pcie).peak_bandwidth(
                Direction.H2D, STAGING_MEMORY)
        if dist.suffix_mode == "host":
            bound += host_suffix_time(dist, phases.states, shape.sizes(rows),
                                      cx.base_device.calib.cpu)
        return bound

    def _command_floor(self, shape: PlanShape, ctx: EnumContext,
                       option: StrategyOption) -> float:
        """The floor of the stream program the Executor queues for a
        single-device option (:meth:`Executor.program`: the same lowering,
        chunk count and launch specs as the confirming run).

        A transfer takes at least its bytes over the peak bandwidth of
        its direction and host memory; a kernel at least ``launch +
        max(traffic / mem_bw, instructions / inst_rate)``
        (:func:`~repro.simgpu.compute.kernel_floor`, spills counted).
        Serial, fused and round-trip runs are one in-order stream, whose
        makespan is the sum of its commands' durations, so the sum of
        their floors bounds it (:func:`~repro.simgpu.engine.stream_floor`).
        A fission run's phases A, B and C run one after another: phase
        A's and phase C's streams are floored the same way, and phase B
        uploads every driver and co-driver row through the one H2D engine,
        so its bytes over the fission memory's H2D peak bound it.  A
        fission with no prefix runs, and is floored, as serial.  A program
        the Executor refuses to build (the chunk planner's
        ``DeviceOOMError``) fails its simulation too; its floor is 0.
        """
        try:
            program = self._executor().program(
                shape, ctx.stats.source_rows(),
                ExecutionConfig(strategy=option.strategy))
        except _RUN_ERRORS:
            return 0.0
        pcie = self.cost_model.pcie
        first, *rest = program.streams
        floor = stream_floor(first, self.device, pcie)
        if program.pipelined_bytes > 0:
            floor += program.pipelined_bytes / pcie.peak_bandwidth(
                Direction.H2D, program.pipelined_memory)
        for stream in rest:
            floor += stream_floor(stream, self.device, pcie)
        return floor

    # ------------------------------------------------------------------
    def _memory_verdict(self, shape: PlanShape, plan_fp: str, stats_dg: str,
                        calib_fp: str, option: StrategyOption,
                        stats: DataStats, envelopes):
        """Static memory verdict for a single-device option, cached under
        ``absint:*`` keys (None for cluster/host options: hosts cannot
        OOM and cluster shards are priced by simulation).  `envelopes`
        returns the plan's absint envelopes at `stats`."""
        if option.kind != "single":
            return None
        from ..analyze.memory_check import check_strategy
        if self.cache is not None:
            key = PlanCache.key("absint", plan_fp, stats_dg, calib_fp,
                                option.strategy.value)
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        verdict = check_strategy(
            shape.plan, option.strategy, stats.source_rows(), self.device,
            stats=stats, fusion=shape.fusion(option.strategy.uses_fusion),
            envs=envelopes())
        if self.cache is not None:
            self.cache.put(key, verdict)
        return verdict

    # ------------------------------------------------------------------
    def _simulate(self, plan: "Plan | PlanShape", stats: DataStats,
                  option: StrategyOption):
        """Authoritative price: actually run the option on the simulator.
        Returns (makespan | None, feasible, notes, run | None)."""
        try:
            res = self._execute(plan, stats.source_rows(), option)
        except _RUN_ERRORS as err:
            return None, False, [f"{type(err).__name__}: {err}"], None
        notes = ([f"{res.num_chunks} chunks"]
                 if option.kind == "single" and res.num_chunks > 1 else [])
        return res.makespan, True, notes, res

    def _execute(self, plan: "Plan | PlanShape", rows: dict[str, int],
                 option: StrategyOption, faults=None, check: bool = False,
                 analyze: bool = False):
        """One run of `option`: a RunResult, or a ClusterRunResult for a
        cluster option."""
        if option.kind == "cpubase":
            return self._executor(faults=faults, check=check).run_cpubase(
                plan, rows)
        if option.kind == "single":
            return self._executor(faults=faults, check=check,
                                  analyze=analyze).run(
                plan, rows, ExecutionConfig(strategy=option.strategy))
        return self._cluster_executor(
            option, faults=faults, check=check, analyze=analyze).run(
            plan, rows)

    def _cluster_executor(self, option: StrategyOption, faults=None,
                          check: bool = False, analyze: bool = False):
        from ..cluster.executor import ClusterConfig, ClusterExecutor
        return ClusterExecutor(
            self.device, costs=self.costs,
            config=ClusterConfig(
                num_devices=option.devices, scheme=option.scheme,
                seed=self.cluster_seed, strategy=option.strategy,
                check=check, faults=faults, analyze=analyze,
                pcie_sharers=self.pcie_sharers, preagg=option.preagg,
                merge=option.merge))

    def _executor(self, faults=None, check: bool = False,
                  analyze: bool = False) -> Executor:
        return Executor(self.device, costs=self.costs, check=check,
                        faults=faults, analyze=analyze)

    # ------------------------------------------------------------------
    def run(self, plan: Plan, source_rows: dict[str, int] | None = None,
            stats: DataStats | None = None, max_devices: int = 1,
            schemes: tuple[str, ...] = ("hash",),
            include_cpubase: bool = True, faults=None, check: bool = False,
            analyze: bool = False):
        """Choose a strategy and execute it.

        Returns ``(result, decision)``; the result is a
        :class:`~repro.runtime.executor.RunResult` for single-device /
        host choices and a
        :class:`~repro.cluster.executor.ClusterRunResult` for cluster
        choices.  The run that confirmed the choice
        (:attr:`Decision.confirmed_run`) is returned as is when this
        execution would repeat it exactly: no faults, no
        sanitizer, no static pre-flight, a fresh (not cached) decision,
        and the same source rows the decision was priced on.  A run that
        degrades off the chosen strategy (fault ladder) *invalidates* the
        cached decision instead of pinning the failed strategy for future
        queries.
        """
        rows = source_rows if source_rows is not None else (
            stats.source_rows() if stats is not None else {})
        if stats is None:
            stats = DataStats.from_rows(plan, source_rows)
        shape = PlanShape(plan)
        decision = self.choose(shape, source_rows, stats=stats,
                               max_devices=max_devices, schemes=schemes,
                               include_cpubase=include_cpubase)
        result = decision.confirmed_run
        priced_rows = {s.name: rows[s.name] for s in plan.sources()
                       if s.name in rows}
        if (result is None or faults is not None or check or analyze
                or priced_rows != stats.source_rows()):
            result = self._execute(shape, rows, decision.chosen.option,
                                   faults=faults, check=check,
                                   analyze=analyze)
        degraded = getattr(result, "degraded_to", None)
        if degraded is None and hasattr(result, "shard_runs"):
            if any(r.degraded_to for r in result.shard_runs):
                degraded = "cluster-shard"
        if degraded is not None and self.cache is not None:
            # don't pin a strategy that just faulted its way down the
            # ladder: the next identical query re-prices from scratch
            self.cache.invalidate(decision.cache_key)
        return result, decision
