"""The strategy space: every way this system can execute a plan.

Each execution strategy the repo has grown -- the paper's five
single-device strategies, the host (CPU) baseline, and the N-device
cluster shapes with their partition-scheme / pre-aggregation / merge
choices -- registers here behind one interface.  The optimizer
enumerates :func:`enumerate_options` and prices each
:class:`StrategyOption`; adding a future strategy means adding one
``@register_enumerator`` function, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..errors import PlanError
from ..plans.distribute import DistributedPlan, distribute_plan
from ..plans.plan import Plan
from ..runtime.strategies import CPU_BASELINE, Strategy
from .stats import DataStats


@dataclass(frozen=True)
class StrategyOption:
    """One priceable execution strategy."""

    #: "single" (one device), "cpubase" (host interpreter), or "cluster"
    kind: str = "single"
    #: single-device strategy; the per-shard strategy for cluster options;
    #: None for the host baseline
    strategy: Strategy | None = Strategy.SERIAL
    devices: int = 1
    scheme: str = "hash"
    preagg: bool = True
    merge: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "cpubase":
            return CPU_BASELINE
        if self.kind == "single":
            return self.strategy.value
        pre = "preagg" if self.preagg else "raw"
        return (f"cluster{self.devices}.{self.scheme}.{pre}"
                f".{self.strategy.value}")


@dataclass
class StrategyTarget:
    """A hand-forced strategy choice, as an analyzable unit (the OPT5xx
    lints price it against the optimizer's decision; see
    :mod:`repro.analyze.opt_lints`)."""

    plan: Plan
    source_rows: dict[str, int]
    #: the strategy the caller forced (a :class:`Strategy` or "cpubase")
    strategy: Strategy | str = Strategy.SERIAL

    @property
    def forced_label(self) -> str:
        return (self.strategy if isinstance(self.strategy, str)
                else self.strategy.value)


@dataclass
class EnumContext:
    """What an enumerator may look at."""

    plan: Plan
    stats: DataStats
    max_devices: int = 1
    schemes: tuple[str, ...] = ("hash",)
    include_cpubase: bool = True

    def distributable(self, devices: int) -> DistributedPlan | None:
        """The plan's distribution at ``devices`` shards, or None when the
        rewrite rejects the shape (unsupported plan for this space)."""
        try:
            return distribute_plan(self.plan, self.stats.source_rows(),
                                   devices)
        except (PlanError, KeyError, ValueError):
            return None


Enumerator = Callable[[EnumContext], Iterable[StrategyOption]]

_ENUMERATORS: list[Enumerator] = []


def register_enumerator(fn: Enumerator) -> Enumerator:
    """Register a strategy family (the single registration point every
    future strategy uses)."""
    _ENUMERATORS.append(fn)
    return fn


@register_enumerator
def _single_device(ctx: EnumContext) -> Iterator[StrategyOption]:
    """The paper's strategy set on one device (SS III-B/C, SS IV)."""
    for strategy in (Strategy.SERIAL, Strategy.FUSED, Strategy.FISSION,
                     Strategy.FUSED_FISSION, Strategy.WITH_ROUND_TRIP):
        yield StrategyOption(kind="single", strategy=strategy)


@register_enumerator
def _host_baseline(ctx: EnumContext) -> Iterator[StrategyOption]:
    """The CPU interpreter: the Shanbhag-style crossover's other side --
    small inputs never amortize the PCIe round trip."""
    if ctx.include_cpubase:
        yield StrategyOption(kind="cpubase", strategy=None)


@register_enumerator
def _cluster(ctx: EnumContext) -> Iterator[StrategyOption]:
    """N-device shapes: power-of-two device counts x partition scheme x
    exchange-vs-preagg, gated on the distribution rewrite accepting the
    plan shape."""
    devices = 2
    while devices <= ctx.max_devices:
        dist = ctx.distributable(devices)
        if dist is not None:
            for scheme in ctx.schemes:
                yield StrategyOption(
                    kind="cluster", strategy=Strategy.FUSED_FISSION,
                    devices=devices, scheme=scheme, preagg=True)
                if dist.suffix_mode == "exchange" and dist.preagg is not None:
                    # pre-agg actually applies here, so raw exchange is a
                    # genuinely different (and priceable) choice
                    yield StrategyOption(
                        kind="cluster", strategy=Strategy.FUSED_FISSION,
                        devices=devices, scheme=scheme, preagg=False)
        devices *= 2


def enumerate_from(ctx: EnumContext) -> list[StrategyOption]:
    """Every registered strategy applicable under ``ctx`` (the optimizer
    passes its own context so distribution attempts are shared with
    pricing)."""
    out: list[StrategyOption] = []
    for fn in _ENUMERATORS:
        out.extend(fn(ctx))
    return out


def enumerate_options(plan: Plan, stats: DataStats, max_devices: int = 1,
                      schemes: tuple[str, ...] = ("hash",),
                      include_cpubase: bool = True) -> list[StrategyOption]:
    """Every registered strategy applicable to (plan, stats, devices)."""
    return enumerate_from(EnumContext(
        plan=plan, stats=stats, max_devices=max_devices,
        schemes=schemes, include_cpubase=include_cpubase))
