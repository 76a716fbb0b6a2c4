"""The degradation ladder: which strategies to fall back through when the
device keeps reporting OOM or retries run out.

The paper's strategies assume the device cooperates; a production engine
must keep answering when it does not.  :func:`ladder` gives one fallback
order, and :func:`run_with_ladder` walks it for both callers of the
:class:`~repro.runtime.executor.Executor`'s program: timed runs and the
functional :class:`~repro.runtime.gpu_rt.GpuRuntime`:

* a **fission** strategy first drops fission and keeps its fusion
  setting (FUSED_FISSION -> FUSED, FISSION -> SERIAL): pipelined segments
  are the most exposed to transfer faults and stream stalls;
* any device strategy then retreats to **WITH_ROUND_TRIP**, which stages
  every intermediate back to the host so the device footprint stays
  minimal (the paper's forced round trip);
* the last rung is the host interpreter
  (:data:`~repro.runtime.strategies.CPU_BASELINE`): no device command is
  left to fault, and its answers are identical, just slow.

At cluster level a device lost mid-run
(:class:`repro.errors.DeviceLostError`) first has its shards re-executed
on a surviving device; this ladder then applies on whichever device runs
the shard (docs/CLUSTER.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import DeviceOOMError, FaultError

if TYPE_CHECKING:
    from ..runtime.strategies import Strategy


def ladder(strategy: "Strategy | str") -> "tuple[Strategy | str, ...]":
    """Fallback order starting at ``strategy`` (a :class:`Strategy` or
    ``CPU_BASELINE``), most capable first; raises ValueError otherwise."""
    # imported here: the runtime package imports this module at load time
    from ..runtime.strategies import CPU_BASELINE, Strategy

    if strategy == CPU_BASELINE:
        return (CPU_BASELINE,)
    if not isinstance(strategy, Strategy):
        raise ValueError(
            f"unknown execution strategy {strategy!r}; expected a Strategy "
            f"or {CPU_BASELINE!r}")
    steps: list = [strategy]
    if strategy.uses_fission:
        steps.append(Strategy.FUSED if strategy.uses_fusion
                     else Strategy.SERIAL)
    if strategy is not Strategy.WITH_ROUND_TRIP:
        steps.append(Strategy.WITH_ROUND_TRIP)
    steps.append(CPU_BASELINE)
    return tuple(steps)


def run_with_ladder(strategy: "Strategy | str",
                    attempt: "Callable[[Strategy | str], object]",
                    injector, degrade: bool | None):
    """``attempt(step)`` down :func:`ladder` (only ``strategy`` unless
    ``degrade``; ``None``: iff ``injector`` is set) until a rung survives
    OOM / exhausted retries; stamps ``degraded_to`` and the injector
    counters on its result, or re-raises the last rung's error."""
    if degrade is None:
        degrade = injector is not None
    last_err: Exception | None = None
    for step in ladder(strategy) if degrade else (strategy,):
        try:
            result = attempt(step)
        except (DeviceOOMError, FaultError) as err:
            last_err = err
            continue
        if step != strategy:
            result.degraded_to = step if isinstance(step, str) else step.value
        if injector is not None:
            result.faults_injected = injector.faults_injected
            result.retries = injector.retries
            result.reissues = injector.reissues
        return result
    assert last_err is not None
    raise last_err


def spurious_oom(injector, site: str, capacity: int) -> None:
    """Raise an injected :class:`DeviceOOMError` at `site` when the plan
    says so -- but only on a *repeated* hit: the first draw models a
    transient allocator hiccup that a single retry absorbs.
    """
    if injector is None:
        return
    if injector.oom(site):
        injector.note_retry(site)
        if injector.oom(site):
            err = DeviceOOMError(capacity, 0, capacity)
            err.injected = True
            err.site = site
            raise err
