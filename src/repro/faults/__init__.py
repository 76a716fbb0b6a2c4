"""Deterministic fault injection + recovery policies for the simulated
platform (see docs/FAULTS.md).

The split mirrors the sanitizer's: :mod:`repro.validate` proves a schedule
*valid*, this package makes schedules *go wrong on purpose* -- transient
transfer/launch failures, stream stalls, spurious OOM, host slowdowns --
and supplies the retry/degradation machinery the engine and runtimes use to
repair them.  Everything is seeded and budgeted, so chaos runs are exactly
reproducible.
"""

from .injector import FaultInjector, InjectedFault, as_injector
from .plan import ALL_KINDS, FaultKind, FaultPlan, RetryPolicy, parse_chaos
from .recovery import ladder, run_with_ladder, spurious_oom

__all__ = [
    "FaultKind", "FaultPlan", "RetryPolicy", "ALL_KINDS", "parse_chaos",
    "FaultInjector", "InjectedFault", "as_injector",
    "ladder", "run_with_ladder", "spurious_oom",
]
