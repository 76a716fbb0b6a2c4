"""Shared functional-execution mapping for the differential harness.

Every optimizer :class:`~repro.optimizer.StrategyOption` maps to a real
functional execution path that computes actual tuples: the memory-managed
:class:`~repro.runtime.GpuRuntime` for single-device strategies and the
host baseline, :meth:`~repro.cluster.ClusterExecutor.functional` for
cluster shapes.  The harness runs chosen *and* rejected options through
this mapping and asserts byte-identical results.
"""

from repro.cluster import ClusterConfig, ClusterExecutor
from repro.runtime import CPU_BASELINE, GpuRuntime


def run_option(option, plan, sources):
    """Execute one priced option functionally; returns {sink: Relation}."""
    if option.kind == "cpubase":
        return GpuRuntime(strategy=CPU_BASELINE).run(plan, sources).results
    if option.kind == "single":
        return GpuRuntime(strategy=option.strategy).run(plan, sources).results
    cfg = ClusterConfig(num_devices=option.devices, scheme=option.scheme,
                        preagg=option.preagg, merge=option.merge)
    return ClusterExecutor(config=cfg).functional(plan, sources)
