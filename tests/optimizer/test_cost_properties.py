"""Property tests on the cost model and chooser.

Two invariants, each checked across a population of seeded stats
profiles (rows, widths, group cardinalities, skew all varied):

* **monotone in rows** -- scaling every table's cardinality up never
  lowers any single-device or host option's lower bound
  (:meth:`Optimizer._lower_bound`, which prices the host baseline
  exactly);
* **devices never hurt** -- opening the cluster space
  (``max_devices > 1``) never yields a worse chosen price than the best
  single-device decision, because the single-device options stay
  enumerated alongside the cluster shapes.
"""

import numpy as np
import pytest

from repro.optimizer import CostModel, DataStats, Optimizer, TableStats
from repro.optimizer.space import EnumContext, enumerate_options
from repro.runtime.sizes import PlanShape
from repro.runtime.select_chain import select_chain_plan
from repro.simgpu import DeviceSpec
from repro.tpch import build_q6_plan

PROFILE_SEEDS = list(range(12))

SCALES = (0.5, 1.0, 2.0, 4.0, 8.0)


def _profile(plan, seed: int) -> DataStats:
    """One seeded stats profile: random cardinality, group count, skew."""
    rng = np.random.default_rng(seed)
    base = DataStats.from_rows(
        plan, {s.name: int(rng.integers(10_000, 20_000_000))
               for s in plan.sources()})
    return DataStats(tables=tuple(
        (name, TableStats(
            rows=ts.rows, row_nbytes=ts.row_nbytes,
            distinct=(("k", int(rng.integers(2, 10_000))),),
            skew=float(rng.uniform(0.0, 0.9))))
        for name, ts in base.tables))


class TestMonotoneInRows:
    @pytest.mark.parametrize("seed", PROFILE_SEEDS)
    def test_every_strategy_estimate_is_monotone(self, seed):
        plan = build_q6_plan() if seed % 2 else select_chain_plan(3)
        stats = _profile(plan, seed)
        opt = Optimizer(DeviceSpec())
        shape = PlanShape(plan)
        for option in enumerate_options(plan, stats):
            prev = None
            for scale in SCALES:
                ctx = EnumContext(plan=plan, stats=stats.scaled(scale))
                bound = opt._lower_bound(shape, ctx, option)
                if prev is not None:
                    assert bound >= prev - 1e-12, (
                        f"seed={seed} option={option.label}: bound "
                        f"dropped from {prev} to {bound} at x{scale}")
                prev = bound


class TestDevicesNeverHurt:
    @pytest.mark.parametrize("rows", [200_000, 2_000_000, 6_000_000,
                                      20_000_000])
    def test_cluster_space_never_worse_than_single(self, rows):
        plan = build_q6_plan()
        opt = Optimizer()
        single = opt.choose(plan, {"lineitem": rows}, max_devices=1)
        multi = opt.choose(plan, {"lineitem": rows}, max_devices=4)
        assert multi.chosen.price_s <= single.chosen.price_s + 1e-12, (
            f"opening the cluster space at {rows} rows made the decision "
            f"worse: {multi.chosen.label} {multi.chosen.price_s} vs "
            f"{single.chosen.label} {single.chosen.price_s}")

    def test_single_options_still_enumerated_at_multi(self):
        plan = build_q6_plan()
        decision = Optimizer().choose(plan, {"lineitem": 1_000_000},
                                      max_devices=4)
        labels = {c.label for c in decision.candidates}
        assert {"serial", "fused", "fission", "fused_fission",
                "with_round_trip", "cpubase"} <= labels
        assert any(label.startswith("cluster") for label in labels)


class TestHostBaselineTiming:
    def test_executor_and_cost_model_share_the_cpu_calibration(self):
        """Both interpreters time the host baseline from the device's own
        CPU calibration, so on a slowed host they still agree."""
        import dataclasses

        from repro.optimizer.space import StrategyOption
        from repro.runtime import Executor
        from repro.simgpu.calibration import DEFAULT_CALIBRATION

        slow_cpu = dataclasses.replace(
            DEFAULT_CALIBRATION.cpu,
            read_bw=DEFAULT_CALIBRATION.cpu.read_bw / 4)
        device = DeviceSpec(calib=dataclasses.replace(
            DEFAULT_CALIBRATION, cpu=slow_cpu))
        plan = build_q6_plan()
        rows = {"lineitem": 3_000_000}
        run = Executor(device).run_cpubase(plan, rows)
        est = CostModel(device).estimate(
            plan, DataStats.from_rows(plan, rows),
            StrategyOption(kind="cpubase", strategy=None))
        assert run.makespan == est.host_s
