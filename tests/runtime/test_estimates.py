"""Cardinality annotations against reality: the observed shape's rows
(:meth:`PlanShape.observe`) compared with :func:`estimate_sizes`."""

import numpy as np
import pytest

from repro.plans import Plan
from repro.plans.plan import OpType
from repro.ra import Field, Relation
from repro.runtime import estimate_sizes
from repro.runtime.sizes import PlanShape
from repro.tpch import (
    TpchConfig,
    build_q1_plan,
    build_q6_plan,
    generate,
    q1_column_relations,
)


def estimated_vs_actual(plan, sources) -> dict[str, tuple[int, int]]:
    """{node: (estimated rows, observed rows)} for every non-source node."""
    actual = PlanShape.observe(plan, sources).sizes(None)
    estimated = estimate_sizes(
        plan, {name: rel.num_rows for name, rel in sources.items()})
    return {n.name: (estimated[n.name], actual[n.name])
            for n in plan.topological() if n.op is not OpType.SOURCE}


def relative_error(estimated: int, actual: int) -> float:
    if actual == 0:
        return 0.0 if estimated == 0 else float("inf")
    return abs(estimated - actual) / actual


def max_relative_error(plan, sources) -> float:
    return max(relative_error(*pair)
               for pair in estimated_vs_actual(plan, sources).values())


@pytest.fixture
def rel(rng):
    return Relation({"k": rng.integers(0, 100, 50_000).astype(np.int32)})


class TestProfiler:
    def test_perfect_estimate(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        actual_sel = float((rel["k"] < 50).mean())
        plan.select(t, Field("k") < 50, selectivity=actual_sel, name="s")
        assert max_relative_error(plan, {"t": rel}) < 0.01

    def test_bad_estimate_detected(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        plan.select(t, Field("k") < 50, selectivity=0.99, name="s")
        plan.project(t, ["k"], name="p")
        errors = {node: relative_error(*pair) for node, pair
                  in estimated_vs_actual(plan, {"t": rel}).items()}
        assert max(errors, key=errors.get) == "s"
        assert errors["s"] > 0.5

    def test_zero_actual_handled(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        plan.select(t, Field("k") < -1, selectivity=0.5, name="empty")
        estimated, actual = estimated_vs_actual(plan, {"t": rel})["empty"]
        assert actual == 0
        assert estimated > 0
        assert relative_error(estimated, actual) == float("inf")

    def test_profile_bridges_into_data_stats(self):
        """The observed shape and the optimizer's observed statistics
        agree on every source's rows."""
        from repro.optimizer import DataStats
        from repro.plans.fuzz import random_plan_case
        case = random_plan_case(3)
        rows = PlanShape.observe(case.plan, case.sources).sizes(None)
        stats = DataStats.from_relations(case.plan, case.sources)
        assert stats.source_rows() == {
            s.name: rows[s.name] for s in case.plan.sources()}


class TestCalibratedPlans:
    def test_q1_annotations_accurate(self, tpch_small):
        """Q1's selectivity annotations must track the generator closely --
        this is what makes the Fig 18(a) simulation trustworthy."""
        assert max_relative_error(
            build_q1_plan(), q1_column_relations(tpch_small.lineitem)) < 0.25

    def test_q6_annotations_accurate(self, tpch_small):
        assert max_relative_error(
            build_q6_plan(), {"lineitem": tpch_small.lineitem}) < 0.35

    def test_q21_annotations_within_factor_two(self):
        """Q21's EXISTS/NOT-EXISTS rates are rough by nature; require the
        estimates to stay within ~2x of reality everywhere."""
        from repro.tpch import build_q21_plan
        data = generate(TpchConfig(scale_factor=0.01, seed=13))
        pairs = estimated_vs_actual(build_q21_plan(), {
            "lineitem": data.lineitem, "orders": data.orders,
            "supplier": data.supplier, "nation": data.nation})
        # judge only nodes big enough for a rate to be meaningful; the
        # terminal aggregates have single-digit actual rows at this scale
        material = {n: est / act for n, (est, act) in pairs.items()
                    if act >= 50}
        assert material
        for node, ratio in material.items():
            assert 0.2 < ratio < 5.0, (node, ratio)
