"""Tests for the cardinality-estimate profiler."""

import numpy as np
import pytest

from repro.plans import Plan
from repro.ra import Field, Relation
from repro.runtime.estimates import profile_estimates
from repro.tpch import (
    TpchConfig,
    build_q1_plan,
    build_q6_plan,
    generate,
    q1_column_relations,
)


@pytest.fixture
def rel(rng):
    return Relation({"k": rng.integers(0, 100, 50_000).astype(np.int32)})


class TestProfiler:
    def test_perfect_estimate(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        actual_sel = float((rel["k"] < 50).mean())
        plan.select(t, Field("k") < 50, selectivity=actual_sel, name="s")
        prof = profile_estimates(plan, {"t": rel})
        assert prof.max_relative_error < 0.01

    def test_bad_estimate_detected(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        plan.select(t, Field("k") < 50, selectivity=0.99, name="s")
        prof = profile_estimates(plan, {"t": rel})
        assert prof.worst().node == "s"
        assert prof.max_relative_error > 0.5

    def test_describe_renders(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        plan.select(t, Field("k") < 50, name="s")
        text = profile_estimates(plan, {"t": rel}).describe()
        assert "est/act" in text and "s" in text

    def test_zero_actual_handled(self, rel):
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        plan.select(t, Field("k") < -1, selectivity=0.5, name="empty")
        prof = profile_estimates(plan, {"t": rel})
        rec = prof.records[0]
        assert rec.actual == 0
        assert rec.ratio == float("inf")

    def test_profile_bridges_into_data_stats(self):
        from repro.optimizer import DataStats
        from repro.plans.fuzz import random_plan_case
        case = random_plan_case(3)
        profile = profile_estimates(case.plan, case.sources)
        assert profile.data_stats() == DataStats.from_relations(
            case.plan, case.sources)


class TestCalibratedPlans:
    def test_q1_annotations_accurate(self, tpch_small):
        """Q1's selectivity annotations must track the generator closely --
        this is what makes the Fig 18(a) simulation trustworthy."""
        prof = profile_estimates(build_q1_plan(),
                                 q1_column_relations(tpch_small.lineitem))
        assert prof.max_relative_error < 0.25

    def test_q6_annotations_accurate(self, tpch_small):
        prof = profile_estimates(build_q6_plan(),
                                 {"lineitem": tpch_small.lineitem})
        assert prof.max_relative_error < 0.35

    def test_q21_annotations_within_factor_two(self):
        """Q21's EXISTS/NOT-EXISTS rates are rough by nature; require the
        estimates to stay within ~2x of reality everywhere."""
        from repro.tpch import build_q21_plan
        data = generate(TpchConfig(scale_factor=0.01, seed=13))
        prof = profile_estimates(build_q21_plan(), {
            "lineitem": data.lineitem, "orders": data.orders,
            "supplier": data.supplier, "nation": data.nation})
        # judge only nodes big enough for a rate to be meaningful; the
        # terminal aggregates have single-digit actual rows at this scale
        material = [r for r in prof.records if r.actual >= 50]
        assert material
        for rec in material:
            assert 0.2 < rec.ratio < 5.0, (rec.node, rec.ratio)
