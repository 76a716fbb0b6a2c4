"""Plan lints (PLN0xx): every code fires on its planted defect, and the
messages match what ``Plan.validate`` raises for structural problems."""

import pytest

from repro.analyze import Analyzer, Severity
from repro.errors import AnalysisError, PlanError
from repro.plans.plan import OpType, Plan, PlanNode
from repro.ra.arithmetic import AggSpec
from repro.ra.expr import Field


def lint(plan):
    return Analyzer().run(plan)


def schema_plan():
    plan = Plan(name="p")
    src = plan.source("t", fields=["k", "v"])
    return plan, src


class TestStructural:
    def test_pln001_arity(self):
        plan, src = schema_plan()
        plan.nodes.append(PlanNode(OpType.JOIN, "bad", [src]))
        report = lint(plan)
        assert report.has_code("PLN001")
        diag = next(d for d in report.errors if d.code == "PLN001")
        assert "needs 2 inputs" in diag.message
        assert "'bad'" in diag.message

    def test_pln002_duplicate_name(self):
        plan, src = schema_plan()
        plan.select(src, Field("k") < 1, name="dup")
        plan.select(src, Field("k") < 2, name="dup")
        report = lint(plan)
        assert report.has_code("PLN002")

    def test_pln003_cycle(self):
        plan, src = schema_plan()
        a = plan.select(src, Field("k") < 1, name="a")
        b = plan.select(a, Field("k") < 2, name="b")
        object.__setattr__(a, "inputs", (b,))  # force past the frozen node
        report = lint(plan)
        assert report.has_code("PLN003")
        diag = next(d for d in report.errors if d.code == "PLN003")
        assert "cycle" in diag.message

    def test_pln004_dangling_input(self):
        plan, src = schema_plan()
        other = PlanNode(OpType.SOURCE, "ghost", [])
        plan.nodes.append(PlanNode(OpType.SELECT, "sel", [other],
                                   params={"predicate": Field("k") < 1}))
        report = lint(plan)
        assert report.has_code("PLN004")
        diag = next(d for d in report.errors if d.code == "PLN004")
        assert "input #0" in diag.message and "'ghost'" in diag.message

    def test_messages_match_validate(self):
        plan, src = schema_plan()
        plan.nodes.append(PlanNode(OpType.JOIN, "bad", [src]))
        with pytest.raises(PlanError) as err:
            plan.validate()
        report = lint(plan)
        assert str(err.value) in {d.message for d in report.errors}


class TestColumnFlow:
    def test_pln006_project_unknown_field(self):
        plan, src = schema_plan()
        plan.project(src, ["k", "nope"], name="proj")
        report = lint(plan)
        assert report.has_code("PLN006")
        assert "'nope'" in str(report.errors[0]) or "nope" in str(
            report.errors[0])

    def test_pln007_join_key_missing_build_side(self):
        plan = Plan(name="p")
        left = plan.source("l", fields=["k", "v"])
        right = plan.source("r", fields=["other"])
        plan.join(left, right, on="k", name="j")
        report = lint(plan)
        assert report.has_code("PLN007")
        diag = next(d for d in report.errors if d.code == "PLN007")
        assert "build side" in diag.message

    def test_pln008_predicate_unknown_field(self):
        plan, src = schema_plan()
        plan.select(src, Field("missing") < 1, name="sel")
        report = lint(plan)
        assert report.has_code("PLN008")

    def test_pln008_sort_and_groupby(self):
        plan, src = schema_plan()
        plan.sort(src, by=["missing"], name="srt")
        assert lint(plan).has_code("PLN008")

        plan2, src2 = schema_plan()
        plan2.aggregate(src2, ["ghost"], {"n": AggSpec("count")}, name="agg")
        assert lint(plan2).has_code("PLN008")

    def test_unknown_schema_is_never_punished(self):
        plan = Plan(name="p")
        src = plan.source("opaque")  # no declared fields
        plan.select(src, Field("whatever") < 1, name="sel")
        report = lint(plan)
        assert not report.has_code("PLN008")
        assert report.ok

    def test_project_narrows_schema_downstream(self):
        plan, src = schema_plan()
        proj = plan.project(src, ["k"], name="proj")
        plan.select(proj, Field("v") < 1, name="sel")  # v was projected away
        assert lint(plan).has_code("PLN008")


class TestWarnings:
    def test_pln005_dead_source(self):
        plan, src = schema_plan()
        plan.source("unused", fields=["x"])
        plan.select(src, Field("k") < 1, name="sel")
        report = lint(plan)
        diag = next(d for d in report.diagnostics if d.code == "PLN005")
        assert diag.severity is Severity.WARNING
        assert "unused" in diag.message

    def test_pln009_selectivity_above_one(self):
        plan, src = schema_plan()
        plan.select(src, Field("k") < 1, selectivity=1.5, name="sel")
        report = lint(plan)
        assert report.has_code("PLN009")
        assert report.ok  # warning, not error

    def test_pln009_zero_selectivity(self):
        plan, src = schema_plan()
        plan.select(src, Field("k") < 1, selectivity=0.0, name="sel")
        assert lint(plan).has_code("PLN009")

    def test_pln009_bad_n_groups(self):
        plan, src = schema_plan()
        plan.aggregate(src, ["k"], {"n": AggSpec("count")}, n_groups=0,
                       name="agg")
        assert lint(plan).has_code("PLN009")


class TestStrict:
    def test_strict_raises_on_errors(self):
        plan, src = schema_plan()
        plan.project(src, ["nope"], name="proj")
        with pytest.raises(AnalysisError) as err:
            Analyzer().run(plan, strict=True)
        assert "PLN006" in str(err.value)
        assert err.value.diagnostics

    def test_strict_passes_on_warnings_only(self):
        plan, src = schema_plan()
        plan.select(src, Field("k") < 1, selectivity=2.0, name="sel")
        report = Analyzer().run(plan, strict=True)
        assert report.has_code("PLN009")
