"""Tests for the logical-plan builder and graph utilities."""

import dataclasses

import pytest

from repro.errors import PlanError
from repro.plans.plan import OpType, Plan, PlanNode, derive, source_node
from repro.ra.arithmetic import AggSpec
from repro.ra.expr import Field


class TestBuilder:
    def test_source(self):
        plan = Plan()
        s = plan.source("t", row_nbytes=8, n_rows=100)
        assert s.op is OpType.SOURCE
        assert s.out_row_nbytes == 8
        assert s.params["n_rows"] == 100

    def test_auto_names_unique(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1)
        b = plan.select(a, Field("x") < 2)
        assert a.name != b.name

    def test_input_must_belong_to_plan(self):
        p1, p2 = Plan(), Plan()
        s = p1.source("t")
        with pytest.raises(PlanError):
            p2.select(s, Field("x") < 1)

    def test_negative_selectivity_rejected(self):
        with pytest.raises(PlanError):
            PlanNode(OpType.SELECT, "bad", [], selectivity=-0.1)

    def test_predicate_accessor(self):
        plan = Plan()
        s = plan.source("t")
        pred = Field("x") < 1
        sel = plan.select(s, pred)
        assert sel.predicate is pred
        assert s.predicate is None


class TestValidation:
    def test_valid_plan_passes(self):
        plan = Plan()
        s = plan.source("t")
        plan.select(s, Field("x") < 1)
        plan.validate()

    def test_arity_enforced(self):
        plan = Plan()
        s = plan.source("t")
        bad = PlanNode(OpType.JOIN, "j", [s])  # JOIN needs 2 inputs
        plan.nodes.append(bad)
        with pytest.raises(PlanError, match="needs 2 inputs"):
            plan.validate()

    def test_duplicate_names_rejected(self):
        plan = Plan()
        s = plan.source("t")
        plan.select(s, Field("x") < 1, name="same")
        plan.select(s, Field("x") < 2, name="same")
        with pytest.raises(PlanError, match="duplicate"):
            plan.validate()

    def test_cycle_detected(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1)
        b = plan.select(a, Field("x") < 2)
        # nodes are frozen, so the cycle has to be forced past the
        # dataclass guard
        object.__setattr__(a, "inputs", (b,))
        with pytest.raises(PlanError, match="cycle"):
            plan.validate()


class TestFrozen:
    """A node is frozen when built; a plan freezes when it validates."""

    def _plan(self):
        plan = Plan(name="p")
        s = plan.source("t")
        plan.select(s, Field("x") < 1, name="a")
        return plan, s

    @pytest.mark.parametrize("attr", [
        "op", "name", "inputs", "params", "selectivity", "out_row_nbytes"])
    def test_node_fields_cannot_be_assigned(self, attr):
        plan, s = self._plan()
        node = plan.nodes[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, attr, getattr(s, attr))

    def test_node_inputs_are_a_tuple(self):
        s = PlanNode(OpType.SOURCE, "t")
        assert PlanNode(OpType.SELECT, "a", [s]).inputs == (s,)

    def test_validated_plan_rejects_add_and_rename(self):
        plan, s = self._plan()
        plan.validate()
        assert isinstance(plan.nodes, tuple)
        with pytest.raises(PlanError, match="frozen"):
            plan.select(s, Field("x") < 2)
        with pytest.raises(PlanError, match="frozen"):
            plan._add(PlanNode(OpType.SOURCE, "u"))
        with pytest.raises(PlanError, match="frozen"):
            plan.name = "renamed"
        assert plan.name == "p" and len(plan.nodes) == 2

    def test_plan_stays_appendable_until_validated(self):
        plan, s = self._plan()
        plan.nodes.append(PlanNode(OpType.JOIN, "bad", [s]))
        with pytest.raises(PlanError, match="needs 2 inputs"):
            plan.validate()
        # a failed validate leaves the plan open
        plan.nodes.remove(plan.nodes[-1])
        plan.name = "fixed"
        plan.select(s, Field("x") < 2, name="b")
        plan.validate()
        assert [n.name for n in plan.nodes] == ["t", "a", "b"]

    def test_validate_once(self, monkeypatch):
        plan, _ = self._plan()
        calls = []
        real = Plan.structural_issues
        monkeypatch.setattr(Plan, "structural_issues",
                            lambda self: calls.append(self) or real(self))
        plan.validate()
        plan.validate()
        plan.validate()
        assert calls == [plan]


class TestDerive:
    def test_copies_and_leaves_the_input_alone(self):
        plan = Plan(name="p")
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1, name="a")
        b = plan.select(a, Field("x") < 2, name="b")
        plan.validate()
        new = derive("q", plan.nodes, {a: {"selectivity": 0.25}})
        assert new.name == "q"
        assert [n.name for n in new.nodes] == ["t", "a", "b"]
        assert all(n is not o for n, o in zip(new.nodes, plan.nodes))
        assert new.nodes[1].selectivity == 0.25 and a.selectivity == 0.5
        assert new.nodes[2].inputs == (new.nodes[1],)
        assert b.inputs == (a,)
        new.validate()

    def test_aliases_drop_nodes_and_bind_new_sources(self):
        plan = Plan(name="p")
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1, name="a")
        b = plan.select(a, Field("x") < 2, name="b")
        c = plan.select(b, Field("x") < 3, name="c")
        # drop a and b: c reads the source through an alias chain
        new = derive("q", [s, c], aliases={b: a, a: s})
        assert [n.name for n in new.nodes] == ["t", "c"]
        assert new.nodes[1].inputs == (new.nodes[0],)
        # read b from a new SOURCE of the same name
        src = source_node("b", row_nbytes=8)
        sub = derive("suffix", [src, c], aliases={b: src})
        assert sub.nodes[1].inputs == (sub.nodes[0],)
        assert sub.nodes[0].out_row_nbytes == 8
        sub.validate()


class TestGraphQueries:
    def _diamondish(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1, name="a")
        b = plan.select(a, Field("x") < 2, name="b")
        c = plan.select(a, Field("x") < 3, name="c")
        return plan, s, a, b, c

    def test_consumers(self):
        plan, s, a, b, c = self._diamondish()
        assert set(n.name for n in plan.consumers(a)) == {"b", "c"}
        assert plan.consumers(b) == []

    def test_sinks(self):
        plan, s, a, b, c = self._diamondish()
        assert set(n.name for n in plan.sinks()) == {"b", "c"}

    def test_sinks_are_the_unconsumed_nodes_in_node_order(self):
        from repro.tpch.catalog import QUERIES, compile_tpch
        for name in QUERIES:
            plan = compile_tpch(name).plan
            assert plan.sinks() == [n for n in plan.nodes
                                    if not plan.consumers(n)]

    def test_sources(self):
        plan, s, *_ = self._diamondish()
        assert plan.sources() == [s]

    def test_topological_order(self):
        plan, s, a, b, c = self._diamondish()
        order = [n.name for n in plan.topological()]
        assert order.index("t") < order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")

    def test_all_builders_validate(self):
        plan = Plan()
        l = plan.source("l", row_nbytes=8)
        r = plan.source("r", row_nbytes=8)
        n = plan.select(l, Field("x") < 1)
        n = plan.project(n, ["x"])
        n = plan.join(n, r)
        n = plan.semi_join(n, r)
        n = plan.anti_join(n, r)
        n = plan.product(n, r, right_rows=2)
        n = plan.arith(n, {"y": Field("x") + 1})
        n2 = plan.union(plan.select(l, Field("x") < 9), r)
        n3 = plan.intersection(n2, r)
        n3 = plan.difference(n3, r)
        n = plan.sort(n)
        n = plan.unique(n)
        plan.aggregate(n, [], {"c": AggSpec("count")})
        plan.validate()
