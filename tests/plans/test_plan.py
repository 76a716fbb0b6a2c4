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


def _tpch_plans_and_subplans():
    """The 22 TPC-H plans at sf 1 and the sub-plans their 4-shard
    distributions derive (local, suffix, and the pre-aggregation pair
    where one applies)."""
    from repro.plans.distribute import distribute_plan
    from repro.tpch.catalog import QUERIES, compile_tpch, tpch_source_rows
    rows = tpch_source_rows(1)
    plans = []
    for name in sorted(QUERIES):
        plan = compile_tpch(name, scale_factor=1).plan
        dist = distribute_plan(plan, rows, 4)
        plans += [plan, dist.local_plan(), dist.suffix_plan()]
        if dist.preagg is not None:
            plans += [dist.preagg_plan(), dist.combine_plan()]
    return plans


class TestFrozenIndex:
    """A validated plan answers its graph queries from an index built
    once, and the answers are the scans an unfrozen plan makes."""

    @pytest.fixture(scope="class")
    def plans(self):
        return _tpch_plans_and_subplans()

    def test_index_equals_the_scans(self, plans):
        assert len(plans) > 66
        for plan in plans:
            walk = plan._walk()
            consumers = {n: [m for m in plan.nodes if n in m.inputs]
                         for n in plan.nodes}
            consumed = {i for n in plan.nodes for i in n.inputs}
            sinks = [n for n in plan.nodes if n not in consumed]
            sources = [n for n in plan.nodes if n.op is OpType.SOURCE]
            assert list(plan.topological()) == walk  # unfrozen: the walk
            assert plan.sources() == sources, plan.name
            plan.validate()
            assert list(plan.topological()) == walk, plan.name
            assert plan.sinks() == sinks, plan.name
            assert plan.sources() == sources, plan.name
            for node in plan.nodes:
                assert plan.consumers(node) == consumers[node], node.name

    def test_frozen_plan_is_not_walked_again(self, monkeypatch):
        from repro.tpch.catalog import compile_tpch
        plan = compile_tpch("q21").plan
        walks = []
        real = Plan._walk
        monkeypatch.setattr(Plan, "_walk",
                            lambda self: walks.append(self) or real(self))
        plan.validate()
        for _ in range(3):
            list(plan.topological())
            plan.sinks()
            plan.structural_issues()
        assert walks == [plan]

    def test_returned_lists_do_not_alias_the_index(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1, name="a")
        plan.select(s, Field("x") < 2, name="b")
        plan.validate()
        plan.consumers(s).clear()
        plan.sinks().append(s)
        plan.sources().append(a)
        plan.sources().clear()
        order = plan.topological()
        next(order)
        assert [n.name for n in plan.consumers(s)] == ["a", "b"]
        assert [n.name for n in plan.sinks()] == ["a", "b"]
        assert plan.sources() == [s]
        assert plan.sources() is not plan.sources()
        assert [n.name for n in plan.topological()] == ["t", "a", "b"]
        assert plan.consumers(a) == []
        assert plan.consumers(PlanNode(OpType.SOURCE, "elsewhere")) == []

    def test_checksum_renders_the_nodes_once(self):
        """A cache checksum of a frozen plan covers its nodes, not the
        index derived from them as well."""
        from repro.optimizer.fingerprint import canonical
        from repro.tpch.catalog import compile_tpch
        plan = compile_tpch("q21").plan
        plan.validate()
        copy = derive(plan.name, plan.nodes)
        assert len(canonical(plan)) - len(canonical(copy)) < 40

    def test_self_join_is_one_consumer(self):
        plan = Plan()
        s = plan.source("t")
        j = plan.join(s, s, on="x", name="j")
        plan.validate()
        assert plan.consumers(s) == [j]

    def test_unfrozen_cycle_still_raises(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1)
        b = plan.select(a, Field("x") < 2)
        object.__setattr__(a, "inputs", (b,))
        with pytest.raises(PlanError, match="cycle"):
            list(plan.topological())
        with pytest.raises(PlanError, match="cycle"):
            plan.validate()
        # the failed validate leaves no index behind
        with pytest.raises(PlanError, match="cycle"):
            list(plan.topological())

    def test_unfrozen_plan_sees_appended_nodes(self):
        plan = Plan()
        s = plan.source("t")
        assert plan.sinks() == [s]
        a = plan.select(s, Field("x") < 1)
        assert plan.sinks() == [a] and plan.consumers(s) == [a]
        assert list(plan.topological()) == [s, a]


class TestRowWidthMemo:
    def test_memo_equals_the_recursive_rule(self, monkeypatch):
        from repro.core import opmodels
        memoized = [[opmodels.out_row_nbytes(n) for n in plan.nodes]
                    for plan in _tpch_plans_and_subplans()]
        # the rule alone, recursing without the memo, on fresh plans
        monkeypatch.setattr(opmodels, "out_row_nbytes",
                            opmodels._derive_row_nbytes)
        for plan, widths in zip(_tpch_plans_and_subplans(), memoized):
            assert [opmodels._derive_row_nbytes(n)
                    for n in plan.nodes] == widths, plan.name

    def test_derived_node_gets_its_own_width(self):
        from repro.core.opmodels import out_row_nbytes
        plan = Plan()
        s = plan.source("t", row_nbytes=8)
        p = plan.project(s, ["x"])
        assert out_row_nbytes(p) == 8
        assert out_row_nbytes(dataclasses.replace(p, out_row_nbytes=4)) == 4
        wider = dataclasses.replace(s, out_row_nbytes=16)
        assert out_row_nbytes(dataclasses.replace(p, inputs=(wider,))) == 16
        assert out_row_nbytes(p) == 8

    def test_width_is_derived_once_per_node(self, monkeypatch):
        from repro.core import opmodels
        from repro.tpch.catalog import compile_tpch
        plan = compile_tpch("q21").plan
        first = [opmodels.out_row_nbytes(n) for n in plan.nodes]

        def rederived(node):
            raise AssertionError(f"{node.name} re-derived")
        monkeypatch.setattr(opmodels, "_derive_row_nbytes", rederived)
        assert [opmodels.out_row_nbytes(n) for n in plan.nodes] == first


class TestPlanMemo:
    """A frozen plan keeps what is derived from it (Plan.memo): once per
    key, bounded, never pickled and never rendered."""

    @staticmethod
    def frozen_plan():
        plan = Plan("memo")
        s = plan.source("t")
        plan.select(s, Field("x") < 1, name="a")
        plan.validate()
        return plan

    def test_derived_once_per_key(self):
        plan = self.frozen_plan()
        calls = []

        def derive_rows(p, rows):
            calls.append(rows)
            return [rows]
        first = plan.memo(derive_rows, 10)
        assert plan.memo(derive_rows, 10) is first
        assert plan.memo(derive_rows, 20) == [20]
        assert calls == [10, 20]

    def test_unfrozen_plan_derives_every_call(self):
        plan = Plan("building")
        plan.source("t")
        calls = []

        def derive_plan(p):
            calls.append(p)
        plan.memo(derive_plan)
        plan.memo(derive_plan)
        assert calls == [plan, plan]

    def test_memo_is_bounded_least_recently_used_first(self):
        from repro.plans.plan import PLAN_MEMO_ENTRIES
        plan = self.frozen_plan()
        calls = []

        def derive_key(p, k):
            calls.append(k)
            return k
        for k in range(PLAN_MEMO_ENTRIES):
            plan.memo(derive_key, k)
        plan.memo(derive_key, 0)  # 0 is now the most recently used
        plan.memo(derive_key, PLAN_MEMO_ENTRIES)  # evicts 1
        assert len(plan._index.memos) == PLAN_MEMO_ENTRIES
        del calls[:]
        plan.memo(derive_key, 0)
        assert calls == []
        plan.memo(derive_key, 1)
        assert calls == [1]

    def test_pickled_plan_carries_no_memo(self):
        import pickle
        plan = self.frozen_plan()
        plan.memo(lambda p: "x" * 1000)
        copy = pickle.loads(pickle.dumps(plan))
        assert copy._frozen and len(copy._index.memos) == 0
        assert [n.name for n in copy.topological()] == ["t", "a"]
        calls = []
        copy.memo(lambda p: calls.append(p))
        assert calls == [copy]

    def test_memo_takes_no_part_in_rendering(self):
        from repro.optimizer.fingerprint import canonical
        plan = self.frozen_plan()
        before = canonical(plan)
        plan.memo(lambda p: {"derived": list(range(10))})
        assert canonical(plan) == before

    def test_memo_dies_with_the_plan(self):
        import gc
        import weakref

        class Value:
            pass
        plan = self.frozen_plan()
        value = weakref.ref(plan.memo(lambda p: Value()))
        assert value() is not None
        del plan
        gc.collect()
        assert value() is None
