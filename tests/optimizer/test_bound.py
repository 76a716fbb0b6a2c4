"""Branch-and-bound planning: the lower bound is sound, pruning never
changes the choice, and ``Optimizer.run`` reuses the confirming run.

The bound (:meth:`Optimizer._lower_bound`) must never exceed the
simulated makespan -- compared exactly, no epsilon -- on every option of
the 22 TPC-H plans at three scales and two device budgets, and on the
fuzz corpus.  The branch-and-bound choice must be bit-identical to the
``(price, rank)`` argmin of simulating every option directly.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterExecutor
from repro.faults import FaultPlan
from repro.frontend import compile_sql
from repro.optimizer import CostModel, DataStats, Optimizer, PlanCache
from repro.optimizer.optimizer import PRUNED_NOTE, _rank
from repro.plans import Plan
from repro.plans.fuzz import random_plan_case
from repro.ra import Field
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.runtime.select_chain import select_chain_plan
from repro.runtime.sizes import estimate_sizes, node_bytes
from repro.simgpu.pcie import Direction, HostMemory, PcieModel
from repro.tpch.catalog import CATALOG, QUERIES, tpch_source_rows

pytestmark = pytest.mark.no_chaos


def _check_case(plan, rows, max_devices):
    """Every option's bound vs its direct simulation, and the choice vs
    the direct argmin; returns the number of (bound, sim) pairs."""
    opt = Optimizer()
    decision = opt.choose(plan, rows, max_devices=max_devices)
    stats = DataStats.from_rows(plan, rows)
    direct = []
    for i, cand in enumerate(decision.candidates):
        if cand.bound_s is None:
            # MEM701: hard-pruned before any bound or simulation
            assert not cand.feasible
            continue
        sim, feasible, _, _ = opt._simulate(plan, stats, cand.option)
        if not feasible:
            assert not cand.pruned, f"{cand.label} pruned yet infeasible"
            continue
        assert cand.bound_s <= sim, (
            f"{plan.name} x{max_devices} {cand.label}: bound "
            f"{cand.bound_s!r} > simulated {sim!r}")
        if not cand.pruned:
            assert cand.sim_makespan_s == sim
        direct.append((sim, _rank(cand.option), i))
    price, _, index = min(direct)
    assert decision.chosen is decision.candidates[index]
    assert decision.chosen.price_s == price
    return len(direct)


@pytest.mark.parametrize("max_devices", [1, 4])
@pytest.mark.parametrize("scale_factor", [0.01, 1, 30])
def test_tpch_bound_is_sound_and_choice_unchanged(scale_factor, max_devices):
    rows = tpch_source_rows(scale_factor)
    pairs = 0
    for name, sql in QUERIES.items():
        plan = compile_sql(sql, CATALOG, source_rows=rows, name=name).plan
        pairs += _check_case(plan, rows, max_devices)
    assert pairs >= len(QUERIES) * 3


@pytest.mark.parametrize("max_devices,seeds", [(1, range(20)),
                                               (2, range(4))])
def test_fuzz_bound_is_sound_and_choice_unchanged(max_devices, seeds):
    for seed in seeds:
        case = random_plan_case(seed)
        rows = {name: rel.num_rows for name, rel in case.sources.items()}
        _check_case(case.plan, rows, max_devices)


def test_round_trip_sources_upload_pinned():
    """Round trip stages its *sources* through pinned buffers; only the
    spills are pageable.  On a one-select plan there is nothing to spill,
    so a paged rate over the source bytes would overshoot the run."""
    plan = Plan(name="one_select")
    t = plan.source("t", row_nbytes=16)
    plan.select(t, Field("k") < 1, selectivity=0.01)
    rows = {"t": 25_000_000}
    decision = Optimizer().choose(plan, rows, include_cpubase=False)
    run = Executor().run(plan, rows,
                         ExecutionConfig(strategy=Strategy.WITH_ROUND_TRIP))
    rt = next(c for c in decision.candidates
              if c.label == Strategy.WITH_ROUND_TRIP.value)
    assert rt.bound_s <= run.makespan
    pcie = PcieModel(Executor().device.calib.pcie)
    src = node_bytes(t, estimate_sizes(plan, rows))
    assert src / pcie.peak_bandwidth(Direction.H2D,
                                     HostMemory.PAGED) > run.makespan


# -- run reuse ---------------------------------------------------------------

class _RunCounter:
    """Counts outermost executor runs (a cluster run is one run, not one
    per shard)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._depth = 0
        for cls, name in ((Executor, "run"), (Executor, "run_cpubase"),
                          (ClusterExecutor, "run")):
            monkeypatch.setattr(cls, name, self._wrap(getattr(cls, name)))

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += self._depth == 0
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return counted

    def during(self, fn, *args, **kwargs):
        before = self.calls
        out = fn(*args, **kwargs)
        return out, self.calls - before


def _fresh_run(option, plan, rows, faults=None, check=False):
    if option.kind == "cpubase":
        return Executor().run_cpubase(plan, rows)
    if option.kind == "single":
        return Executor(faults=faults, check=check).run(
            plan, rows, ExecutionConfig(strategy=option.strategy))
    return ClusterExecutor(config=ClusterConfig(
        num_devices=option.devices, scheme=option.scheme,
        strategy=option.strategy, preagg=option.preagg, merge=option.merge,
        faults=faults, check=check)).run(plan, rows)


def _tpch(name, scale_factor):
    rows = tpch_source_rows(scale_factor)
    return compile_sql(QUERIES[name], CATALOG, source_rows=rows,
                       name=name).plan, rows


#: (plan, rows, max_devices, chosen kind): a device strategy, the host
#: baseline, and a cluster shape; the TPC-H rows name all 8 tables, more
#: than the plan reads
CASES = {
    "single": lambda: (select_chain_plan(2), {"input": 100_000_000}, 1,
                       "single"),
    "cpubase": lambda: (select_chain_plan(2), {"input": 1_000}, 1,
                        "cpubase"),
    "cluster": lambda: (*_tpch("q1", 30), 4, "cluster"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("extra", [
    {}, {"check": True}, {"faults": FaultPlan.off()}, {"analyze": True}])
def test_run_reuses_the_confirming_run(monkeypatch, case, extra):
    plan, rows, devices, kind = CASES[case]()
    counter = _RunCounter(monkeypatch)
    chosen, confirm_runs = counter.during(
        Optimizer().choose, plan, rows, max_devices=devices)
    assert chosen.chosen.option.kind == kind
    (result, decision), runs = counter.during(
        Optimizer().run, plan, rows, max_devices=devices, **extra)
    assert decision.chosen.label == chosen.chosen.label
    assert runs == confirm_runs + (1 if extra else 0)
    fresh = _fresh_run(decision.chosen.option, plan, rows,
                       faults=extra.get("faults"),
                       check=extra.get("check", False))
    assert result.makespan == fresh.makespan


def test_cache_hit_runs_once(monkeypatch):
    plan, rows = select_chain_plan(2), {"input": 100_000_000}
    opt = Optimizer(cache=PlanCache())
    opt.run(plan, rows)
    counter = _RunCounter(monkeypatch)
    (result, decision), runs = counter.during(opt.run, plan, rows)
    assert decision.cache_hit and decision.confirmed_run is None
    assert runs == 1
    fresh = _fresh_run(decision.chosen.option, plan, rows)
    assert result.makespan == fresh.makespan


def test_rows_other_than_priced_run_again(monkeypatch):
    """Stats priced on other rows than the caller's: the confirming run
    measured the wrong input, so the chosen option runs on the caller's."""
    plan = select_chain_plan(2)
    rows = {"input": 100_000_000}
    stats = DataStats.from_rows(plan, {"input": 50_000_000})
    counter = _RunCounter(monkeypatch)
    _, confirm_runs = counter.during(Optimizer().choose, plan, rows,
                                     stats=stats)
    (result, decision), runs = counter.during(Optimizer().run, plan, rows,
                                              stats=stats)
    assert runs == confirm_runs + 1
    fresh = _fresh_run(decision.chosen.option, plan, rows)
    assert result.makespan == fresh.makespan


# -- how pruned candidates read -----------------------------------------------

def test_explain_shows_pruned_bounds():
    decision = Optimizer().choose(select_chain_plan(2),
                                  {"input": 100_000_000})
    pruned = [c for c in decision.candidates if c.pruned]
    assert any(c.label == "cpubase" for c in pruned)
    ranked = decision.ranked()
    # every priced candidate first, the pruned ones after, by bound
    n_priced = len(ranked) - len(pruned)
    assert not any(c.pruned for c in ranked[:n_priced])
    assert [c.bound_s for c in ranked[n_priced:]] == sorted(
        c.bound_s for c in pruned)
    assert decision.best_price_s == decision.chosen.price_s
    for cand in pruned:
        assert cand.sim_makespan_s is None
        assert cand.notes == (PRUNED_NOTE,)
        assert cand.price_s == cand.bound_s >= decision.chosen.price_s
        assert "not simulated" in cand.price_text()
        line = next(ln for ln in decision.explain().splitlines()
                    if ln[2:].split()[0] == cand.label)
        assert f"≥{cand.bound_s * 1e3:.3f}" in line
        assert PRUNED_NOTE in line
    summary = decision.summary()
    assert summary["optimizer.confirmed"] == (
        len(decision.candidates) - len(pruned))
    for cand in pruned:
        assert f"candidate.{cand.label}.sim_s" not in summary
        assert summary[f"candidate.{cand.label}.bound_s"] >= \
            summary["optimizer.chosen_price_s"]


# -- prices are simulated or bounded ------------------------------------------

@pytest.mark.parametrize("max_devices", [1, 4])
@pytest.mark.parametrize("query", ["q1", "q6", "q21"])
def test_only_the_host_baseline_reads_the_analytic_model(monkeypatch, query,
                                                         max_devices):
    """A candidate is priced by its simulation or its bound; the analytic
    model is read only for the host baseline's exact price."""
    kinds = []
    estimate = CostModel.estimate

    def recorded(self, *args, **kwargs):
        kinds.append(args[2].kind)          # (plan, stats, option)
        return estimate(self, *args, **kwargs)

    monkeypatch.setattr(CostModel, "estimate", recorded)
    plan, rows = _tpch(query, 1)
    decision = Optimizer().choose(plan, rows, max_devices=max_devices)
    assert kinds == ["cpubase"]
    assert not [k for k in decision.summary() if k.endswith(".est_s")]
    lines = decision.explain().splitlines()[2:]
    assert sorted(ln[2:].split()[0] for ln in lines) == sorted(
        c.label for c in decision.candidates)
