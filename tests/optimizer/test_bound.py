"""Branch-and-bound planning: the lower bound is sound, pruning never
changes the choice, and ``Optimizer.run`` reuses the confirming run.

The bound (:meth:`Optimizer._lower_bound`) must never exceed the
simulated makespan -- compared exactly, no epsilon -- on every option of
the 22 TPC-H plans at three scales and two device budgets, and on the
fuzz corpus.  So must the cheaper source bound a pruned candidate may
carry.  The branch-and-bound choice must be bit-identical to the
``(price, rank)`` argmin of simulating every option directly.  Each term
of a device option's command floor has its own case below.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterExecutor
from repro.cluster.executor import host_suffix_time
from repro.cpubase.select import cpu_select_time
from repro.core.fission import split_for_fission
from repro.faults import FaultPlan
from repro.frontend import compile_sql
from repro.optimizer import CostModel, DataStats, Optimizer, PlanCache
from repro.optimizer.optimizer import PRUNED_NOTE, _rank
from repro.optimizer.space import EnumContext, enumerate_from
from repro.plans import Plan
from repro.plans.fuzz import random_plan_case
from repro.ra import Field
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.runtime import executor as executor_module
from repro.runtime.select_chain import select_chain_plan
from repro.runtime.sizes import PlanShape, estimate_sizes, node_bytes
from repro.simgpu import DeviceSpec, SimEngine, SimStream
from repro.simgpu.compute import (KernelLaunchSpec, kernel_duration,
                                  kernel_floor)
from repro.simgpu.engine import KernelCommand, TransferCommand, stream_floor
from repro.simgpu.pcie import Direction, HostMemory, PcieModel
from repro.simgpu.timeline import EventKind
from repro.tpch.catalog import CATALOG, QUERIES, tpch_source_rows

pytestmark = pytest.mark.no_chaos


def _check_case(plan, rows, max_devices, schemes=("hash",), **cluster):
    """Every option's bound vs its direct simulation, and the choice vs
    the direct argmin; returns the number of (bound, sim) pairs.
    `cluster` sets the optimizer's ``cluster_seed`` and ``pcie_sharers``."""
    opt = Optimizer(**cluster)
    decision = opt.choose(plan, rows, max_devices=max_devices,
                          schemes=schemes)
    stats = DataStats.from_rows(plan, rows)
    shape = PlanShape(plan)
    ctx = EnumContext(plan=plan, stats=stats, max_devices=max_devices,
                      schemes=schemes)
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
        # the refined bound, whether or not branch and bound needed it
        bound = opt._lower_bound(shape, ctx, cand.option)
        assert cand.bound_s <= bound <= sim, (
            f"{plan.name} x{max_devices} {cand.label}: bound "
            f"{cand.bound_s!r} / {bound!r} > simulated {sim!r}")
        if not cand.pruned:
            # a confirmed option reached the head with its refined bound
            assert cand.bound_s == bound
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


def test_cluster_bound_is_sound_on_every_scheme():
    """The sf-30, 4-device grid again, over every partition scheme, a
    cluster seed other than the default and two PCIe sharers: the host
    term is read on the distribution each option's run uses."""
    rows = tpch_source_rows(30)
    for name, sql in QUERIES.items():
        plan = compile_sql(sql, CATALOG, source_rows=rows, name=name).plan
        _check_case(plan, rows, 4, schemes=("hash", "range", "rr"),
                    cluster_seed=3, pcie_sharers=2)


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


# -- the command floor, term by term --------------------------------------------

def _tpch_shape(name, scale_factor):
    plan, rows = _tpch(name, scale_factor)
    return PlanShape(plan), rows


def _single(shape, rows, strategy):
    """(optimizer, context, option) of one single-device strategy."""
    ctx = EnumContext(plan=shape.plan,
                      stats=DataStats.from_rows(shape.plan, rows))
    option = next(o for o in enumerate_from(ctx)
                  if o.kind == "single" and o.strategy is strategy)
    return Optimizer(), ctx, option


def _command_floor(shape, rows, strategy):
    opt, ctx, option = _single(shape, rows, strategy)
    return opt._command_floor(shape, ctx, option)


def _by_hand(stream, device):
    """Each command's floor, summed in queue order, spelled out."""
    pcie = PcieModel(device.calib.pcie)
    total = 0.0
    for cmd in stream.commands:
        if isinstance(cmd, KernelCommand):
            spec = cmd.spec
            g = device.calib.gpu
            traffic = spec.total_traffic + 8 * max(
                0, spec.regs_per_thread - g.max_regs_per_thread
            ) * spec.num_elements
            total += (device.kernel_launch_s if spec.num_elements <= 0
                      else device.kernel_launch_s + max(
                          traffic / device.mem_bw,
                          spec.instructions / device.inst_rate))
        else:
            assert isinstance(cmd, TransferCommand)
            total += cmd.nbytes / pcie.peak_bandwidth(cmd.direction,
                                                      cmd.memory)
    return total


_SPECS = [
    KernelLaunchSpec("small", 100, 1, 256, 20, 800.0, 400.0, 2_000.0),
    KernelLaunchSpec("big", 50_000_000, 112, 256, 24, 4e8, 2e8, 1e9),
    KernelLaunchSpec("inst_bound", 1_000_000, 112, 256, 30, 8e6, 4e6, 9e8),
    # 70 registers is past the per-thread limit: every element spills
    KernelLaunchSpec("spills", 10_000_000, 112, 256, 70, 8e7, 4e7, 1e8),
    KernelLaunchSpec("empty", 0, 1, 256, 20, 0.0, 0.0, 0.0),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_kernel_floor_is_full_utilization(spec):
    """launch + max(traffic, spills counted, / mem_bw, instructions /
    inst_rate): never above the DES's duration at any SM grant, alone or
    concurrent, and equal to it only when nothing is lost to
    utilization."""
    device = DeviceSpec()
    floor = kernel_floor(device, spec)
    assert floor == _by_hand(SimStream(0).kernel(spec), device)
    for sms in (1, device.num_sms // 2, device.num_sms):
        for concurrent in (False, True):
            assert floor <= kernel_duration(device, spec, sms, concurrent)
    if spec.name == "spills":
        assert floor > kernel_floor(device, KernelLaunchSpec(
            "no_spill", spec.num_elements, spec.num_ctas,
            spec.threads_per_cta, 20, spec.bytes_read, spec.bytes_written,
            spec.instructions))
    if spec.name == "empty":
        assert floor == device.kernel_launch_s


@pytest.mark.parametrize("query,scale_factor,strategy,chunks", [
    ("q6", 1, Strategy.SERIAL, 1),
    ("q6", 1, Strategy.FUSED, 1),
    ("q3", 1, Strategy.WITH_ROUND_TRIP, 1),
    # lineitem does not fit beside its side tables: four chunks
    ("q17", 10, Strategy.SERIAL, 4),
    ("q17", 10, Strategy.WITH_ROUND_TRIP, 4),
])
def test_one_stream_floor_sums_every_command(query, scale_factor, strategy,
                                             chunks):
    """Serial, fused and round-trip runs are one in-order stream: the
    floor is every queued command's floor, summed, and the Executor runs
    exactly that program."""
    shape, rows = _tpch_shape(query, scale_factor)
    executor = Executor()
    config = ExecutionConfig(strategy=strategy)
    program = executor.program(shape, rows, config)
    assert len(program.streams) == 1 and program.pipelined_bytes == 0
    (stream,) = program.streams
    floor = _command_floor(shape, rows, strategy)
    assert floor == stream_floor(stream, executor.device,
                                 PcieModel(executor.device.calib.pcie))
    assert floor == _by_hand(stream, executor.device)

    run = executor.run(shape, rows, config)
    assert run.num_chunks == chunks
    driver = Executor._driver_source(shape.plan, shape.sizes(rows))
    uploads = [c for c in stream.commands
               if c.tag.startswith(f"input.{driver.name}.c")]
    assert len(uploads) == chunks
    # the run queued this very program: same commands, same order
    assert [ev.tag for ev in run.timeline.events] == [
        c.tag for c in stream.commands]
    assert floor <= run.makespan
    # the floor sees the kernels the source bound ignores
    opt, ctx, option = _single(shape, rows, strategy)
    assert floor > opt._source_bound(shape, ctx, option)


@pytest.mark.parametrize("strategy", [Strategy.FISSION,
                                      Strategy.FUSED_FISSION])
@pytest.mark.parametrize("query", ["q1", "q6", "q14"])
def test_fission_floor_is_three_phases(query, strategy):
    """Phase A's stream, then phase B's driver and co-driver upload at
    the fission memory's H2D peak, then phase C's stream."""
    shape, rows = _tpch_shape(query, 1)
    executor = Executor()
    config = ExecutionConfig(strategy=strategy)
    program = executor.program(shape, rows, config)
    pre, post = program.streams
    assert program.pipelined_memory is config.fission.memory
    run = executor.run(shape, rows, config)
    segments = [ev for ev in run.timeline.filter(EventKind.H2D)
                if ev.tag.startswith("h2d.seg")]
    assert len(segments) >= config.fission.min_segments
    assert program.pipelined_bytes == sum(ev.nbytes for ev in segments)

    device = executor.device
    pcie = PcieModel(device.calib.pcie)
    phase_b = program.pipelined_bytes / pcie.peak_bandwidth(
        Direction.H2D, config.fission.memory)
    assert phase_b <= sum(ev.duration for ev in segments)
    floor = _command_floor(shape, rows, strategy)
    assert floor == (_by_hand(pre, device) + phase_b) + _by_hand(post,
                                                                 device)
    assert floor <= run.makespan


def _sorted_source():
    """One source, sorted: the driver's first region is a barrier, so
    fission has no prefix to pipeline."""
    plan = Plan(name="sorted_source")
    t = plan.source("t", row_nbytes=16)
    plan.sort(t, by=["k"])
    return PlanShape(plan), {"t": 5_000_000}


def test_fission_without_prefix_is_floored_as_serial():
    shape, rows = _sorted_source()
    fused = shape.fusion(False)
    prefix, _, _ = split_for_fission(fused.regions, shape.plan.sources()[0])
    assert not prefix
    executor = Executor()
    fission = executor.program(shape, rows,
                               ExecutionConfig(strategy=Strategy.FISSION))
    serial = executor.program(shape, rows,
                              ExecutionConfig(strategy=Strategy.SERIAL))
    assert len(fission.streams) == 1 and fission.pipelined_bytes == 0
    floor = _command_floor(shape, rows, Strategy.FISSION)
    assert floor == _command_floor(shape, rows, Strategy.SERIAL)
    assert [c.tag for c in fission.streams[0].commands] == [
        c.tag for c in serial.streams[0].commands]
    run = executor.run(shape, rows,
                       ExecutionConfig(strategy=Strategy.FISSION))
    assert floor <= run.makespan


def test_one_transfer_floor_under_shared_host():
    """A transfer's floor is its bytes over the peak, which the shared
    host's cap lowers (``PcieModel.peak_bandwidth``)."""
    import dataclasses
    device = DeviceSpec()
    shared = DeviceSpec(calib=dataclasses.replace(
        device.calib, pcie=dataclasses.replace(
            device.calib.pcie,
            host_share_bw=device.calib.pcie.pinned_h2d_bw / 3)))
    floors = []
    for dev in (device, shared):
        stream = SimStream(0).h2d(3e8, HostMemory.PINNED).d2h(
            1e3, HostMemory.PAGED)
        floors.append(stream_floor(stream, dev, PcieModel(dev.calib.pcie)))
        assert floors[-1] == _by_hand(stream, dev)
        assert floors[-1] <= SimEngine(dev).run([stream]).makespan
    assert floors[1] > floors[0]


# -- the cluster bound's host phase ------------------------------------------------

def _host_mode_runs():
    """(query, option, dist, shape, run) of every host-mode cluster option
    of the 22 plans at sf 30 on 4 devices."""
    rows = tpch_source_rows(30)
    opt = Optimizer()
    for name in QUERIES:
        plan, _ = _tpch(name, 30)
        shape = PlanShape(plan)
        ctx = EnumContext(plan=plan, stats=DataStats.from_rows(plan, rows),
                          max_devices=4)
        for option in enumerate_from(ctx):
            if option.kind != "cluster":
                continue
            dist = opt._cluster_executor(option).distribute(plan, rows)
            if dist.suffix_mode == "host":
                yield name, option, dist, shape, opt._execute(
                    shape, rows, option)


def test_host_term_is_the_merge_events_interpreter_part():
    """The cluster bound's host term is the interpreter part of the run's
    ``cluster.merge`` event: the event is the host's gather at
    ``host_gather_bw``, under pre-aggregated states a scan of the root's
    state rows, and then the term, summed as the run sums them.  So the
    term fits inside the event, which starts no earlier than the
    barrier."""
    rows = tpch_source_rows(30)
    device = DeviceSpec()
    cpu, bw = device.calib.cpu, Optimizer().costs.host_gather_bw
    seen = []
    for name, option, dist, shape, run in _host_mode_runs():
        states = dist.preagg is not None
        host = host_suffix_time(dist, states, shape.sizes(rows), cpu)
        assert host > 0.0
        [merge] = [ev for ev in run.host_timeline.events
                   if ev.tag == "cluster.merge"]
        expected = merge.nbytes / bw
        if states:
            state_row = float(dist.preagg.state_row_nbytes)
            expected += cpu_select_time(merge.nbytes / state_row,
                                        int(state_row), calib=cpu)
        expected += host
        assert merge.end == merge.start + expected, (name, option.label)
        assert merge.start + host <= merge.end
        barrier = max(r.start + r.makespan for r in run.shard_runs)
        assert merge.start >= barrier
        seen.append((name, option.devices, states))
    assert len(seen) == 44
    assert ("q1", 4, True) in seen


@pytest.mark.parametrize("query", ["q8", "q9", "q17", "q21"])
def test_host_phase_prunes_every_cluster_option(monkeypatch, query):
    """At sf 30 on 4 devices these cluster options lose by their host
    phase alone: none is simulated, and one device wins as it does when
    no cluster is offered."""
    plan, rows = _tpch(query, 30)
    runs = []
    run = ClusterExecutor.run

    def counted(self, *args, **kwargs):
        runs.append(args)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ClusterExecutor, "run", counted)
    decision = Optimizer().choose(plan, rows, max_devices=4)
    assert runs == []
    single = Optimizer().choose(plan, rows, max_devices=1)
    assert decision.chosen.label == single.chosen.label
    assert decision.chosen.price_s == single.chosen.price_s
    cluster = [c for c in decision.candidates if c.option.kind == "cluster"]
    assert cluster and all(c.pruned for c in cluster)


# -- lazy refinement ---------------------------------------------------------------

class _Lowerings:
    """Counts command floors and region lowerings."""

    def __init__(self, monkeypatch):
        self.floors = self.lowerings = 0
        floor, lower = Optimizer._command_floor, executor_module.lower_region

        def counted_floor(*args, **kwargs):
            self.floors += 1
            return floor(*args, **kwargs)

        def counted_lower(*args, **kwargs):
            self.lowerings += 1
            return lower(*args, **kwargs)
        monkeypatch.setattr(Optimizer, "_command_floor", counted_floor)
        monkeypatch.setattr(executor_module, "lower_region", counted_lower)


def test_source_bound_prunes_before_any_lowering(monkeypatch):
    """q5 at sf 1: the host baseline (33.7 ms) beats every device
    option's source bound (60.7 ms), so no device option is lowered for
    its bound, and none is simulated."""
    counter = _Lowerings(monkeypatch)
    decision = Optimizer().choose(*_tpch("q5", 1))
    assert decision.chosen.label == "cpubase"
    assert counter.floors == counter.lowerings == 0
    singles = [c for c in decision.candidates if c.option.kind == "single"]
    assert singles and all(c.pruned for c in singles)
    assert decision.summary()["optimizer.confirmed"] == 1


@pytest.mark.parametrize("query", ["q1", "q3", "q4"])
def test_cluster_choice_prunes_single_options_unlowered(monkeypatch, query):
    """At sf 30 on 4 devices a cluster shape wins these three, and every
    single-device option is MEM701-infeasible or pruned by its source
    bound alone."""
    plan, rows = _tpch(query, 30)
    counter = _Lowerings(monkeypatch)
    decision = Optimizer().choose(plan, rows, max_devices=4)
    assert decision.chosen.option.kind == "cluster"
    assert counter.floors == 0
    for cand in decision.candidates:
        if cand.option.kind == "single":
            assert cand.pruned or not cand.feasible


def _eager(monkeypatch):
    """Make every option's first bound its refined one: the eager order."""
    source = Optimizer._source_bound

    def refined(self, shape, ctx, option):
        bound = source(self, shape, ctx, option)
        if option.kind == "single":
            bound = max(bound, self._command_floor(shape, ctx, option))
        return bound
    monkeypatch.setattr(Optimizer, "_source_bound", refined)


@pytest.mark.parametrize("max_devices", [1, 4])
@pytest.mark.parametrize("scale_factor", [0.01, 1, 30])
def test_eager_and_lazy_orders_decide_alike(monkeypatch, scale_factor,
                                           max_devices):
    """Refining lazily confirms the same options in the same order as
    bounding every option up front, so the two decisions are identical:
    same choice, prices, notes and confirmed set.  Only a pruned option's
    bound may differ: lazily it may still be its source bound, which is
    at most the refined one and already at least the chosen price."""
    rows = tpch_source_rows(scale_factor)
    plans = [compile_sql(sql, CATALOG, source_rows=rows, name=name).plan
             for name, sql in QUERIES.items()]
    lazy = [Optimizer().choose(p, rows, max_devices=max_devices)
            for p in plans]
    with monkeypatch.context() as m:
        _eager(m)
        eager = [Optimizer().choose(p, rows, max_devices=max_devices)
                 for p in plans]
    for a, b in zip(lazy, eager):
        assert a.chosen.option == b.chosen.option
        assert a.chosen.price_s == b.chosen.price_s
        for x, y in zip(a.candidates, b.candidates):
            assert (x.option, x.sim_makespan_s, x.feasible, x.notes) == (
                y.option, y.sim_makespan_s, y.feasible, y.notes)
            if x.pruned:
                assert a.chosen.price_s <= x.bound_s <= y.bound_s
            else:
                assert x.bound_s == y.bound_s
        sa, sb = a.summary(), b.summary()
        assert {k: v for k, v in sa.items() if not k.endswith(".bound_s")} \
            == {k: v for k, v in sb.items() if not k.endswith(".bound_s")}


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
