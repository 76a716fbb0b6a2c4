"""Tests for the cross-query workload scheduler."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.faults import FaultPlan
from repro.plans import Plan, evaluate_sinks
from repro.plans.plan import OpType
from repro.ra import AggSpec, Field
from repro.ra.relation import Relation
from repro.runtime.workload import QueryWorkload, WorkloadScheduler


def query(i, threshold, agg=False):
    plan = Plan(name=f"query{i}")
    t = plan.source("lineitem", row_nbytes=4)
    node = plan.select(t, Field("x") < threshold, selectivity=0.2,
                       name="filter")
    if agg:
        plan.aggregate(node, [], {"n": AggSpec("count")}, name="count")
    return plan


@pytest.fixture
def workload():
    return QueryWorkload(plans=[query(0, 10), query(1, 20), query(2, 30, agg=True)])


ROWS = {"lineitem": 200_000_000}


class TestMergedPlan:
    def test_sources_deduplicated(self, workload):
        merged = workload.merged_plan()
        assert len(merged.sources()) == 1

    def test_query_nodes_namespaced(self, workload):
        merged = workload.merged_plan()
        names = {n.name for n in merged.nodes if n.op is not OpType.SOURCE}
        assert "q0.filter" in names and "q2.count" in names

    def test_merged_validates(self, workload):
        workload.merged_plan().validate()

    def test_empty_workload_rejected(self):
        with pytest.raises(PlanError):
            QueryWorkload(plans=[])

    def test_shared_scan_group_appears(self, workload):
        from repro.core.multifusion import find_shared_select_groups
        groups = find_shared_select_groups(workload.merged_plan())
        assert len(groups) == 1
        assert len(groups[0].selects) == 3


class TestScheduler:
    def test_isolated_uploads_per_query(self, workload):
        sched = WorkloadScheduler()
        r = sched.run_isolated(workload, ROWS)
        assert r.input_bytes == pytest.approx(3 * 200_000_000 * 4)

    def test_shared_source_uploads_once(self, workload):
        sched = WorkloadScheduler()
        r = sched.run_shared_source(workload, ROWS)
        assert r.input_bytes == pytest.approx(200_000_000 * 4)

    def test_sharing_improves(self, workload):
        sched = WorkloadScheduler()
        results = sched.compare(workload, ROWS)
        assert (results["shared_source"].makespan
                < results["isolated"].makespan)
        assert (results["cross_query_fused"].makespan
                < results["shared_source"].makespan)

    def test_cross_query_fusion_kernel_count_drops(self, workload):
        from repro.simgpu import EventKind
        sched = WorkloadScheduler()
        shared = sched.run_shared_source(workload, ROWS)
        fused = sched.run_cross_query_fused(workload, ROWS)
        assert (len(fused.timeline.filter(EventKind.KERNEL))
                < len(shared.timeline.filter(EventKind.KERNEL)))

    def test_single_query_workload_no_fusion_benefit(self):
        w = QueryWorkload(plans=[query(0, 10)])
        sched = WorkloadScheduler()
        a = sched.run_shared_source(w, ROWS)
        b = sched.run_cross_query_fused(w, ROWS)
        assert a.makespan == pytest.approx(b.makespan, rel=0.01)

    def test_throughput_definition(self, workload):
        r = WorkloadScheduler().run_isolated(workload, ROWS)
        assert r.throughput == pytest.approx(r.input_bytes / r.makespan)


REGIMES = ("run_isolated", "run_shared_source", "run_cross_query_fused",
           "run_batched_streams")


class TestRegimeComparison:
    """The sharing regimes only reschedule work -- they must agree on the
    answer, and sharing more must never cost simulated time."""

    def test_results_identical_across_regimes(self, workload):
        # Every regime executes the same logical plans (per-query for
        # isolated, merged for the sharing regimes); the functional
        # interpreter is the reference both reduce to.
        rel = Relation({"x": np.arange(1000) % 50})
        merged_out = evaluate_sinks(workload.merged_plan(), {"lineitem": rel})
        for qi, plan in enumerate(workload.plans):
            for name, got in evaluate_sinks(plan, {"lineitem": rel}).items():
                want = merged_out[f"q{qi}.{name}"]
                assert list(got.columns) == list(want.columns)
                for col in got.columns:
                    np.testing.assert_array_equal(
                        got.columns[col], want.columns[col])

    @pytest.mark.no_chaos
    def test_makespan_monotone_non_increasing(self, workload):
        sched = WorkloadScheduler()
        iso = sched.run_isolated(workload, ROWS)
        shared = sched.run_shared_source(workload, ROWS)
        fused = sched.run_cross_query_fused(workload, ROWS)
        batched = sched.run_batched_streams(workload, ROWS)
        assert iso.makespan >= shared.makespan >= fused.makespan
        # the serving-path dispatch overlaps per-query remainders on top of
        # the shared scan, so it can only improve on the serial merged plan
        assert batched.makespan <= shared.makespan

    def test_batched_streams_uploads_once(self, workload):
        r = WorkloadScheduler().run_batched_streams(workload, ROWS)
        assert r.input_bytes == pytest.approx(200_000_000 * 4)

    @pytest.mark.no_chaos
    def test_chaos_regimes_recover_and_stay_deterministic(self, workload,
                                                          chaos):
        clean = WorkloadScheduler()
        faulted = WorkloadScheduler(faults=chaos)
        for regime in REGIMES:
            base = getattr(clean, regime)(workload, ROWS)
            r1 = getattr(faulted, regime)(workload, ROWS)
            r2 = getattr(faulted, regime)(workload, ROWS)
            # a FaultPlan hands each run a fresh injector: same decisions
            assert r1.makespan == r2.makespan, regime
            # retries/stalls/backoff only ever add simulated time
            assert r1.makespan >= base.makespan, regime

    @pytest.mark.no_chaos
    def test_chaos_faults_marked_in_timeline(self, workload):
        sched = WorkloadScheduler(faults=FaultPlan.chaos(5, rate=0.3))
        r = sched.run_shared_source(workload, ROWS)
        assert any(ev.tag.startswith("fault.") for ev in r.timeline.events)


# -- one emission path: per-query programs against the merged plan ----------

def emit_merged_lead(sched, merged, sizes, lead, fuse=True):
    """Onto `lead`: one upload of the merged plan's sources, then (when
    `fuse`) the shared scans of ``find_shared_select_groups(merged)``;
    returns the names of the SELECTs the scans cover."""
    from repro.core.fusion import Region
    from repro.core.multifusion import (chain_for_shared_scan,
                                        find_shared_select_groups,
                                        split_group_by_registers)
    from repro.runtime.executor import LoweredRegion, emit_region
    from repro.runtime.sizes import node_bytes
    from repro.runtime.strategies import STAGING_MEMORY

    for src in merged.sources():
        if node_bytes(src, sizes) > 0:
            lead.h2d(node_bytes(src, sizes), STAGING_MEMORY,
                     tag=f"input.{src.name}", writes=(src.name,))
    fused = set()
    for raw in find_shared_select_groups(merged) if fuse else ():
        for group in split_group_by_registers(raw):
            if len(group.selects) < 2:
                continue
            names = tuple(s.name for s in group.selects)
            emit_region(lead, LoweredRegion(
                Region(list(group.selects)), chain_for_shared_scan(group),
                sizes[group.producer.name], group.producer,
                side_inputs=(), writes=names), sched.device, sizes)
            fused.update(names)
    return fused


def emit_nodes(sched, stream, nodes, sizes, skip=()):
    """Every non-source node of `nodes` not in `skip`, lowered on its own."""
    from repro.core.fusion import Region
    from repro.runtime.executor import LoweredRegion, emit_region
    for node in nodes:
        if node.op is not OpType.SOURCE and node.name not in skip:
            emit_region(stream, LoweredRegion.of(Region([node]), sizes),
                        sched.device, sizes)


def merged_reference(sched, workload, rows, max_streams=4):
    """The batched-streams program as the merged plan defines it: the
    lead's upload and shared scans, then every other node of query ``qi``
    onto worker ``qi % n_workers``."""
    from repro.runtime.sizes import estimate_sizes
    from repro.streampool import StreamPool

    merged = workload.merged_plan()
    sizes = estimate_sizes(merged, rows)
    n_workers = max(1, min(max_streams, len(workload.plans)))
    pool = StreamPool(sched.device, num_streams=1 + n_workers,
                      engine=sched._engine())
    lead = pool.get_available_stream()
    fused = emit_merged_lead(sched, merged, sizes, lead)
    workers = [pool.get_available_stream() for _ in range(n_workers)]
    for w in workers:
        pool.select_wait(w, lead)
    for qi in range(len(workload.plans)):
        emit_nodes(sched, workers[qi % n_workers],
                   [n for n in merged.topological()
                    if n.name.startswith(f"q{qi}.")], sizes, fused)
    return pool


def single_stream_reference(sched, workload, rows, regime):
    """The one stream the merged plan (or, isolated, each plan on its
    own) defines for a single-stream regime."""
    from repro.runtime.sizes import estimate_sizes
    from repro.simgpu import SimStream
    stream = SimStream(stream_id=0)
    if regime == "run_isolated":
        for plan in workload.plans:
            sizes = estimate_sizes(plan, rows)
            emit_merged_lead(sched, plan, sizes, stream, fuse=False)
            emit_nodes(sched, stream, plan.topological(), sizes)
        return stream
    merged = workload.merged_plan()
    sizes = estimate_sizes(merged, rows)
    fused = emit_merged_lead(sched, merged, sizes, stream,
                             fuse=regime == "run_cross_query_fused")
    emit_nodes(sched, stream, merged.topological(), sizes, fused)
    return stream


def commands(stream):
    """Every queued command's identity: its kind, tag, reads, writes, and
    launch spec or bytes or event."""
    return [(type(c).__name__, c.tag, c.reads, c.writes,
             getattr(c, "spec", None), getattr(c, "nbytes", None),
             getattr(c, "event_id", None)) for c in stream.commands]


def queued(pool):
    return [commands(s.sim) for s in pool._streams]


def catalog_workload(*kinds, elements=2_000_000):
    from repro.serve.arrivals import catalog_plan, catalog_rows
    rows = {}
    for kind in kinds:
        for name, n in catalog_rows(kind, elements).items():
            rows[name] = max(rows.get(name, 0), n)
    return QueryWorkload([catalog_plan(k) for k in kinds]), rows


def hand_built_workload(case):
    if case == "one_plan_twice":
        same = query(0, 10)
        return QueryWorkload([same, same]), ROWS
    if case == "three_query_fixture":
        return QueryWorkload(
            [query(0, 10), query(1, 20), query(2, 30, agg=True)]), ROWS
    return catalog_workload(*case.split("+"))


#: one plan twice; same-named sources at different widths, both orders;
#: three shared tables; and the file's fixture
HAND_BUILT = ("one_plan_twice", "q6+q21", "q21+q6", "tpch_q3+tpch_q9",
              "three_query_fixture")


class TestProgramsMatchMergedPlan:
    """Per-query programs assemble exactly the stream program the merged
    plan defines, command for command on every stream."""

    @pytest.mark.parametrize("case", HAND_BUILT)
    @pytest.mark.parametrize("max_streams", [1, 2, 4])
    def test_batched_streams(self, case, max_streams):
        workload, rows = hand_built_workload(case)
        sched = WorkloadScheduler()
        pool, _ = sched.enqueue_batched_streams(workload, rows,
                                                max_streams=max_streams)
        assert queued(pool) == queued(
            merged_reference(sched, workload, rows, max_streams))

    @pytest.mark.parametrize("case", HAND_BUILT)
    @pytest.mark.parametrize("regime", REGIMES[:3])
    def test_single_stream_regimes(self, case, regime, monkeypatch):
        from repro.simgpu import SimEngine
        workload, rows = hand_built_workload(case)
        sched = WorkloadScheduler()
        ran = []
        real_run = SimEngine.run

        def keep(engine, streams, *args, **kwargs):
            ran.extend(commands(s) for s in streams)
            return real_run(engine, streams, *args, **kwargs)
        monkeypatch.setattr(SimEngine, "run", keep)
        getattr(sched, regime)(workload, rows)
        assert ran == [commands(
            single_stream_reference(sched, workload, rows, regime))]

    def test_first_seen_source_width_decides_the_upload(self):
        """q6 and q21 read ``lineitem`` at different widths; the later
        query reads the first-seen source, at its width."""
        from repro.core.opmodels import out_row_nbytes
        from repro.serve.arrivals import catalog_plan
        width = {k: out_row_nbytes(next(
            n for n in catalog_plan(k).sources() if n.name == "lineitem"))
            for k in ("q6", "q21")}
        assert width["q6"] != width["q21"]
        sched = WorkloadScheduler()
        for first, second in (("q6", "q21"), ("q21", "q6")):
            workload, rows = catalog_workload(first, second)
            pool, _ = sched.enqueue_batched_streams(workload, rows)
            upload = next(c for c in pool._streams[0].sim.commands
                          if c.tag == "input.lineitem")
            assert upload.nbytes == rows["lineitem"] * width[first]


def ladder_batches():
    """Every (workload, source rows, max_streams) a seed-7 pass over the
    serve-2dev rate ladder dispatches: seeded 60 s traces at 10-60 qps on
    a two-device QueryServer with a PlanCache, as the e2e benchmark runs
    them."""
    from repro.optimizer import PlanCache
    from repro.serve import (DEFAULT_TENANTS, ArrivalProcess, QueryServer,
                             ServeConfig)
    batches = []
    real = WorkloadScheduler.enqueue_batched_streams

    def keep(self, workload, source_rows, pool=None, max_streams=4):
        batches.append((workload, dict(source_rows), max_streams))
        return real(self, workload, source_rows, pool, max_streams)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorkloadScheduler, "enqueue_batched_streams", keep)
        for qps in (10, 20, 25, 30, 35, 40, 60):
            trace = ArrivalProcess(qps, 60.0, DEFAULT_TENANTS,
                                   seed=7 * 1000 + qps).trace()
            QueryServer(config=ServeConfig(
                devices=2, workers=1, queue_capacity=4096,
                plan_cache=PlanCache())).run(trace)
    return batches


@pytest.mark.no_chaos
def test_serve_ladder_batches_match_merged_plan():
    """Every batch of one seed-7 serve-2dev ladder pass queues, stream by
    stream, the commands the merged plan defines."""
    from repro.cluster.host import contended_device
    from repro.simgpu import DeviceSpec
    sched = WorkloadScheduler(contended_device(DeviceSpec(), 2))
    batches = ladder_batches()
    assert len(batches) > 600
    seen = set()
    for workload, rows, max_streams in batches:
        key = (tuple(map(id, workload.plans)),
               tuple(sorted(rows.items())), max_streams)
        if key in seen:
            continue
        seen.add(key)
        pool, _ = sched.enqueue_batched_streams(workload, rows,
                                                max_streams=max_streams)
        assert queued(pool) == queued(
            merged_reference(sched, workload, rows, max_streams)), key
    assert len(seen) > 100


class TestQueryProgramMemo:
    """A query's program is lowered once per (plan, batch position,
    source signature, device) and kept on the frozen plan."""

    @pytest.fixture
    def lowerings(self, monkeypatch):
        from repro.runtime import executor
        calls = []
        real = executor.lower_region

        def counting(region, costs, n_in):
            calls.append(region.name)
            return real(region, costs, n_in)
        monkeypatch.setattr(executor, "lower_region", counting)
        return calls

    def test_same_batch_twice_lowers_nothing_again(self, workload,
                                                   lowerings):
        sched = WorkloadScheduler()
        first, _ = sched.enqueue_batched_streams(workload, ROWS)
        assert len(lowerings) == 4  # every non-source node, once
        second, _ = sched.enqueue_batched_streams(workload, ROWS)
        assert len(lowerings) == 4
        assert queued(first) == queued(second)

    def test_equal_device_built_separately_hits(self, workload, lowerings):
        from repro.cluster.host import contended_device
        from repro.simgpu import DeviceSpec
        a = contended_device(DeviceSpec(), 2)
        # contended_device returns one object for equal inputs; copy it
        b = DeviceSpec(calib=a.calib, num_copy_engines=a.num_copy_engines)
        assert a is not b and a == b
        WorkloadScheduler(a).enqueue_batched_streams(workload, ROWS)
        n = len(lowerings)
        WorkloadScheduler(b).enqueue_batched_streams(workload, ROWS)
        assert len(lowerings) == n

    def test_other_device_or_rows_lower_afresh(self, workload, lowerings):
        from repro.cluster.host import contended_device
        from repro.simgpu import DeviceSpec
        WorkloadScheduler().enqueue_batched_streams(workload, ROWS)
        n = len(lowerings)
        WorkloadScheduler(contended_device(DeviceSpec(), 2)
                          ).enqueue_batched_streams(workload, ROWS)
        assert len(lowerings) == 2 * n
        WorkloadScheduler().enqueue_batched_streams(
            workload, {"lineitem": ROWS["lineitem"] // 2})
        assert len(lowerings) == 3 * n

    def test_isolated_and_batched_positions_are_separate(self, workload,
                                                         lowerings):
        sched = WorkloadScheduler()
        sched.enqueue_batched_streams(workload, ROWS)
        n = len(lowerings)
        sched.run_isolated(workload, ROWS)
        assert len(lowerings) == 2 * n  # unprefixed names: a new program
        sched.run_isolated(workload, ROWS)
        sched.run_shared_source(workload, ROWS)
        sched.run_cross_query_fused(workload, ROWS)
        assert len(lowerings) == 2 * n

    def test_memo_stays_within_its_bound(self, lowerings):
        from repro.plans.plan import PLAN_MEMO_ENTRIES
        plan = query(0, 10)
        workload = QueryWorkload([plan])
        sched = WorkloadScheduler()
        for rows in range(1, PLAN_MEMO_ENTRIES + 9):
            sched.enqueue_batched_streams(workload, {"lineitem": rows})
        assert len(plan._index.memos) == PLAN_MEMO_ENTRIES
        n = len(lowerings)
        sched.enqueue_batched_streams(
            workload, {"lineitem": PLAN_MEMO_ENTRIES + 8})
        assert len(lowerings) == n  # the newest is kept
        sched.enqueue_batched_streams(workload, {"lineitem": 1})
        assert len(lowerings) == n + 1  # the oldest was dropped

    def test_dropped_plan_frees_its_programs(self):
        import gc
        import weakref
        plan = query(0, 10)
        workload = QueryWorkload([plan, plan])
        sched = WorkloadScheduler()
        sched.run_batched_streams(workload, ROWS)
        program = weakref.ref(sched.query_program(plan, 1, ROWS, {}))
        assert program() is not None
        plan_ref = weakref.ref(plan)
        del plan, workload
        gc.collect()
        assert plan_ref() is None
        assert program() is None
