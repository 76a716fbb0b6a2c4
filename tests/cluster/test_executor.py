"""ClusterExecutor end-to-end: the functional path must be byte-identical
to the single-device interpreter on TPC-H Q1 and Q21 under every
partition scheme, the timing path must actually scale (4 devices strictly
beat 1 on both queries), summaries must be byte-stable across reruns, and
device loss must recover without changing anything."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    single_device_makespan,
)
from repro.faults import FaultPlan
from repro.plans import evaluate_sinks
from repro.simgpu import DeviceSpec
from repro.tpch import (
    TpchConfig,
    build_q1_plan,
    build_q21_plan,
    generate,
    q1_column_relations,
    q1_source_rows,
    q21_source_rows,
)

N = 2_000_000
SCHEMES = ("hash", "range", "rr")
#: every scheme under the default merge (tree, since pre-aggregation
#: applies), then under the flat one
SCHEME_MERGES = ([pytest.param(s, None, id=s) for s in SCHEMES]
                 + [pytest.param(s, "flat", id=f"{s}-flat") for s in SCHEMES])


def q1_rows():
    return q1_source_rows(N)


def q21_rows():
    return q21_source_rows(N, N // 4, max(1, N // 600))


@pytest.fixture(scope="module")
def tpch_data():
    return generate(TpchConfig(scale_factor=0.01))


@pytest.fixture(scope="module")
def q1_sources(tpch_data):
    return q1_column_relations(tpch_data.lineitem)


@pytest.fixture(scope="module")
def q21_sources(tpch_data):
    return {"lineitem": tpch_data.lineitem, "orders": tpch_data.orders,
            "supplier": tpch_data.supplier, "nation": tpch_data.nation}


def assert_bytes_identical(got, want):
    assert set(got) == set(want)
    for name in want:
        g, w = got[name], want[name]
        assert g.fields == w.fields, name
        for f in w.fields:
            a, b = g.column(f), w.column(f)
            assert a.dtype == b.dtype, (name, f)
            assert np.array_equal(a, b), (name, f)


def kill_device(idx, phase=""):
    site = f"device.{idx}{phase}"
    return FaultPlan(seed=0, site_rates={site: 1.0}, budget=1)


def functional_dist(plan, sources, scheme, merge):
    """The executor and the distribution its functional path walks."""
    cx = ClusterExecutor(config=ClusterConfig(
        num_devices=4, scheme=scheme, merge=merge))
    dist = cx.distribute(plan, {n: r.num_rows for n, r in sources.items()})
    assert dist.merge == (merge or "tree")
    return cx, dist


class TestFunctionalByteIdentity:
    @pytest.mark.parametrize("scheme,merge", SCHEME_MERGES)
    def test_q1(self, q1_sources, scheme, merge):
        """Raw frontier rows cross the exchange (Q1's float sums make its
        pre-aggregation timing-only)."""
        plan = build_q1_plan()
        want = evaluate_sinks(plan, q1_sources)
        cx, dist = functional_dist(plan, q1_sources, scheme, merge)
        assert dist.suffix_mode == "exchange" and not dist.preagg.exact
        assert_bytes_identical(cx.functional(dist, q1_sources), want)

    @pytest.mark.parametrize("scheme,merge", SCHEME_MERGES)
    def test_q21(self, q21_sources, scheme, merge):
        """Exact partial count states combine on the host."""
        plan = build_q21_plan()
        want = evaluate_sinks(plan, q21_sources)
        cx, dist = functional_dist(plan, q21_sources, scheme, merge)
        assert dist.suffix_mode == "host" and dist.preagg.exact
        assert_bytes_identical(cx.functional(dist, q21_sources), want)

    @pytest.mark.parametrize("devices", [1, 2, 3, 8])
    def test_q21_any_cluster_size(self, q21_sources, devices):
        plan = build_q21_plan()
        want = evaluate_sinks(plan, q21_sources)
        cx = ClusterExecutor(config=ClusterConfig(num_devices=devices))
        assert_bytes_identical(cx.functional(plan, q21_sources), want)

    @pytest.mark.parametrize("devices", [1, 2])
    def test_q21_empty_result(self, devices):
        """At sf 0.002 Q21 qualifies no supplier: the empty result must
        keep the single-device dtypes too."""
        data = generate(TpchConfig(scale_factor=0.002))
        sources = {"lineitem": data.lineitem, "orders": data.orders,
                   "supplier": data.supplier, "nation": data.nation}
        plan = build_q21_plan()
        want = evaluate_sinks(plan, sources)
        assert all(rel.num_rows == 0 for rel in want.values())
        cx = ClusterExecutor(config=ClusterConfig(num_devices=devices))
        assert_bytes_identical(cx.functional(plan, sources), want)

    def test_q1_under_device_loss(self, q1_sources):
        """The data path is loss-agnostic: a chaos plan that kills a
        device must not change a byte of the merged result."""
        plan = build_q1_plan()
        want = evaluate_sinks(plan, q1_sources)
        cx = ClusterExecutor(config=ClusterConfig(
            num_devices=4, faults=kill_device(1), check=True))
        got = cx.functional(plan, q1_sources)
        assert_bytes_identical(got, want)
        res = cx.run(plan, q1_rows())
        assert res.lost_devices == (1,)
        assert res.recovered_shards >= 1

    def test_q21_under_device_loss(self, q21_sources):
        plan = build_q21_plan()
        want = evaluate_sinks(plan, q21_sources)
        cx = ClusterExecutor(config=ClusterConfig(
            num_devices=4, faults=kill_device(2), check=True))
        assert_bytes_identical(cx.functional(plan, q21_sources), want)
        res = cx.run(plan, q21_rows())
        assert res.lost_devices == (2,)
        assert res.recovered_shards >= 1


class TestScaling:
    @pytest.mark.parametrize("make_plan,make_rows", [
        (build_q1_plan, q1_rows), (build_q21_plan, q21_rows)],
        ids=["q1", "q21"])
    def test_four_devices_strictly_beat_one(self, make_plan, make_rows):
        """The subsystem's acceptance criterion."""
        plan, rows = make_plan(), make_rows()
        makespans = {}
        for devices in (1, 4):
            cx = ClusterExecutor(config=ClusterConfig(num_devices=devices,
                                                      check=True))
            makespans[devices] = cx.run(plan, rows).makespan
        assert makespans[4] < makespans[1]
        assert makespans[4] < single_device_makespan(plan, rows)

    def test_q21_scaling_is_monotone(self):
        """Regression for the 8-device cliff: contention is a throughput
        cap, not a knee amplifier, so Q21's makespan must be monotone
        non-increasing 1 -> 2 -> 4 -> 8 (and strictly better at 8 than
        4, where the old model regressed)."""
        plan, rows = build_q21_plan(), q21_rows()
        m = {d: ClusterExecutor(config=ClusterConfig(
            num_devices=d, check=True)).run(plan, rows).makespan
            for d in (1, 2, 4, 8)}
        assert m[2] <= m[1] and m[4] <= m[2] and m[8] <= m[4]
        assert m[8] < m[4]

    def test_q1_preagg_shrinks_per_device_exchange(self):
        """Pre-aggregation exchanges partial-state flush blocks instead
        of raw frontier rows: per-device outbound volume must *decrease*
        as devices are added, and sit far below the raw frontier."""
        plan, rows = build_q1_plan(), q1_rows()
        per_dev = {}
        for d in (2, 4, 8):
            cx = ClusterExecutor(config=ClusterConfig(num_devices=d))
            res = cx.run(plan, rows)
            assert res.dist.preagg is not None
            per_dev[d] = res.exchange_out_per_device
        assert per_dev[4] <= per_dev[2] and per_dev[8] <= per_dev[4]
        assert per_dev[8] < per_dev[2]
        # raw mode for comparison: the whole frontier crosses the wire
        raw = ClusterExecutor(config=ClusterConfig(
            num_devices=8, preagg=False)).run(plan, rows)
        assert raw.dist.preagg is None
        assert per_dev[8] < 0.001 * raw.exchange_out_per_device

    def test_one_device_cluster_equals_plain_executor(self):
        """N=1 must bypass partitioning/exchange entirely: same makespan
        as the plain single-device Executor, empty host lane, no
        exchange bytes."""
        for make_plan, make_rows in ((build_q1_plan, q1_rows),
                                     (build_q21_plan, q21_rows)):
            plan, rows = make_plan(), make_rows()
            cx = ClusterExecutor(config=ClusterConfig(num_devices=1,
                                                      check=True))
            res = cx.run(plan, rows)
            assert res.makespan == single_device_makespan(plan, rows)
            assert not res.host_timeline.events
            assert res.exchange_out_bytes == 0
            assert res.merge_bytes == 0
            assert [r.shard for r in res.shard_runs] == [0]

    def test_pipelined_exchange_overlaps_local_compute(self):
        """The host stages chunk events during the local phase (pipelined
        exchange), not in one post-barrier shuffle: at least one chunk
        must finish before the last local run ends."""
        cx = ClusterExecutor(config=ClusterConfig(num_devices=4))
        res = cx.run(build_q1_plan(), q1_rows())
        chunk_events = [e for e in res.host_timeline.events
                        if e.tag.startswith("cluster.exchange.")]
        assert len(chunk_events) > 1
        local_end = max(r.start + r.makespan for r in res.shard_runs
                        if r.phase == "local")
        assert min(e.end for e in chunk_events) < local_end

    def test_suffix_device_loss_recovers_slot(self):
        """A device lost between the phases has its exchange destination
        slot re-run on a survivor, marked recovered."""
        plan, rows = build_q1_plan(), q1_rows()
        cx = ClusterExecutor(config=ClusterConfig(
            num_devices=4, faults=kill_device(1, phase=".suffix"),
            check=True))
        res = cx.run(plan, rows)
        assert res.lost_devices == (1,)
        rec = [r for r in res.shard_runs
               if r.phase == "suffix" and r.recovered]
        assert rec and all(r.device != 1 for r in rec)


class TestRunResult:
    @pytest.mark.parametrize("make_plan,make_rows,mode", [
        (build_q1_plan, q1_rows, "exchange"),
        (build_q21_plan, q21_rows, "host")], ids=["q1", "q21"])
    def test_validates_and_reports(self, make_plan, make_rows, mode):
        cx = ClusterExecutor(config=ClusterConfig(num_devices=4,
                                                  check=True))
        res = cx.run(make_plan(), make_rows())
        assert res.dist.suffix_mode == mode
        assert res.makespan > 0
        assert len(res.device_timelines) == 4
        assert res.lost_devices == ()
        if mode == "exchange":
            assert res.exchange_out_bytes > 0
            rel = abs(res.exchange_out_bytes - res.exchange_in_bytes)
            assert rel <= 0.02 * res.exchange_out_bytes

    @pytest.mark.no_chaos  # compares makespans of separately faulted runs
    @pytest.mark.parametrize("preagg", [True, False],
                             ids=["preagg", "plain"])
    def test_host_suffix_priced_on_the_device_cpu(self, preagg):
        """The host suffix runs on the cluster host's CPU, so a slower CPU
        calibration must lengthen the run (it was once priced with the
        default calibration whatever the device said)."""
        base = DeviceSpec()
        cpu = dataclasses.replace(base.calib.cpu,
                                  write_bw=base.calib.cpu.write_bw / 4)
        slow = dataclasses.replace(
            base, calib=dataclasses.replace(base.calib, cpu=cpu))
        cfg = ClusterConfig(num_devices=4, preagg=preagg, check=True)
        fast_res, slow_res = (
            ClusterExecutor(dev, config=cfg).run(build_q21_plan(), q21_rows())
            for dev in (base, slow))
        assert fast_res.dist.suffix_mode == "host"
        assert (fast_res.dist.preagg is not None) == preagg
        assert slow_res.makespan > fast_res.makespan

    def test_summary_is_byte_stable(self):
        def run_summary():
            cx = ClusterExecutor(config=ClusterConfig(num_devices=4,
                                                      seed=7))
            return json.dumps(cx.run(build_q1_plan(), q1_rows()).summary(),
                              sort_keys=True)
        assert run_summary() == run_summary()

    def test_trace_lanes_one_per_device_plus_host(self):
        cx = ClusterExecutor(config=ClusterConfig(num_devices=3))
        res = cx.run(build_q1_plan(), q1_rows())
        lanes = res.trace_lanes()
        assert [name for name, _ in lanes] == [
            "device 0", "device 1", "device 2", "cluster host"]
        assert all(tl.events for _, tl in lanes)

    def test_all_devices_lost_keeps_device_zero(self):
        faults = FaultPlan(seed=0, budget=8, site_rates={
            f"device.{d}": 1.0 for d in range(4)})
        cx = ClusterExecutor(config=ClusterConfig(
            num_devices=4, faults=faults, check=True))
        res = cx.run(build_q1_plan(), q1_rows())
        assert 0 not in res.lost_devices
        assert res.lost_devices == (1, 2, 3)
        # every shard still ran, all on the survivor
        local = [r for r in res.shard_runs if r.phase == "local"]
        assert sorted(r.shard for r in local) == [0, 1, 2, 3]
        assert {r.device for r in local} == {0}


def _sf30(query):
    from repro.tpch.catalog import compile_tpch, tpch_source_rows
    return compile_tpch(query, scale_factor=30).plan, tpch_source_rows(30)


class TestDistinctShardPrograms:
    """Equal slices of one shard program give equal runs, so one cluster
    run simulates each distinct (program, row map) once."""

    @staticmethod
    def _spy_executor_runs(monkeypatch):
        from repro.runtime.executor import Executor
        calls = []
        real = Executor.run

        def counted(self, plan, source_rows=None, *args, **kwargs):
            calls.append((id(plan), tuple(sorted(source_rows.items()))))
            return real(self, plan, source_rows, *args, **kwargs)
        monkeypatch.setattr(Executor, "run", counted)
        return calls

    @pytest.mark.parametrize("devices", [2, 4, 8])
    @pytest.mark.parametrize("query", ["q1", "q6", "q21"])
    def test_one_simulation_per_distinct_program(self, monkeypatch, query,
                                                 devices):
        from repro.cluster.executor import _phase_bytes
        from repro.runtime.executor import Executor
        from repro.runtime.strategies import ExecutionConfig
        plan, rows = _sf30(query)
        cx = ClusterExecutor(config=ClusterConfig(num_devices=devices,
                                                  check=True))
        calls = self._spy_executor_runs(monkeypatch)
        programs = []
        shard_run = getattr(ClusterExecutor, "_shard_run", None)
        monkeypatch.setattr(
            ClusterExecutor, "_shard_run",
            lambda self, shape, rows, *a: programs.append((shape, rows))
            or shard_run(self, shape, rows, *a), raising=False)
        res = cx.run(plan, rows)

        # one Executor run per distinct (phase program, row map)
        assert len(calls) == len(set(calls))
        assert len(calls) == len({(id(s), tuple(sorted(r.items())))
                                  for s, r in programs})
        # ... and every shard's record is that of a fresh run of its slice
        ran = [r for r in res.shard_runs if r.makespan > 0.0]
        assert len(ran) == len(programs)
        if devices > 2:
            assert len(calls) < len(ran)
        for record, (shape, shard_rows) in zip(ran, programs):
            fresh = Executor(cx.device, costs=cx.costs, check=True).run(
                shape.plan, shard_rows,
                ExecutionConfig(strategy=cx.config.strategy))
            assert record.makespan == fresh.timeline.end_time
            assert ((record.h2d_bytes, record.d2h_bytes,
                     record.output_bytes) == _phase_bytes(fresh.timeline))
        # the local slices are the distribution's own
        local = res.dist.phases(states=res.dist.preagg is not None).local
        assert [r for _, r in programs[:devices]] == [
            res.dist.shard_rows(local, s) for s in range(devices)]

    def test_memo_leaves_the_result_unchanged(self, monkeypatch):
        plan, rows = _sf30("q1")
        cfg = ClusterConfig(num_devices=4, check=True)
        memo = ClusterExecutor(config=cfg).run(plan, rows)
        shard_run = ClusterExecutor._shard_run
        monkeypatch.setattr(
            ClusterExecutor, "_shard_run",
            lambda self, shape, rows, injector, runs:
            shard_run(self, shape, rows, injector, {}))
        fresh = ClusterExecutor(config=cfg).run(plan, rows)
        assert memo.summary() == fresh.summary()
        assert memo.shard_runs == fresh.shard_runs
        for dev in range(4):
            assert (memo.device_timelines[dev].events
                    == fresh.device_timelines[dev].events)
        assert memo.host_timeline.events == fresh.host_timeline.events

    def test_fault_injector_runs_every_shard(self, monkeypatch):
        plan, rows = _sf30("q1")
        cfg = ClusterConfig(num_devices=4, check=True,
                            faults=FaultPlan.chaos(7, 0.05))
        reference = ClusterExecutor(config=cfg).run(plan, rows)
        calls = self._spy_executor_runs(monkeypatch)
        res = ClusterExecutor(config=cfg).run(plan, rows)
        # the draws happen in order, once per shard that runs: equal
        # slices are simulated again
        ran = [r for r in res.shard_runs if r.makespan > 0.0]
        assert len(calls) == len(ran) > len(set(calls))
        assert json.dumps(res.summary(), sort_keys=True) == json.dumps(
            reference.summary(), sort_keys=True)
