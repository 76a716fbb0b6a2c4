"""One interpreter, two size sources.

:class:`GpuRuntime` runs the Executor's own stream program on the sizes of
one real evaluation (:meth:`PlanShape.observe`).  These tests pin that:

* parity -- on a device where nothing spills, the runtime's timeline is
  the Executor's timeline on the observed shape, event for event, and
  every sink is byte-identical to :func:`evaluate`, row order included;
* fission pipelines the Executor's prefix on real data;
* a source that is also a sink is downloaded, and counted as output;
* the device-memory pass keeps the spill policy it replaced.
"""

import numpy as np
import pytest

from repro.core.opmodels import out_row_nbytes
from repro.errors import DeviceOOMError
from repro.faults import FaultKind, FaultPlan, as_injector
from repro.plans import Plan, evaluate_sinks
from repro.plans.fuzz import random_plan_case
from repro.ra import Field, Relation
from repro.runtime import (CPU_BASELINE, ExecutionConfig, Executor,
                           GpuRuntime, Strategy)
from repro.runtime.gpu_rt import DevicePlacement
from repro.runtime.sizes import PlanShape
from repro.simgpu import EventKind
from repro.simgpu.compression import NONE, RLE
from repro.simgpu.compute import KernelLaunchSpec
from repro.simgpu.engine import SimStream
from repro.simgpu.memory import DeviceMemory
from repro.tpch.catalog import QUERIES, compile_tpch, tpch_dataset

FUZZ_SEEDS = range(60)


@pytest.fixture(scope="module")
def tpch_tables():
    return tpch_dataset(scale_factor=0.01)


def _events(timeline):
    return [(e.kind, e.start, e.end, e.tag, e.stream, e.nbytes)
            for e in timeline.events]


def _assert_byte_identical(got: Relation, want: Relation, label: str):
    assert got.fields == want.fields, label
    for f in want.fields:
        a, b = got.column(f), want.column(f)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, f)


def _check_parity(plan, sources, label):
    shape = PlanShape.observe(plan, sources)
    ref = evaluate_sinks(plan, sources)
    for scheme in (NONE, RLE):
        for strategy in (*Strategy, CPU_BASELINE):
            ran = GpuRuntime(strategy=strategy, compression=scheme).run(
                plan, sources)
            timed = (Executor().run_cpubase(shape) if strategy == CPU_BASELINE
                     else Executor().run(shape, None, ExecutionConfig(
                         strategy=strategy, compression=scheme)))
            case = f"{label}/{strategy}/{scheme.name}"
            assert ran.spill_count == 0, case
            assert _events(ran.timeline) == _events(timed.timeline), case
            for name, rel in ref.items():
                _assert_byte_identical(ran.results[name], rel,
                                       f"{case}/{name}")


@pytest.mark.no_chaos  # compares two separately simulated schedules
class TestParity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz(self, seed):
        case = random_plan_case(seed)
        _check_parity(case.plan, case.sources, f"fuzz{seed}")

    @pytest.mark.parametrize("query", list(QUERIES))
    def test_tpch(self, query, tpch_tables):
        _check_parity(compile_tpch(query, 0.01).plan, tpch_tables, query)

    def test_observed_bytes_are_the_relations(self, tpch_tables):
        """Rows alone would not do: a real relation's row width is not the
        annotated one."""
        plan = compile_tpch("q3", 0.01).plan
        shape = PlanShape.observe(plan, tpch_tables)
        nbytes = shape.nbytes(None)
        for name, rel in shape.relations.items():
            assert nbytes[name] == rel.nbytes
            assert shape.sizes(None)[name] == rel.num_rows
        estimated = PlanShape(plan).nbytes(
            {s.name: tpch_tables[s.name].num_rows for s in plan.sources()})
        assert any(estimated[n] != nbytes[n] for n in nbytes)


class TestPipelining:
    def test_fused_fission_pipelines_tpch(self, tpch_tables):
        pipelined = []
        for query in QUERIES:
            plan = compile_tpch(query, 0.01).plan
            res = GpuRuntime(strategy=Strategy.FUSED_FISSION).run(
                plan, tpch_tables)
            if any(".seg" in e.tag for e in res.timeline.events):
                pipelined.append(query)
        assert len(pipelined) >= 21, pipelined

    def test_segments_answer_a_non_streamable_suffix(self):
        """The SELECT streams per segment; the AGGREGATE after it runs
        once on the re-gathered rows."""
        from repro.ra import AggSpec
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        s = plan.select(t, Field("v") < 500, selectivity=0.5, name="keep")
        plan.aggregate(s, [], {"n": AggSpec("count")}, name="agg")
        rel = Relation({"v": np.arange(1000, dtype=np.int32)})
        res = GpuRuntime(strategy=Strategy.FISSION).run(plan, {"t": rel})
        segs = {e.tag for e in res.timeline.events if ".seg" in e.tag}
        assert len({t.rsplit(".seg", 1)[1] for t in segs}) >= 3
        assert int(res.results["agg"]["n"][0]) == 500


class TestSourceSink:
    """A source no operator consumes is downloaded as it is."""

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_executor_downloads_every_sink(self, strategy):
        case = random_plan_case(7)
        rows = {n: r.num_rows for n, r in case.sources.items()}
        res = Executor(check=True).run(
            case.plan, rows, ExecutionConfig(strategy=strategy))
        side = [e for e in res.timeline.filter(EventKind.D2H)
                if e.tag.startswith("output.side")]
        assert [e.nbytes for e in side] == [case.sources["side"].nbytes]
        sinks = case.plan.sinks()
        assert res.n_out == sum(res.sizes[s.name] for s in sinks)
        assert res.output_bytes == pytest.approx(
            sum(res.sizes[s.name] * out_row_nbytes(s) for s in sinks))


# -- the device-memory pass --------------------------------------------------

SPEC = KernelLaunchSpec(name="k", num_elements=1024, num_ctas=4,
                        threads_per_cta=256, regs_per_thread=16,
                        bytes_read=4096.0, bytes_written=4096.0,
                        instructions=1e4)


def _program(*steps) -> SimStream:
    """('up', name) uploads a buffer; ('k', reads, writes) is a kernel;
    ('down', name) downloads one."""
    stream = SimStream(stream_id=0)
    for step in steps:
        if step[0] == "up":
            stream.h2d(1.0, tag=f"input.{step[1]}", writes=(step[1],))
        elif step[0] == "down":
            stream.d2h(1.0, tag=f"output.{step[1]}", reads=(step[1],))
        else:
            stream.kernel(SPEC, reads=step[1], writes=step[2])
    return stream


def _tags(stream):
    return [c.tag for c in stream.commands]


class TestDevicePlacement:
    def test_nothing_spills_with_room(self):
        prog = _program(("up", "a"), ("k", ("a",), ("b",)), ("down", "b"))
        placement = DevicePlacement(DeviceMemory(capacity=1000),
                                    {"a": 400, "b": 300})
        placed = placement.place(prog)
        assert _tags(placed) == _tags(prog)
        assert placement.spills == 0
        assert placement.memory.peak == 700

    def test_largest_still_needed_buffer_is_evicted(self):
        # a, b, c resident and all read later; d needs room: the largest
        # (b) goes to the host
        prog = _program(("up", "a"), ("up", "b"), ("up", "c"), ("up", "d"),
                        ("k", ("a", "c", "d"), ("e",)), ("k", ("b",), ("f",)))
        placement = DevicePlacement(
            DeviceMemory(capacity=1000),
            {"a": 200, "b": 400, "c": 300, "d": 300, "e": 0, "f": 0})
        placed = placement.place(prog)
        assert _tags(placed)[:5] == ["input.a", "input.b", "input.c",
                                     "spill.out.b", "input.d"]
        assert placed.commands[3].nbytes == 400
        assert placement.spills == 1

    def test_spilled_buffer_is_reuploaded_on_next_read(self):
        prog = _program(("up", "a"), ("up", "b"), ("up", "c"),
                        ("k", ("b",), ("x",)), ("k", ("a", "c"), ("y",)))
        placement = DevicePlacement(
            DeviceMemory(capacity=1000),
            {"a": 500, "b": 300, "c": 400, "x": 0, "y": 0})
        assert _tags(placement.place(prog)) == [
            "input.a", "input.b", "spill.out.a", "input.c", "k",
            "spill.in.a", "k"]

    def test_pinned_inputs_are_never_evicted(self):
        # the kernel's inputs a and b fill the device: its output cannot be
        # placed beside them, so it streams out instead of evicting them
        prog = _program(("up", "a"), ("up", "b"),
                        ("k", ("a", "b"), ("c",)), ("k", ("c",), ("d",)))
        placement = DevicePlacement(
            DeviceMemory(capacity=1000), {"a": 500, "b": 400, "c": 200, "d": 0})
        tags = _tags(placement.place(prog))
        assert "spill.out.a" not in tags and "spill.out.b" not in tags
        assert tags[:4] == ["input.a", "input.b", "k", "spill.out.c"]

    def test_output_that_cannot_fit_streams_to_host(self):
        prog = _program(("up", "a"), ("k", ("a",), ("b",)),
                        ("k", ("a",), ("b",)), ("k", ("b",), ("c",)))
        placement = DevicePlacement(
            DeviceMemory(capacity=1000), {"a": 800, "b": 600, "c": 0})
        placed = placement.place(prog)
        tags = _tags(placed)
        # streamed after the last command that writes it, re-uploaded for
        # the kernel that reads it (a is freed by then)
        assert tags == ["input.a", "k", "k", "spill.out.b", "spill.in.b", "k"]
        assert placement.spills == 1

    def test_buffer_larger_than_device_raises(self):
        prog = _program(("up", "a"))
        placement = DevicePlacement(DeviceMemory(capacity=100), {"a": 101})
        with pytest.raises(DeviceOOMError):
            placement.place(prog)

    def test_output_larger_than_device_raises(self):
        prog = _program(("up", "a"), ("k", ("a",), ("b",)))
        placement = DevicePlacement(DeviceMemory(capacity=100),
                                    {"a": 50, "b": 101})
        with pytest.raises(DeviceOOMError):
            placement.place(prog)

    def test_alloc_fault_site(self):
        storm = as_injector(FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0},
                                      budget=8))
        prog = _program(("up", "a"))
        placement = DevicePlacement(DeviceMemory(capacity=1000), {"a": 10},
                                    injector=storm)
        with pytest.raises(DeviceOOMError) as exc:
            placement.place(prog)
        assert exc.value.site == "alloc.a"
        assert exc.value.injected

    def test_injected_oom_on_an_output_streams_it(self):
        """An allocator hiccup on a kernel's output lands in the streaming
        path, same as a genuine OOM."""
        storm = as_injector(FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0},
                                      budget=8))
        prog = _program(("k", (), ("b",)), ("down", "b"))
        placement = DevicePlacement(DeviceMemory(capacity=1000), {"b": 10},
                                    injector=storm)
        assert _tags(placement.place(prog)) == ["k", "spill.out.b",
                                                 "output.b"]
