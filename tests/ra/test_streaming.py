"""Functional segmented execution: what fission computes, segment by
segment.

Kernel fission (paper SS IV) runs an operator over segments of the input
so transfers pipeline; "since data is transferred to the CPU at different
times, the CPU has to implement a gather stage at the end" (SS IV-C).
:class:`~repro.runtime.GpuRuntime` is the functional counterpart: under
FISSION and FUSED_FISSION each segment evaluates the plan's streamable
prefix on its slice of the driver, and the host re-gather concatenates
the slices in segment order.  These tests pin that the sinks are
byte-identical to the unsegmented evaluation, for any segment size.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fission import FissionConfig, plan_segments
from repro.plans import Plan, evaluate_sinks
from repro.plans.plan import OpType
from repro.ra import Field, Relation
from repro.runtime import GpuRuntime, Strategy
from repro.runtime.gpu_rt import STREAMABLE_OPS

FISSIONS = (Strategy.FISSION, Strategy.FUSED_FISSION)


@pytest.fixture
def rel(rng):
    n = 3_000
    return Relation({"id": np.arange(n, dtype=np.int32),
                     "k": rng.integers(0, 100, n).astype(np.int32),
                     "v": rng.integers(0, 100, n).astype(np.int32)})


def chain_plan(t1: int = 70, t2: int = 50) -> Plan:
    """A SELECT chain over source ``t``: ``k < t1`` then ``v < t2``."""
    plan = Plan()
    t = plan.source("t", row_nbytes=12)
    s = plan.select(t, Field("k") < t1, selectivity=0.7, name="s0")
    plan.select(s, Field("v") < t2, selectivity=0.5, name="s1")
    return plan


def per_segment(rows: int, n_rows: int) -> FissionConfig:
    """A config whose segments hold about ``rows`` driver rows each."""
    n_seg = math.ceil(n_rows / rows)
    return FissionConfig(min_segments=n_seg, max_segments=n_seg,
                         target_segment_bytes=1 << 40)


def run_segmented(plan: Plan, rel: Relation, strategy: Strategy,
                  config: FissionConfig):
    """GpuRuntime's sinks; asserts the run really took ``config``'s
    segments."""
    res = GpuRuntime(strategy=strategy, fission=config).run(plan, {"t": rel})
    segs = {e.tag.rsplit(".seg", 1)[1] for e in res.timeline.events
            if ".seg" in e.tag}
    assert len(segs) == len(plan_segments(rel.num_rows, rel.row_nbytes,
                                          config))
    return res.results


def assert_byte_identical(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, rel in want.items():
        assert got[name].fields == rel.fields, name
        for f in rel.fields:
            a, b = got[name].column(f), rel.column(f)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                name, f)


class TestSplitRows:
    """:func:`plan_segments` cuts the driver into the slices each
    segment evaluates."""

    def test_covers_exactly(self):
        cfg = FissionConfig(min_segments=4, target_segment_bytes=1 << 40)
        parts = [(s.start_row, s.n_rows) for s in plan_segments(100, 8, cfg)]
        assert parts == [(0, 25), (25, 25), (50, 25), (75, 25)]

    def test_single_segment(self):
        cfg = FissionConfig(min_segments=1, target_segment_bytes=1 << 40)
        assert [(s.start_row, s.n_rows)
                for s in plan_segments(10, 8, cfg)] == [(0, 10)]

    def test_zero_rows(self):
        assert plan_segments(0, 8) == []

    @given(st.integers(0, 10_000), st.integers(1, 64),
           st.integers(1, 1 << 20), st.integers(1, 5000))
    def test_partition_property(self, n, min_segments, target, max_segments):
        cfg = FissionConfig(min_segments=min_segments,
                            max_segments=max_segments,
                            target_segment_bytes=target)
        parts = plan_segments(n, 8, cfg)
        assert sum(s.n_rows for s in parts) == n
        assert len(parts) <= max_segments
        pos = 0
        for i, seg in enumerate(parts):
            assert seg.index == i and seg.start_row == pos and seg.n_rows > 0
            pos += seg.n_rows


class TestHostGather:
    def test_restores_segment_order(self, rel):
        """The re-gathered rows keep the driver's order across segments."""
        for strategy in FISSIONS:
            out = run_segmented(chain_plan(), rel, strategy,
                                per_segment(100, rel.num_rows))
            ids = out["s1"].column("id")
            assert len(ids) > 0 and np.all(np.diff(ids) > 0), strategy


class TestStreamedChain:
    def test_equals_unsegmented(self, rel):
        plan = chain_plan()
        ref = evaluate_sinks(plan, {"t": rel})
        for strategy in FISSIONS:
            assert_byte_identical(run_segmented(
                plan, rel, strategy, per_segment(700, rel.num_rows)), ref)

    def test_unfused_segments_equal_too(self, rel):
        plan = chain_plan()
        cfg = per_segment(400, rel.num_rows)
        fused = run_segmented(plan, rel, Strategy.FUSED_FISSION, cfg)
        unfused = run_segmented(plan, rel, Strategy.FISSION, cfg)
        assert_byte_identical(unfused, fused)

    def test_segment_size_irrelevant(self, rel):
        """Several FissionConfig sizes, 1-row segments included."""
        plan = chain_plan()
        small = rel.take(np.arange(300))
        ref = evaluate_sinks(plan, {"t": small})
        row, whole = small.row_nbytes, 1 << 40
        one_row = FissionConfig(target_segment_bytes=1)
        assert {s.n_rows for s in plan_segments(300, row, one_row)} == {1}
        for strategy in FISSIONS:
            for cfg in (FissionConfig(), one_row,
                        FissionConfig(min_segments=1,
                                      target_segment_bytes=whole),
                        FissionConfig(min_segments=7,
                                      target_segment_bytes=whole),
                        FissionConfig(min_segments=3,
                                      target_segment_bytes=40 * row)):
                assert_byte_identical(
                    run_segmented(plan, small, strategy, cfg), ref)

    def test_needs_predicates(self, rel):
        """Without a streamable operator on the driver there is nothing
        to segment: the run takes no segments and still answers."""
        plan = Plan()
        t = plan.source("t", row_nbytes=12)
        plan.sort(t, ["k"], name="srt")
        ref = evaluate_sinks(plan, {"t": rel})
        for strategy in FISSIONS:
            res = GpuRuntime(strategy=strategy).run(plan, {"t": rel})
            assert not any(".seg" in e.tag for e in res.timeline.events)
            assert_byte_identical(res.results, ref)

    @given(st.integers(1, 400), st.integers(0, 100), st.integers(0, 100),
           st.sampled_from(FISSIONS))
    @settings(max_examples=40, deadline=None)
    def test_segmentation_commutes_property(self, rows, t1, t2, strategy):
        """The property that makes SELECT fission-able: filtering commutes
        with segmentation for any segment size and thresholds."""
        rng = np.random.default_rng(7)
        rel = Relation({"id": np.arange(800, dtype=np.int32),
                        "k": rng.integers(0, 100, 800).astype(np.int32),
                        "v": rng.integers(0, 100, 800).astype(np.int32)})
        plan = chain_plan(t1, t2)
        out = run_segmented(plan, rel, strategy, per_segment(rows, 800))
        assert_byte_identical(out, evaluate_sinks(plan, {"t": rel}))

    def test_sort_does_not_commute_with_segmentation(self, rel):
        """The reason SORT cannot fission: per-segment sorting + concat is
        NOT a global sort, so no segment evaluates one."""
        from repro.ra.sort import is_sorted, sort as ra_sort
        assert OpType.SORT not in STREAMABLE_OPS
        segs = plan_segments(rel.num_rows, rel.row_nbytes,
                             per_segment(500, rel.num_rows))
        parts = [ra_sort(rel.take(np.arange(s.start_row,
                                            s.start_row + s.n_rows)), by=["k"])
                 for s in segs]
        stitched = Relation({f: np.concatenate([p.column(f) for p in parts])
                             for f in rel.fields})
        assert not is_sorted(stitched, by=["k"])
