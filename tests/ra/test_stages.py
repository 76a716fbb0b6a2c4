"""Tests for the multi-stage (partition/filter/buffer/gather) skeleton.

The key property (paper Fig 3 / Fig 6): the staged pipeline -- fused or
not -- computes exactly what the logical SELECT computes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationError
from repro.ra import (
    Field,
    Relation,
    TruePredicate,
    buffer_stage,
    conjoin,
    filter_stage,
    gather_stage,
    partition,
    select,
    staged_select,
    unfused_select_chain,
)


class TestPartition:
    def test_covers_all_rows(self):
        chunks = partition(100, 7)
        assert chunks[0].start == 0
        assert chunks[-1].stop == 100
        total = sum(c.stop - c.start for c in chunks)
        assert total == 100

    def test_contiguous_non_overlapping(self):
        chunks = partition(1000, 13)
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start

    def test_more_ctas_than_rows(self):
        chunks = partition(3, 8)
        total = sum(c.stop - c.start for c in chunks)
        assert total == 3

    def test_zero_rows(self):
        chunks = partition(0, 4)
        assert all(c.start == c.stop for c in chunks)

    def test_invalid_cta_count(self):
        with pytest.raises(RelationError):
            partition(10, 0)

    @given(st.integers(0, 10_000), st.integers(1, 256))
    def test_partition_properties(self, n, ctas):
        chunks = partition(n, ctas)
        assert len(chunks) == ctas
        assert sum(c.stop - c.start for c in chunks) == n
        assert all(c.stop >= c.start for c in chunks)


class TestStages:
    def test_filter_stage_local_mask(self, small_relation):
        chunk = slice(100, 200)
        mask = filter_stage(small_relation, chunk, Field("key") < 500)
        expected = small_relation["key"][100:200] < 500
        assert np.array_equal(mask, expected)

    def test_buffer_stage_global_indices(self):
        mask = np.array([True, False, True])
        buf = buffer_stage(slice(10, 13), mask)
        assert list(buf.indices) == [10, 12]

    def test_gather_preserves_cta_order(self, small_relation):
        chunks = partition(small_relation.num_rows, 4)
        bufs = [buffer_stage(c, filter_stage(small_relation, c, Field("key") < 500))
                for c in chunks]
        out = gather_stage(small_relation, bufs)
        # gathered indices must be in ascending global order (CTA order)
        ref = select(small_relation, Field("key") < 500)
        assert out.to_tuples() == ref.to_tuples()


class TestStagedSelect:
    def test_equals_logical_select(self, small_relation):
        pred = Field("key") < 300
        staged = staged_select(small_relation, [pred])
        logical = select(small_relation, pred)
        assert staged.to_tuples() == logical.to_tuples()

    def test_fused_equals_conjoined_select(self, small_relation):
        preds = [Field("key") < 700, Field("value") < 300]
        fused = staged_select(small_relation, preds)
        logical = select(small_relation, conjoin(preds))
        assert fused.to_tuples() == logical.to_tuples()

    def test_fused_equals_unfused_chain(self, small_relation):
        preds = [Field("key") < 700, Field("value") < 500, Field("key") > 100]
        fused = staged_select(small_relation, preds)
        chained = unfused_select_chain(small_relation, preds)
        assert fused.same_tuples(chained)

    def test_no_predicates_rejected(self, small_relation):
        with pytest.raises(RelationError):
            staged_select(small_relation, [])

    def test_single_cta(self, small_relation):
        pred = Field("key") < 500
        assert staged_select(small_relation, [pred], num_ctas=1).same_tuples(
            select(small_relation, pred))

    def test_many_ctas(self, small_relation):
        pred = Field("key") < 500
        assert staged_select(small_relation, [pred], num_ctas=997).same_tuples(
            select(small_relation, pred))

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=200),
        st.lists(st.integers(0, 1000), min_size=1, max_size=3),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_fusion_correctness_property(self, values, thresholds, ctas):
        """Fused N-filter pipeline == N back-to-back SELECT kernels, for any
        data, any thresholds, any CTA count (the paper's Fig 6 claim)."""
        rel = Relation({"key": np.array(values)})
        preds = [Field("key") < t for t in thresholds]
        fused = staged_select(rel, preds, num_ctas=ctas)
        chained = unfused_select_chain(rel, preds, num_ctas=ctas)
        assert fused.to_tuples() == chained.to_tuples()


class TestChunksReadOnlyPredicateFields:
    """A CTA chunk slices only the fields its predicates read, so a lazily
    gathered input (a take) gathers only those."""

    @staticmethod
    def _taken():
        rng = np.random.default_rng(3)
        base = Relation({f"f{i}": rng.integers(0, 1000, 2000)
                         for i in range(6)})
        return base.take(rng.permutation(2000)[:500])

    @staticmethod
    def _count_gathers(monkeypatch):
        from repro.ra import relation
        calls = []
        gather = relation.gather

        def counted(base, index):
            calls.append(len(index))
            return gather(base, index)

        monkeypatch.setattr(relation, "gather", counted)
        return calls

    @staticmethod
    def _assert_bytes_equal(got, want):
        assert got.fields == want.fields and got.num_rows == want.num_rows
        for name in want.fields:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("predicates", [
        [Field("f2") < 400],
        [Field("f2") < 400, Field("f2") > 100],
        [TruePredicate()],
    ], ids=["one", "fused", "true"])
    def test_staged_select(self, monkeypatch, predicates):
        rel = self._taken()
        calls = self._count_gathers(monkeypatch)
        out = staged_select(rel, predicates, num_ctas=7)
        assert len(calls) == 1
        self._assert_bytes_equal(out, select(self._taken(),
                                             conjoin(predicates)))

    def test_multi_select(self, monkeypatch):
        from repro.core.multifusion import multi_select
        predicates = [Field("f2") < 400, Field("f2") > 700]
        rel = self._taken()
        calls = self._count_gathers(monkeypatch)
        outs = multi_select(rel, predicates, num_ctas=7)
        assert len(calls) == 1
        for out, pred in zip(outs, predicates):
            self._assert_bytes_equal(out, select(self._taken(), pred))
