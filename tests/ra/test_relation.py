"""Unit tests for the columnar Relation data model."""

import numpy as np
import pytest

from repro.errors import RelationError
from repro.ra.relation import Relation


class TestConstruction:
    def test_basic(self):
        r = Relation({"k": [1, 2, 3], "v": [4.0, 5.0, 6.0]})
        assert r.num_rows == 3
        assert r.fields == ["k", "v"]
        assert r.key == "k"

    def test_explicit_key(self):
        r = Relation({"a": [1], "b": [2]}, key="b")
        assert r.key == "b"
        assert list(r.key_column) == [2]

    def test_empty_columns_rejected(self):
        with pytest.raises(RelationError):
            Relation({})

    def test_ragged_columns_rejected(self):
        with pytest.raises(RelationError):
            Relation({"a": [1, 2], "b": [1]})

    def test_unknown_key_rejected(self):
        with pytest.raises(RelationError):
            Relation({"a": [1]}, key="nope")

    def test_2d_columns_rejected(self):
        with pytest.raises(RelationError):
            Relation({"a": np.zeros((2, 2))})

    def test_object_strings_normalized(self):
        r = Relation({"s": np.array(["x", "yy"], dtype=object)})
        assert r["s"].dtype.kind == "U"


class TestFromTuples:
    def test_default_field_names(self):
        r = Relation.from_tuples([(1, "a"), (2, "b")])
        assert r.fields == ["f0", "f1"]

    def test_custom_field_names(self):
        r = Relation.from_tuples([(1, 2)], fields=["x", "y"])
        assert r.fields == ["x", "y"]

    def test_roundtrip(self):
        tuples = [(3, "a"), (4, "a"), (2, "b")]
        assert Relation.from_tuples(tuples).to_tuples() == tuples

    def test_ragged_tuples_rejected(self):
        with pytest.raises(RelationError):
            Relation.from_tuples([(1, 2), (3,)])

    def test_empty_rejected(self):
        with pytest.raises(RelationError):
            Relation.from_tuples([])

    def test_name_count_mismatch(self):
        with pytest.raises(RelationError):
            Relation.from_tuples([(1, 2)], fields=["only_one"])


class TestAccessors:
    def test_len(self):
        assert len(Relation({"a": [1, 2]})) == 2

    def test_getitem(self):
        r = Relation({"a": [1, 2]})
        assert list(r["a"]) == [1, 2]

    def test_missing_column(self):
        with pytest.raises(RelationError):
            Relation({"a": [1]}).column("b")

    def test_nbytes(self):
        r = Relation({"a": np.zeros(10, dtype=np.int32),
                      "b": np.zeros(10, dtype=np.float64)})
        assert r.nbytes == 10 * 4 + 10 * 8
        assert r.row_nbytes == 12

    def test_empty_like(self):
        r = Relation({"a": [1, 2], "b": ["x", "y"]}, key="b")
        e = Relation.empty_like(r)
        assert e.num_rows == 0
        assert e.fields == r.fields
        assert e.key == "b"


class TestDerived:
    def test_take_indices(self):
        r = Relation({"a": [10, 20, 30]})
        assert Relation.to_tuples(r.take(np.array([2, 0]))) == [(30,), (10,)]

    def test_take_mask(self):
        r = Relation({"a": [10, 20, 30]})
        assert r.take(np.array([True, False, True])).to_tuples() == [(10,), (30,)]

    @pytest.mark.parametrize("rows", [0, 1, 257])
    def test_take_mask_equals_take_indices(self, rows):
        rng = np.random.default_rng(rows)
        cols = {dt: rng.integers(0, 100, rows).astype(dt)
                for dt in ("bool", "int8", "int32", "int64", "uint16",
                           "float32", "float64")}
        cols["str"] = np.array([f"s{v}" for v in rng.integers(0, 9, rows)],
                               dtype="<U3")
        r = Relation(cols, key="int32")
        mask = rng.random(rows) < 0.5
        by_mask, by_idx = r.take(mask), r.take(np.flatnonzero(mask))
        assert by_mask.fields == r.fields and by_mask.key == r.key
        for f in r.fields:
            assert by_mask[f].dtype == by_idx[f].dtype == r[f].dtype
            assert by_mask[f].tobytes() == by_idx[f].tobytes()

    def test_take_mask_wrong_length(self):
        with pytest.raises(IndexError):
            Relation({"a": [10, 20, 30]}).take(np.array([True, False]))

    def test_with_columns(self):
        r = Relation({"a": [1, 2]})
        r2 = r.with_columns({"b": np.array([3, 4])})
        assert r2.fields == ["a", "b"]
        assert r.fields == ["a"]  # original untouched

    def test_with_columns_wrong_length(self):
        with pytest.raises(RelationError):
            Relation({"a": [1, 2]}).with_columns({"b": np.array([1])})

    def test_rename(self):
        r = Relation({"a": [1], "b": [2]})
        r2 = r.rename({"a": "x"})
        assert r2.fields == ["x", "b"]
        assert r2.key == "x"

    def test_rename_collision(self):
        with pytest.raises(RelationError):
            Relation({"a": [1], "b": [2]}).rename({"a": "b"})


class TestComparison:
    def test_same_tuples_order_insensitive(self):
        a = Relation({"k": [1, 2, 3], "v": [4, 5, 6]})
        b = a.take(np.array([2, 0, 1]))
        assert a.same_tuples(b)

    def test_same_tuples_multiset(self):
        a = Relation({"k": [1, 1, 2]})
        b = Relation({"k": [1, 2, 2]})
        assert not a.same_tuples(b)

    def test_same_tuples_different_fields(self):
        a = Relation({"k": [1]})
        b = Relation({"j": [1]})
        assert not a.same_tuples(b)

    def test_same_tuples_different_length(self):
        a = Relation({"k": [1, 1]})
        b = Relation({"k": [1]})
        assert not a.same_tuples(b)

    def test_repr_contains_fields(self):
        assert "fields" in repr(Relation({"a": [1]}))
