"""Unit tests for the columnar Relation data model."""

import numpy as np
import pytest

from repro.errors import RelationError
from repro.ra import Field, arith, join, project, relation, semi_join
from repro.ra.operators import left_join
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


@pytest.fixture
def gathers(monkeypatch):
    """Every (base, index) pair a relation gathers, in order."""
    seen, gather = [], relation.gather

    def counted(base, index):
        seen.append((base, index))
        return gather(base, index)

    monkeypatch.setattr(relation, "gather", counted)
    return seen


def _source():
    return Relation({"k": np.arange(8, dtype=np.int32),
                     "v": np.linspace(0.0, 7.0, 8),
                     "s": np.array([f"s{i}" for i in range(8)])})


def _same_bytes(got: Relation, want: Relation) -> None:
    assert got.fields == want.fields and got.key == want.key
    assert got.num_rows == want.num_rows and got.nbytes == want.nbytes
    for f in got.fields:
        assert got[f].dtype == want[f].dtype, f
        assert got[f].tobytes() == want[f].tobytes(), f


class TestLateGather:
    def test_a_column_is_gathered_once_on_first_read(self, gathers):
        base = _source()
        r = base.take(np.array([5, 1, 1]))
        assert gathers == []
        first = r["v"]
        assert len(gathers) == 1 and gathers[0][0] is base["v"]
        assert r["v"] is first and r.columns["v"] is first
        assert r.column("v") is first
        assert len(gathers) == 1
        assert first.tolist() == [5.0, 1.0, 1.0]

    def test_shape_and_size_gather_nothing(self, gathers):
        r = _source().take(np.array([True, False] * 4))
        assert r.num_rows == len(r) == 4
        assert r.fields == ["k", "v", "s"] and list(r.columns) == r.fields
        assert len(r.columns) == 3 and "v" in r.columns and "x" not in r.columns
        assert r.row_nbytes == 4 + 8 + 4 * 2
        assert r.nbytes == 4 * r.row_nbytes
        assert r.dtype("s") == np.dtype("<U2")
        assert gathers == []

    def test_pass_through_operators_gather_nothing(self, gathers):
        base = _source()
        r = base.take(np.array([3, 2]))
        project(r, ["v", "k"]).rename({"v": "w"})
        arith(r, {"t": Field("k") * 2}, keep=["s", "v"])
        # only the expression's input was read
        assert len(gathers) == 1 and gathers[0][0] is base["k"]

    @pytest.mark.parametrize("j", [[2, 0, 0], [], [-1, 1]])
    def test_take_of_take_equals_composed_take(self, j):
        base = _source()
        i = np.array([7, 0, 3, 3, 5])
        j = np.array(j, dtype=np.intp)
        _same_bytes(base.take(i).take(j), base.take(i[j]))

    def test_take_of_a_join_composes_each_side_once(self, gathers):
        x = _source()
        y = Relation({"k": np.array([3, 1, 3], dtype=np.int32),
                      "w": np.array([0.5, 1.5, 2.5])})
        j = join(x, y, on="k")
        sub = j.take(np.array([2, 0]))
        got = {n: sub[n] for n in sub.fields}
        # `sub` gathers straight from the bases, at composed indices, and
        # reads none of `j`'s columns
        bases = [x["k"], x["v"], x["s"], y["w"]]
        assert len(gathers) == 4
        assert all(b is want for (b, _), want in zip(gathers, bases))
        # one composed index per side, shared by that side's fields
        (_, ik), (_, iv), (_, i_s), (_, iw) = gathers
        assert ik is iv is i_s and iw is not ik
        for n in j.fields:
            assert got[n].tobytes() == j[n][[2, 0]].tobytes()

    def test_bad_indices_raise_at_take(self):
        r = _source()
        with pytest.raises(IndexError):
            r.take(np.array([8]))
        with pytest.raises(IndexError):
            r.take(np.array([-9]))
        with pytest.raises(IndexError):
            r.take(np.array([0.0]))
        with pytest.raises(RelationError):
            r.take(np.zeros((1, 1), dtype=np.intp))

    def test_columns_are_read_only(self):
        r = _source()
        with pytest.raises(TypeError):
            r.columns["k"] = np.zeros(8)


class TestNoAliasThroughGathers:
    """A write into a gathered column stays in the relation that read it."""

    def _write_everything(self, rel: Relation) -> None:
        for f in rel.fields:
            col = rel[f]
            col[...] = "zz" if col.dtype.kind == "U" else 99

    def _snapshot(self, *rels):
        return [[(f, r[f].tobytes()) for f in r.fields] for r in rels]

    def test_take_children_and_siblings(self):
        base = _source()
        parent = base.take(np.array([6, 4, 2, 0]))
        parent["v"]  # read before the children are made
        before = self._snapshot(base, parent)
        child = parent.take(np.array([1, 2]))
        sibling = parent.take(np.array([1, 2]))
        grandchild = child.take(np.array([0]))
        self._write_everything(child)
        assert self._snapshot(base, parent) == before
        assert sibling["v"].tolist() == [4.0, 2.0]
        assert grandchild["k"].tolist() == [4]

    def test_join_children(self):
        x, y = _source(), Relation({"k": np.array([1, 2, 2], dtype=np.int32),
                                    "w": np.array([0.5, 1.5, 2.5])})
        before = self._snapshot(x, y)
        a, b = join(x, y, on="k"), join(x, y, on="k")
        self._write_everything(a)
        self._write_everything(semi_join(x, y, on="k"))
        assert self._snapshot(x, y) == before
        assert b["w"].tolist() == [0.5, 1.5, 2.5]

    def test_left_join_pads(self):
        x = _source()
        y = Relation({"k": np.array([1, 1, 6], dtype=np.int32),
                      "w": np.array([0.5, 1.5, 2.5]),
                      "t": np.array(["a", "b", "c"])})
        before = self._snapshot(x, y)
        out = left_join(x, y, on="k")
        sibling = left_join(x, y, on="k")
        assert out["w"].tolist() == [0.0, 0.5, 1.5] + [0.0] * 4 + [2.5, 0.0]
        assert out["t"].tolist()[:3] == ["", "a", "b"]
        self._write_everything(out)
        assert self._snapshot(x, y) == before
        assert sibling["w"].tolist() == [0.0, 0.5, 1.5] + [0.0] * 4 + [2.5, 0.0]
        assert sibling.take(np.array([0, 1]))["w"].tolist() == [0.0, 0.5]

    def test_left_join_with_empty_right_side(self):
        x = _source()
        y = Relation({"k": np.zeros(0, dtype=np.int32),
                      "w": np.zeros(0), "t": np.zeros(0, dtype="<U1")})
        out = left_join(x, y, on="k")
        assert out.num_rows == 8 and out["__matched"].tolist() == [0] * 8
        assert out["w"].tolist() == [0.0] * 8 and out["t"].tolist() == [""] * 8


class TestUserBuiltRelationsAreChecked:
    """The public constructor validates, gathered inputs included."""

    def test_from_gathered_columns(self):
        r = _source().take(np.array([1, 2]))
        rebuilt = Relation(r.columns, key="v")
        assert rebuilt.fields == r.fields and rebuilt["k"].tolist() == [1, 2]

    @pytest.mark.parametrize("build", [
        lambda r: Relation({"a": r["k"], "b": r["k"][:1]}),
        lambda r: Relation(r.columns, key="missing"),
        lambda r: Relation({"a": np.stack([r["k"], r["k"]])}),
        lambda r: Relation({}),
        lambda r: r.with_columns({"extra": r["k"][:1]}),
    ])
    def test_errors_fire(self, build):
        with pytest.raises(RelationError):
            build(_source().take(np.array([1, 2])))
