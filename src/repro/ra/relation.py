"""Columnar relation data model.

The paper (after Diamos et al.) models a relation as a set of tuples whose
first field is the *key* (Table I).  We store relations columnarly as NumPy
arrays -- the layout GPU RA implementations use -- with named fields; the
key is the first field unless stated otherwise.

Gathers are late, as in the paper's fused SELECT -> gather chains, which
never write a column no later operator reads.  A field is a *source*: a
materialized base array, optionally with a row index into it.
:meth:`Relation.take` and the join family (:mod:`.operators`) record a
source per output field and gather nothing; a field is gathered on its
first read (``rel[name]``, ``rel.columns[name]``) and cached, so
``rel["a"] is rel["a"]``.  A take of a taken relation composes its row
index with the parent's -- once per distinct parent index, and only when
a field over it is read -- so a chain of takes gathers each read column
once, straight from its base.  ``num_rows``, ``nbytes``, ``row_nbytes``,
``fields``, :meth:`Relation.dtype` and ``name in rel.columns`` answer from
dtypes and the index length, gathering nothing.

No aliasing through a gather: every gathered column is a fresh array
owned by the relation that read it, so writing into it never reaches the
relation it was taken from, a sibling taken from the same input, or the
base arrays.  Pass-through operators (``project``, ``rename``, ARITH's
``keep``, ``with_columns``) share their input's fields, gathered or not,
exactly as they shared its arrays before gathers were late.  A base array
or an index handed to ``take`` must not be written afterwards: a pending
gather reads it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import RelationError


def _as_column(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise RelationError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype == object:
        # normalize python strings to a fixed-width unicode dtype
        arr = np.asarray([str(v) for v in arr])
    return arr


def gather(base: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``base[index]``: the one place a relation gathers a column."""
    return base[index]


class _Rows:
    """Rows ``sel`` of a parent row index (of the base itself when
    ``parent`` is None), composed into one flat index on first use."""

    __slots__ = ("parent", "sel")

    def __init__(self, parent: "_Rows | None", sel: np.ndarray):
        self.parent, self.sel = parent, sel

    def flat(self) -> np.ndarray:
        pending = []
        rows = self
        while rows.parent is not None:  # a loop: chains can be long
            pending.append(rows)
            rows = rows.parent
        flat = rows.sel
        for rows in reversed(pending):
            flat = rows.sel = flat[rows.sel]
            rows.parent = None
        return flat


class _Source:
    """One field: ``base`` at ``rows`` (all of it when ``rows`` is None),
    gathered on the first :meth:`read`."""

    __slots__ = ("base", "rows", "array")

    def __init__(self, base: np.ndarray, rows: _Rows | None = None):
        self.base, self.rows = base, rows
        self.array = base if rows is None else None

    def read(self) -> np.ndarray:
        if self.array is None:
            self.array = gather(self.base, self.rows.flat())
        return self.array


class Columns(Mapping):
    """A relation's fields as a read-only ``{name: array}`` mapping; a
    field is gathered when first looked up, never by ``in``, ``len`` or
    iteration over names."""

    __slots__ = ("_sources",)

    def __init__(self, sources: dict[str, _Source]):
        self._sources = sources

    def __getitem__(self, name: str) -> np.ndarray:
        return self._sources[name].read()

    def __contains__(self, name) -> bool:
        return name in self._sources

    def __iter__(self) -> Iterator[str]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


class Relation:
    """An ordered bag of tuples stored column-wise.

    Parameters
    ----------
    columns:
        Mapping of field name to 1-D array; all the same length.  Iteration
        order of the mapping defines field order.
    key:
        Name of the key field.  Defaults to the first field.
    """

    def __init__(self, columns: Mapping[str, np.ndarray | Sequence], key: str | None = None):
        if not columns:
            raise RelationError("a relation needs at least one column")
        arrays = {name: _as_column(col) for name, col in columns.items()}
        lengths = {len(c) for c in arrays.values()}
        if len(lengths) != 1:
            raise RelationError(f"ragged columns: lengths {sorted(lengths)}")
        self._init({name: _Source(col) for name, col in arrays.items()},
                   lengths.pop(), key if key is not None else next(iter(arrays)))
        if self.key not in arrays:
            raise RelationError(f"key field {self.key!r} not among {self.fields}")

    def _init(self, sources: dict[str, _Source], num_rows: int, key: str) -> None:
        self._sources = sources
        self._num_rows = num_rows
        self.key = key
        self._columns = Columns(sources)

    @classmethod
    def _of(cls, sources: dict[str, _Source], num_rows: int, key: str
            ) -> "Relation":
        """A relation over already-validated sources: every one
        ``num_rows`` long, ``key`` among them."""
        rel = cls.__new__(cls)
        rel._init(sources, num_rows, key)
        return rel

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_tuples(cls, tuples: Iterable[tuple], fields: Sequence[str] | None = None,
                    key: str | None = None) -> "Relation":
        rows = list(tuples)
        if not rows:
            raise RelationError("from_tuples needs at least one tuple "
                                "(use Relation.empty_like for empty relations)")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise RelationError("ragged tuples")
        names = list(fields) if fields is not None else [f"f{i}" for i in range(width)]
        if len(names) != width:
            raise RelationError(f"{width} fields but {len(names)} names")
        cols = {name: _as_column([r[i] for r in rows]) for i, name in enumerate(names)}
        return cls(cols, key=key)

    @classmethod
    def empty_like(cls, other: "Relation") -> "Relation":
        return cls._of(other._taken(np.zeros(0, dtype=np.intp)), 0, other.key)

    # -- basic accessors --------------------------------------------------------
    @property
    def columns(self) -> Columns:
        """The fields as a read-only mapping (see :class:`Columns`)."""
        return self._columns

    @property
    def fields(self) -> list[str]:
        return list(self._sources)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self.num_rows

    def _source(self, name: str) -> _Source:
        try:
            return self._sources[name]
        except KeyError:
            raise RelationError(f"no field {name!r}; have {self.fields}") from None

    def dtype(self, name: str) -> np.dtype:
        """The dtype of field ``name``, without gathering it."""
        return self._source(name).base.dtype

    @property
    def nbytes(self) -> int:
        return self.row_nbytes * self.num_rows

    @property
    def row_nbytes(self) -> int:
        """Bytes per tuple (sum of field itemsizes)."""
        return sum(int(s.base.dtype.itemsize) for s in self._sources.values())

    def column(self, name: str) -> np.ndarray:
        return self._source(name).read()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    @property
    def key_column(self) -> np.ndarray:
        return self.column(self.key)

    # -- views / derived relations --------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Row subset by integer indices (or boolean mask); gathers nothing
        until a field is read."""
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise RelationError(f"take needs a 1-D index, got shape {idx.shape}")
        if idx.dtype == bool:
            if len(idx) != self.num_rows:
                raise IndexError(f"boolean mask of {len(idx)} rows for a "
                                 f"relation of {self.num_rows}")
            # one mask scan for all columns, not one per column
            idx = np.flatnonzero(idx)
        elif idx.dtype.kind not in "iu":
            raise IndexError("take needs integer or boolean indices, "
                             f"got {idx.dtype}")
        elif len(idx) and not (-self.num_rows <= idx.min()
                               and idx.max() < self.num_rows):
            raise IndexError(f"index out of bounds for a relation of "
                             f"{self.num_rows} rows")
        return Relation._of(self._taken(idx), len(idx), self.key)

    def _taken(self, idx: np.ndarray) -> dict[str, _Source]:
        """Every field's source at rows ``idx`` (valid row positions), one
        composed row index per distinct parent index; nothing is read."""
        composed: dict[int, _Rows] = {}
        out = {}
        for name, src in self._sources.items():
            rows = composed.get(id(src.rows))
            if rows is None:
                rows = composed[id(src.rows)] = _Rows(src.rows, idx)
            out[name] = _Source(src.base, rows)
        return out

    def with_columns(self, extra: Mapping[str, np.ndarray]) -> "Relation":
        sources = dict(self._sources)
        for name, col in extra.items():
            col = _as_column(col)
            if len(col) != self.num_rows:
                raise RelationError(
                    f"new column {name!r} has {len(col)} rows, relation has {self.num_rows}")
            sources[name] = _Source(col)
        return Relation._of(sources, self.num_rows, self.key)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        sources = {mapping.get(name, name): src
                   for name, src in self._sources.items()}
        if len(sources) != len(self._sources):
            raise RelationError(f"rename collides: {mapping}")
        return Relation._of(sources, self.num_rows,
                            mapping.get(self.key, self.key))

    # -- tuple interop ------------------------------------------------------------
    def to_tuples(self) -> list[tuple]:
        cols = [c.tolist() for c in self.columns.values()]
        return list(zip(*cols)) if cols else []

    def to_tuple_set(self) -> set[tuple]:
        return set(self.to_tuples())

    # -- comparison ------------------------------------------------------------
    def same_tuples(self, other: "Relation") -> bool:
        """Multiset equality of rows (field names/order must match)."""
        if self.fields != other.fields:
            return False
        if self.num_rows != other.num_rows:
            return False
        from .rows import pack_rows  # local import to avoid cycle
        a = np.sort(pack_rows(self))
        b = np.sort(pack_rows(other))
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:
        preview = self.to_tuples()[:4] if self.num_rows <= 1000 else "..."
        return (f"Relation(fields={self.fields}, key={self.key!r}, "
                f"rows={self.num_rows}, preview={preview})")
