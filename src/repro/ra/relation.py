"""Columnar relation data model.

The paper (after Diamos et al.) models a relation as a set of tuples whose
first field is the *key* (Table I).  We store relations columnarly as NumPy
arrays -- the layout GPU RA implementations use -- with named fields; the
key is the first field unless stated otherwise.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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
        self.columns: dict[str, np.ndarray] = {
            name: _as_column(col) for name, col in columns.items()
        }
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) != 1:
            raise RelationError(f"ragged columns: lengths {sorted(lengths)}")
        first = next(iter(self.columns))
        self.key = key if key is not None else first
        if self.key not in self.columns:
            raise RelationError(f"key field {self.key!r} not among {self.fields}")

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
        return cls(
            {name: col[:0] for name, col in other.columns.items()},
            key=other.key,
        )

    # -- basic accessors --------------------------------------------------------
    @property
    def fields(self) -> list[str]:
        return list(self.columns)

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.num_rows

    @property
    def nbytes(self) -> int:
        return sum(int(c.nbytes) for c in self.columns.values())

    @property
    def row_nbytes(self) -> int:
        """Bytes per tuple (sum of field itemsizes)."""
        return sum(int(c.dtype.itemsize) for c in self.columns.values())

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise RelationError(f"no field {name!r}; have {self.fields}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    @property
    def key_column(self) -> np.ndarray:
        return self.columns[self.key]

    # -- views / derived relations --------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Row subset by integer indices (or boolean mask)."""
        idx = np.asarray(indices)
        if idx.dtype == bool and idx.ndim == 1:
            if len(idx) != self.num_rows:
                raise IndexError(f"boolean mask of {len(idx)} rows for a "
                                 f"relation of {self.num_rows}")
            # one mask scan for all columns, not one per column
            idx = np.flatnonzero(idx)
        return Relation(
            {name: col[idx] for name, col in self.columns.items()},
            key=self.key,
        )

    def with_columns(self, extra: Mapping[str, np.ndarray]) -> "Relation":
        cols = dict(self.columns)
        for name, col in extra.items():
            col = _as_column(col)
            if len(col) != self.num_rows:
                raise RelationError(
                    f"new column {name!r} has {len(col)} rows, relation has {self.num_rows}")
            cols[name] = col
        return Relation(cols, key=self.key)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        cols = {mapping.get(name, name): col for name, col in self.columns.items()}
        if len(cols) != len(self.columns):
            raise RelationError(f"rename collides: {mapping}")
        return Relation(cols, key=mapping.get(self.key, self.key))

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
