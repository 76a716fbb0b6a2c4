"""The multi-stage (CTA-partitioned) operator skeleton of Diamos et al.

Figure 3 of the paper: SELECT runs as partition -> filter -> buffer ->
gather, where the first three stages form one CUDA kernel (one chunk per
CTA) and gather is a second kernel after a global synchronization.  Kernel
fusion chains extra filter stages between partition and buffer (Figure 6).

This module implements those stages *functionally* over NumPy chunks so the
fused and unfused pipelines can be executed and compared bit-for-bit; the
timing layer charges their simulated cost separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RelationError
from .expr import Predicate
from .relation import Relation


def partition(n_rows: int, num_ctas: int) -> list[slice]:
    """Stage 1: split [0, n_rows) into one contiguous chunk per CTA."""
    if num_ctas < 1:
        raise RelationError(f"need at least one CTA, got {num_ctas}")
    bounds = np.linspace(0, n_rows, num_ctas + 1).astype(np.int64)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(num_ctas)]


@dataclass
class CtaBuffer:
    """Stage 3 output of one CTA: its matched row indices (global)."""

    cta: int
    indices: np.ndarray  # global row indices that matched


def chunk_columns(rel: Relation, chunk: slice,
                  *predicates: Predicate) -> dict[str, np.ndarray]:
    """One CTA's chunk of the fields `predicates` read (of the first
    field when they read none: a constant predicate still needs the row
    count), so a lazily gathered input gathers only those fields."""
    names = set().union(*(p.fields() for p in predicates))
    if not names:
        names = set(rel.fields[:1])
    return {name: rel[name][chunk] for name in rel.fields if name in names}


def filter_stage(rel: Relation, chunk: slice, predicate: Predicate) -> np.ndarray:
    """Stage 2: evaluate the predicate over one CTA's chunk -> local mask."""
    return np.asarray(predicate.evaluate(chunk_columns(rel, chunk, predicate)),
                      dtype=bool)


def buffer_stage(chunk: slice, mask: np.ndarray) -> CtaBuffer:
    """Stage 3: compact matched positions into the CTA's buffer."""
    local = np.nonzero(mask)[0]
    return CtaBuffer(cta=-1, indices=local + chunk.start)


def gather_stage(rel: Relation, buffers: list[CtaBuffer]) -> Relation:
    """Stage 4 (second kernel): exclusive-scan the per-CTA counts and copy
    each CTA's matches to its final position."""
    counts = np.array([len(b.indices) for b in buffers], dtype=np.int64)
    total = int(counts.sum())
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out_indices = np.empty(total, dtype=np.int64)
    for b, off, cnt in zip(buffers, offsets, counts):
        out_indices[off:off + cnt] = b.indices
    return rel.take(out_indices)


def staged_select(rel: Relation, predicates: list[Predicate], num_ctas: int = 112
                  ) -> Relation:
    """Run one (or a fused chain of) SELECT(s) through the 4-stage pipeline.

    With ``len(predicates) == 1`` this is Figure 3; with more it is the
    *fused* pipeline of Figure 6: each CTA applies every filter to its chunk
    (intermediates stay "in registers" -- here, in the local mask) and only
    one buffer and one gather stage run.
    """
    if not predicates:
        raise RelationError("staged_select needs at least one predicate")
    chunks = partition(rel.num_rows, num_ctas)
    buffers: list[CtaBuffer] = []
    for cta, chunk in enumerate(chunks):
        mask = filter_stage(rel, chunk, predicates[0])
        for pred in predicates[1:]:
            # fused filter stage: only re-tests elements still alive,
            # reading from the chunk (register-resident intermediates)
            mask &= filter_stage(rel, chunk, pred)
        buf = buffer_stage(chunk, mask)
        buf.cta = cta
        buffers.append(buf)
    return gather_stage(rel, buffers)


def unfused_select_chain(rel: Relation, predicates: list[Predicate],
                         num_ctas: int = 112) -> Relation:
    """Back-to-back SELECT kernels, each a full 4-stage pipeline (Figure 3
    repeated) -- the baseline the fused pipeline is checked against."""
    out = rel
    for pred in predicates:
        out = staged_select(out, [pred], num_ctas)
    return out
