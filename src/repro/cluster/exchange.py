"""Functional side of the exchange operator and the host merge rules.

The timing side of the exchange (device->host->device staging through the
shared PCIe model) lives in :mod:`repro.cluster.executor`; this module
implements what the shuffled bytes *mean*, with the invariants that make
the merged cluster result byte-identical to the single-device
interpreter (docs/CLUSTER.md):

* **repartition** keeps whole key-groups on one destination (hash of the
  key value), and restores the original global row order first whenever
  the buffer carries a ``rowid`` column -- so order-sensitive float
  aggregations later see rows in exactly the single-device order;
* **merge_group_sorted** reassembles per-destination aggregate outputs by
  a packed-key sort, the group order
  :func:`repro.ra.arithmetic.aggregate` emits, so a disjoint-group concat
  lands in exactly the single-device group order;
* **repartition_chunked** streams the same shuffle in row chunks -- the
  pieces the pipelined exchange puts on the wire -- and is byte-identical
  to the materialized :func:`repartition` because destination ids are
  fixed on the order-restored buffer before chunking and each
  destination reassembles its pieces in chunk order;
* the ``*_tree`` merges and :func:`combine_partial_states` are the
  functional side of the hierarchical (pairwise device-level) merge:
  adjacent pairing preserves part order, so a concat tree equals the
  flat concat, and combining partial aggregate states up a tree is exact
  for order-insensitive aggregates (count/min/max).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ra.relation import Relation
from ..ra.rows import pack_rows
from .partition import concat, hash_shard

#: the implicit original-row-position column of the TPC-H column tables;
#: when present it is used to restore single-device row order
ORDER_FIELD = "rowid"

#: rows per streamed exchange chunk (the pipelined wire grain); one chunk
#: is what a source device hands the host while later rows still compute
EXCHANGE_CHUNK_ROWS = 1 << 18


def restore_row_order(rel: Relation, order_field: str = ORDER_FIELD) -> Relation:
    """Rows re-sorted by their original position (stable)."""
    return rel.take(np.argsort(rel.column(order_field), kind="stable"))


def merge_concat(parts: list[Relation],
                 order_field: str = ORDER_FIELD) -> Relation:
    """Shard-order concat; restores original row order when the buffer
    carries the order field."""
    merged = concat(parts)
    if order_field in merged.fields:
        merged = restore_row_order(merged, order_field)
    return merged


def merge_group_sorted(parts: list[Relation],
                       group_by: list[str]) -> Relation:
    """Merge per-destination aggregate outputs over *disjoint* groups.

    Stable-sorts the concat by the packed group key.  That is the group
    order :func:`repro.ra.arithmetic.aggregate` emits on a single device
    (its per-column factorization reproduces ``np.unique`` over the packed
    key), so when every group lives wholly on one destination the result
    is byte-identical to the unsharded aggregate.
    """
    merged = concat(parts)
    packed = pack_rows(merged, list(group_by))
    return merged.take(np.argsort(packed, kind="stable"))


def repartition(parts: list[Relation], key: tuple[str, ...],
                num_dest: int, seed: int = 0,
                order_field: str = ORDER_FIELD) -> list[Relation]:
    """Shuffle shard buffers onto `num_dest` destinations by key.

    Whole key-groups land on one destination (factorized key hashed by
    value), and if the buffer carries `order_field` the global row order
    is restored before splitting, so each destination holds its groups'
    rows in original order.
    """
    merged = merge_concat(parts, order_field)
    packed = pack_rows(merged, list(key))
    _, inverse = np.unique(packed, return_inverse=True)
    ids = hash_shard(inverse, num_dest, seed)
    return [merged.take(np.flatnonzero(ids == d)) for d in range(num_dest)]


def repartition_chunked(parts: list[Relation], key: tuple[str, ...],
                        num_dest: int, seed: int = 0,
                        order_field: str = ORDER_FIELD,
                        chunk_rows: int = EXCHANGE_CHUNK_ROWS
                        ) -> list[Relation]:
    """Chunk-streamed shuffle, byte-identical to :func:`repartition`.

    Destination ids are fixed on the order-restored merged buffer (same
    factorized-key hash as the materialized path, so whole key-groups
    still land on one destination), then the buffer is cut into
    ``chunk_rows`` pieces and each chunk is split per destination
    independently.  A destination concatenates its pieces in chunk order
    -- which is the merged row order -- so the result equals filtering
    the whole buffer at once.
    """
    merged = merge_concat(parts, order_field)
    packed = pack_rows(merged, list(key))
    _, inverse = np.unique(packed, return_inverse=True)
    ids = hash_shard(inverse, num_dest, seed)
    pieces: list[list[Relation]] = [[] for _ in range(num_dest)]
    for lo in range(0, max(merged.num_rows, 1), max(int(chunk_rows), 1)):
        chunk_ids = ids[lo:lo + chunk_rows]
        for dest in range(num_dest):
            sel = np.flatnonzero(chunk_ids == dest) + lo
            if sel.size:
                pieces[dest].append(merged.take(sel))
    empty = merged.take(np.zeros(0, dtype=np.int64))
    return [concat(p) if p else empty for p in pieces]


# ---------------------------------------------------------------------------
# hierarchical (tree) merges
# ---------------------------------------------------------------------------

def _tree_fold(parts: list[Relation], combine) -> Relation:
    """Pairwise-adjacent reduction; order-preserving by construction."""
    if not parts:
        raise ValueError("nothing to merge")
    live = list(parts)
    while len(live) > 1:
        live = [combine(live[i:i + 2]) if i + 1 < len(live) else live[i]
                for i in range(0, len(live), 2)]
    return live[0]


def merge_concat_tree(parts: list[Relation],
                      order_field: str = ORDER_FIELD) -> Relation:
    """Pairwise concat tree; equals :func:`merge_concat` because adjacent
    pairing keeps shard order and concat is associative."""
    merged = _tree_fold(parts, concat)
    if order_field in merged.fields:
        merged = restore_row_order(merged, order_field)
    return merged


def merge_group_sorted_tree(parts: list[Relation],
                            group_by: list[str]) -> Relation:
    """Tree-shaped :func:`merge_group_sorted`: pairwise concat up the
    tree, one packed-key sort at the root.  Identical to the flat merge
    over disjoint groups (the tree concat reproduces the flat concat row
    order, and the root sort is the same stable sort)."""
    merged = _tree_fold(parts, concat)
    packed = pack_rows(merged, list(group_by))
    return merged.take(np.argsort(packed, kind="stable"))


def combine_partial_states(parts: list[Relation], group_by: list[str],
                           aggs: Mapping) -> Relation:
    """Tree-combine per-shard partial aggregate states.

    `aggs` is the *combine* half of the split (counts/sums re-add,
    min/max re-reduce -- see
    :meth:`repro.plans.distribute.DistributedPlan.combine_plan`).  Each
    tree node re-aggregates the pair's concatenated states, so the root
    carries one row per group in ``np.unique`` packed-key order -- the
    single-device aggregate order.  Bit-exact whenever every aggregate is
    order-insensitive (count/min/max: integer sums and idempotent
    extrema re-associate freely).
    """
    from ..ra.arithmetic import aggregate

    def combine(pair: list[Relation]) -> Relation:
        return aggregate(concat(pair), list(group_by), aggs)

    if len(parts) == 1:
        return parts[0]
    return _tree_fold(parts, combine)
