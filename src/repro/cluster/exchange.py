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
  lands in exactly the single-device group order.

The pipelined exchange and the tree merge change *when* bytes move on the
simulated clock, never *which* bytes arrive: a pairwise concat tree gives
the flat concat's rows in the same order, and chunking a shuffle whose
destination ids are fixed up front gives the same destination rows.  So
:meth:`ClusterExecutor.functional
<repro.cluster.executor.ClusterExecutor.functional>` calls these rules
directly whatever the merge strategy.
"""

from __future__ import annotations

import numpy as np

from ..ra.relation import Relation
from ..ra.rows import pack_rows, stable_order
from .partition import concat, hash_shard

#: the implicit original-row-position column of the TPC-H column tables;
#: when present it is used to restore single-device row order
ORDER_FIELD = "rowid"

#: rows per streamed exchange chunk (the pipelined wire grain of the
#: timing path); one chunk is what a source device hands the host while
#: later rows still compute
EXCHANGE_CHUNK_ROWS = 1 << 18


def restore_row_order(rel: Relation, order_field: str = ORDER_FIELD) -> Relation:
    """Rows re-sorted by their original position (stable)."""
    return rel.take(stable_order(rel.column(order_field)))


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
