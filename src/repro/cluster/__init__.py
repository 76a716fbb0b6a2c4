"""Multi-device cluster subsystem (docs/CLUSTER.md).

Extends the single-device reproduction along the scaling axis the paper
leaves open: the same fused/fissioned pipelines, run shard-parallel over N
simulated devices behind one host whose PCIe staging bandwidth they share.

* :mod:`~repro.cluster.partition` -- deterministic hash/range/round-robin
  sharding with keyed and positional co-partitioning;
* :mod:`~repro.cluster.host`      -- the shared-host PCIe contention model;
* :mod:`~repro.cluster.exchange`  -- functional shuffle + the byte-exact
  host merge rules;
* :mod:`~repro.cluster.executor`  -- the ClusterExecutor (timing and
  functional paths, device-loss recovery).

The plan-side distribution rewrite lives in
:mod:`repro.plans.distribute`, so plans stay importable without this
package.
"""

from .exchange import (EXCHANGE_CHUNK_ROWS, merge_concat, merge_group_sorted,
                       repartition)
from .executor import (ClusterConfig, ClusterExecutor, ClusterRunResult,
                       ShardRun, single_device_makespan)
from .host import ClusterSpec, contended_calibration, contended_device
from .partition import (Partitioner, PartitionScheme, concat, even_counts,
                        hash_shard, parse_scheme, range_boundaries,
                        range_shard, skew)

__all__ = [
    "ClusterConfig", "ClusterExecutor", "ClusterRunResult", "ShardRun",
    "ClusterSpec", "single_device_makespan",
    "contended_calibration", "contended_device",
    "Partitioner", "PartitionScheme", "parse_scheme", "hash_shard",
    "range_boundaries", "range_shard", "even_counts", "skew", "concat",
    "merge_concat", "merge_group_sorted", "repartition",
    "EXCHANGE_CHUNK_ROWS",
]
