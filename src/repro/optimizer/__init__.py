"""Cost-based adaptive optimizer with a content-addressed plan cache.

The pieces (docs/OPTIMIZER.md):

* :mod:`~repro.optimizer.space` -- every execution strategy (single
  device, host baseline, N-device cluster shapes) behind one
  registration point;
* :mod:`~repro.optimizer.stats` -- per-table data statistics (rows,
  widths, group cardinalities, skew) with a content digest;
* :mod:`~repro.optimizer.costmodel` -- the host baseline's exact
  price from the simulator's CPU calibration;
* :mod:`~repro.optimizer.optimizer` -- the chooser: priced, explainable
  :class:`Decision` per (query, stats, device count), simulator-refined;
* :mod:`~repro.optimizer.plancache` -- the bounded content-addressed
  LRU (plan hash + stats digest + calibration/cluster fingerprint) the
  executors and the serve path share;
* :mod:`~repro.optimizer.fingerprint` -- the canonical hashing under
  all of it.
"""

from .costmodel import CostEstimate, CostModel
from .fingerprint import (calibration_fingerprint, cluster_fingerprint,
                          digest, plan_fingerprint)
from .optimizer import Decision, Optimizer, PricedOption
from .plancache import PlanCache
from .space import (CPU_BASELINE, StrategyOption, StrategyTarget,
                    enumerate_options, register_enumerator)
from .stats import DataStats, TableStats

__all__ = [
    "CPU_BASELINE",
    "CostEstimate",
    "CostModel",
    "DataStats",
    "Decision",
    "Optimizer",
    "PlanCache",
    "PricedOption",
    "StrategyOption",
    "StrategyTarget",
    "TableStats",
    "calibration_fingerprint",
    "cluster_fingerprint",
    "digest",
    "enumerate_options",
    "plan_fingerprint",
    "register_enumerator",
]
