"""CPU SELECT baseline (paper Fig 4(a), bottom three curves).

The paper parallelizes SELECT over 16 CPU threads on a dual quad-core Xeon
E5520.  Functionally this is a NumPy mask-and-compact; its simulated time
follows a simple streaming model::

    t = startup + n * (row/read_bw  +  sel*row/write_bw  +  sel*overhead)

whose constants (:class:`repro.simgpu.calibration.CpuCalibration`) are fit
to the paper's reported GPU-vs-CPU speedups (2.88x / 8.80x / 8.35x at
10% / 50% / 90% selected).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.opmodels import out_row_nbytes
from ..plans.plan import OpType, PlanNode
from ..ra.expr import Predicate
from ..ra.operators import select as ra_select
from ..ra.relation import Relation
from ..simgpu.calibration import CpuCalibration, DEFAULT_CALIBRATION


def cpu_select(rel: Relation, predicate: Predicate) -> Relation:
    """Functional CPU SELECT (identical semantics to the GPU operator)."""
    return ra_select(rel, predicate)


def cpu_select_time(n_elements: int, row_nbytes: int = 4,
                    selectivity: float = 0.5,
                    calib: CpuCalibration | None = None) -> float:
    """Simulated seconds for a 16-thread CPU SELECT over `n_elements`."""
    c = calib or DEFAULT_CALIBRATION.cpu
    n = float(n_elements)
    f = float(selectivity)
    per_elem = (
        row_nbytes / c.read_bw
        + f * row_nbytes / c.write_bw
        + f * c.per_match_overhead_s
        + f * (1.0 - f) * c.branch_miss_s
    )
    return c.startup_s + n * per_elem


def host_plan_time(nodes: Iterable[PlanNode], sizes: Mapping[str, int],
                   calib: CpuCalibration | None = None) -> float:
    """Simulated seconds for the host interpreter over ``nodes``: one CPU
    pass per non-source node over its primary input, with row counts
    from :func:`repro.runtime.sizes.estimate_sizes`."""
    duration = 0.0
    for node in nodes:
        if node.op is OpType.SOURCE:
            continue
        prim = node.inputs[0] if node.inputs else node
        duration += cpu_select_time(sizes[prim.name], out_row_nbytes(prim),
                                    calib=calib)
    return duration


def cpu_select_throughput(n_elements: int, row_nbytes: int = 4,
                          selectivity: float = 0.5,
                          calib: CpuCalibration | None = None) -> float:
    """Input bytes per second of the CPU SELECT."""
    t = cpu_select_time(n_elements, row_nbytes, selectivity, calib)
    return n_elements * row_nbytes / t if t > 0 else 0.0
