"""Cardinality estimation / propagation through a plan, and the byte
arithmetic the executor sizes device memory from.

The simulator times kernels from element counts; for *virtual* workloads
(timing-only runs at paper scale, e.g. 4 billion elements) the counts come
from the selectivity annotations on the plan nodes.

This module is the only copy of that arithmetic.  The executor evaluates
it at point row counts; the memory-safety analysis
(:mod:`repro.analyze.absint`) evaluates the same functions at the two
corners of its row intervals.  Every rule here is monotone
non-decreasing in its inputs, so the corners give the tightest correct
interval, and every rule accepts ``inf`` for an unknown row count.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Callable, Hashable, Iterable, Mapping,
                    TypeVar)

from ..core.fusion import FusionResult, Region, fuse_plan
from ..core.opmodels import out_row_nbytes
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..errors import PlanError
from ..plans.interp import evaluate
from ..plans.plan import OpType, Plan, PlanNode
from ..ra.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .executor import LoweredRegion

T = TypeVar("T")


def estimate_sizes(plan: Plan, source_rows: dict[str, int]) -> dict[str, int]:
    """Estimated output rows for every node, keyed by node name."""
    return estimate_node_sizes(plan.topological(), source_rows)


def estimate_node_sizes(nodes: Iterable[PlanNode],
                        source_rows: dict[str, int]) -> dict[str, int]:
    """:func:`estimate_sizes` over `nodes`, given in dependency order."""
    sizes: dict[str, int] = {}
    for node in nodes:
        sizes[node.name] = (source_node_rows(node, source_rows)
                            if node.op is OpType.SOURCE
                            else int(node_rows(node, sizes)))
    return sizes


class PlanShape:
    """One plan's sizes, fusion regions and lowered regions, each
    computed once.

    The sizes come from the plan's annotations (:func:`estimate_sizes` at
    the caller's source rows) or, for a shape built by :meth:`observe`,
    from one real evaluation; the executor builds the same stream program
    from either.  The cost model, the memory verdict, the optimizer's
    lower bounds and every executor run of one planning call share a
    shape instead of re-deriving the same sizes, regions and kernels.
    Every caller gets the same size map, FusionResult and LoweredRegion
    objects, so none may mutate them.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        #: every node's evaluated relation when observed, else None
        self.relations: dict[str, Relation] | None = None
        self._derived: dict[tuple, object] = {}

    @classmethod
    def of(cls, plan: "Plan | PlanShape") -> "PlanShape":
        return plan if isinstance(plan, PlanShape) else cls(plan)

    @classmethod
    def observe(cls, plan: Plan, sources: dict[str, Relation]) -> "PlanShape":
        """Evaluate ``plan`` on ``sources`` once: every node's rows, row
        width and bytes are its real relation's, whatever the caller's
        source rows."""
        shape = cls(plan)
        shape.relations = rels = evaluate(plan, sources)
        shape.derived("sizes", None,
                      lambda: {n: r.num_rows for n, r in rels.items()})
        shape.derived("nbytes", None,
                      lambda: {n: float(r.nbytes) for n, r in rels.items()})
        return shape

    def _key(self, source_rows: dict[str, int] | None) -> tuple | None:
        """Only the rows of this plan's own sources tell one row map
        from another; an observed shape has one."""
        if self.relations is not None:
            return None
        rows = source_rows or {}
        return tuple(rows.get(s.name) for s in self.plan.sources())

    def sizes(self, source_rows: dict[str, int] | None) -> dict[str, int]:
        """Output rows of every node, keyed by node name."""
        return self.derived("sizes", source_rows, lambda: estimate_sizes(
            self.plan, source_rows or {}))

    def nbytes(self, source_rows: dict[str, int] | None) -> dict[str, float]:
        """Output bytes of every node, keyed by node name."""
        def build() -> dict[str, float]:
            sizes = self.sizes(source_rows)
            return {n.name: node_bytes(n, sizes) for n in self.plan.nodes}
        return self.derived("nbytes", source_rows, build)

    def row_nbytes(self, node: PlanNode) -> int:
        """Bytes per row of ``node``'s output."""
        return (out_row_nbytes(node) if self.relations is None
                else self.relations[node.name].row_nbytes)

    def fusion(self, fused: bool) -> FusionResult:
        """The fusion pass's regions (``fused=False``: one region per
        operator, the unfused baseline).  They read no row count, so a
        shape keeps one per flag whatever the row maps it is asked at."""
        return self.derived(("fusion", fused), None,
                            lambda: fuse_plan(self.plan, enable=fused))

    def lowered(self, fused: bool, source_rows: dict[str, int] | None,
                costs: StageCostParams = DEFAULT_STAGE_COSTS
                ) -> tuple["LoweredRegion", ...]:
        """:meth:`fusion`'s regions lowered at :meth:`sizes`, in region
        order: one lowering per (fusion flag, row map, costs)."""
        from .executor import LoweredRegion

        def lower() -> tuple[LoweredRegion, ...]:
            sizes = self.sizes(source_rows)
            nbytes = self.nbytes(source_rows)
            return tuple(
                LoweredRegion.of(r, sizes, costs, nbytes[r.output_node.name])
                for r in self.fusion(fused).regions)
        return self.derived(("lowered", fused, costs), source_rows, lower)

    def derived(self, kind: Hashable, source_rows: dict[str, int] | None,
                build: Callable[[], T]) -> T:
        """``build()``, computed once per (``kind``, row map) and kept
        (``source_rows=None``: the empty row map, for a value that reads
        no row count)."""
        key = (kind, self._key(source_rows))
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


def source_node_rows(node: PlanNode, source_rows: dict[str, int]) -> int:
    """Rows of a SOURCE node: the caller's count, else its declared
    ``n_rows``."""
    if node.name in source_rows:
        return int(source_rows[node.name])
    if node.params.get("n_rows") is not None:
        return int(node.params["n_rows"])
    raise PlanError(f"no row count for source {node.name!r}")


def node_rows(node: PlanNode, sizes: Mapping[str, float]) -> float:
    """Output rows of a non-source node, from its inputs' rows in
    ``sizes``."""
    left = sizes[node.inputs[0].name]
    op = node.op
    if op is OpType.UNION_ALL:
        # bag concatenation is exact: every tuple of both inputs survives
        return left + sizes[node.inputs[1].name]
    if op is OpType.TOP_N:
        return max(0, min(left, int(node.params["n"])))
    floor = 0
    if op is OpType.AGGREGATE:
        n_groups = node.params.get("n_groups")
        if n_groups is not None:
            return max(1, int(n_groups))
        floor = 1
    elif op is OpType.UNION:
        left += sizes[node.inputs[1].name]
    # PRODUCT encodes the expansion factor (right rows) as selectivity;
    # everything else scales its primary input by selectivity.  An
    # unknown count stays inf unless no row survives.
    sel = node.selectivity
    if sel == 0:
        return floor
    rows = left * sel
    return max(floor, rows if rows == math.inf else int(round(rows)))


def node_bytes(node: PlanNode, sizes: Mapping[str, float]) -> float:
    """Bytes of ``node``'s output; a 0-byte row contributes nothing
    however many rows it has."""
    row = out_row_nbytes(node)
    return float(sizes[node.name]) * row if row else 0.0


def footprint(plan: Plan, regions: list[Region], driver: PlanNode,
              nbytes: Callable[[PlanNode], float]
              ) -> tuple[float, float, bool]:
    """Device residency of a serial run that chunks ``driver``:
    (side bytes, working bytes, has barrier), from each node's output
    bytes ``nbytes(node)``.

    Side inputs (every other source) are loaded once and stay resident;
    the working set is the driver input plus every region's live output;
    a barrier region needs its whole input at once, so it cannot be
    chunked.
    """
    side = sum(nbytes(s) for s in plan.sources() if s is not driver)
    working = nbytes(driver) + sum(nbytes(r.output_node) for r in regions)
    return side, working, any(r.is_barrier_op for r in regions)


def chunk_count(side_bytes: float, working_bytes: float, budget: float,
                has_barrier: bool) -> float | None:
    """Chunks a serial run needs for its working set to fit beside the
    resident side inputs, or None when it must raise
    :class:`~repro.errors.DeviceOOMError`: the side inputs alone fill
    the budget, or a barrier region pins a working set that does not
    fit.  Grows with both byte counts (None is the top)."""
    room = budget - side_bytes
    if room <= 0:
        return None
    if working_bytes <= room:
        return 1
    if has_barrier:
        return None
    if math.isinf(working_bytes):
        return math.inf
    return math.ceil(working_bytes / room)
