"""Cardinality-estimate profiling: annotated vs actual row counts.

The timing simulator trusts the plan's selectivity annotations.  This
profiler runs a plan functionally, compares every node's *actual* output
cardinality against the estimate, and reports the error -- the tool for
checking that a plan's annotations (and hence its simulated results) are
trustworthy on a given dataset.

Stats *collection* lives in the optimizer
(:class:`repro.optimizer.DataStats`, docs/OPTIMIZER.md), which is what
the cost model prices against; this module audits annotations, and
:meth:`EstimateProfile.data_stats` bridges a profile into the
optimizer's input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plans.interp import evaluate
from ..plans.plan import OpType, Plan
from ..ra.relation import Relation
from .sizes import estimate_sizes


@dataclass(frozen=True)
class EstimateRecord:
    node: str
    op: str
    estimated: int
    actual: int

    @property
    def ratio(self) -> float:
        """estimated / actual (1.0 = perfect; inf-safe)."""
        if self.actual == 0:
            return float("inf") if self.estimated > 0 else 1.0
        return self.estimated / self.actual

    @property
    def relative_error(self) -> float:
        if self.actual == 0:
            return 0.0 if self.estimated == 0 else float("inf")
        return abs(self.estimated - self.actual) / self.actual


@dataclass
class EstimateProfile:
    records: list[EstimateRecord]
    #: (plan, sources) the profile was taken on; lets :meth:`data_stats`
    #: bridge into the optimizer's observed statistics
    inputs: tuple | None = None

    def data_stats(self):
        """The optimizer-ready :class:`repro.optimizer.DataStats` of the
        profiled dataset (rows, widths, group cardinalities, skew)."""
        if self.inputs is None:
            raise ValueError("profile has no recorded inputs")
        from ..optimizer import DataStats
        plan, sources = self.inputs
        return DataStats.from_relations(plan, sources)

    def worst(self) -> EstimateRecord:
        finite = [r for r in self.records if r.relative_error != float("inf")]
        pool = finite or self.records
        return max(pool, key=lambda r: r.relative_error)

    @property
    def max_relative_error(self) -> float:
        return max((r.relative_error for r in self.records), default=0.0)

    def describe(self) -> str:
        lines = [f"{'node':28s} {'op':10s} {'estimated':>12s} "
                 f"{'actual':>12s} {'est/act':>8s}"]
        for r in self.records:
            ratio = "inf" if r.ratio == float("inf") else f"{r.ratio:.2f}"
            lines.append(f"{r.node:28s} {r.op:10s} {r.estimated:>12,} "
                         f"{r.actual:>12,} {ratio:>8s}")
        return "\n".join(lines)


def profile_estimates(plan: Plan, sources: dict[str, Relation]
                      ) -> EstimateProfile:
    """Run `plan` functionally and compare annotations to reality."""
    plan.validate()
    actual = evaluate(plan, sources)
    source_rows = {name: rel.num_rows for name, rel in sources.items()}
    estimated = estimate_sizes(plan, source_rows)
    records = [
        EstimateRecord(node=node.name, op=node.op.value,
                       estimated=int(estimated[node.name]),
                       actual=int(actual[node.name].num_rows))
        for node in plan.topological()
        if node.op is not OpType.SOURCE
    ]
    return EstimateProfile(records=records, inputs=(plan, dict(sources)))

