"""Shared-scan fusion: several SELECTs over the *same* input (Fig 2(c)).

The chain-fusion pass (:mod:`repro.core.fusion`) only fuses linear
producer/consumer chains; the paper's pattern (c) -- "different SELECT
operators need to filter the same input data" -- calls for a different
rewrite: one kernel that reads the input once, evaluates every predicate,
and buffers each consumer's survivors separately.  The input scan (the
dominant traffic at low selectivity) is paid once instead of K times.

The paper also notes fusion applies "across queries since RA operators
from different queries can be fused" -- a shared-scan group is exactly
that case when the SELECTs come from different queries over one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FusionError
from ..plans.plan import OpType, Plan, PlanNode
from ..ra.expr import Predicate
from ..ra.relation import Relation
from ..ra.stages import buffer_stage, chunk_columns, gather_stage, partition
from .kernel import Kernel, KernelChain, StageKind, StageSpec
from .opmodels import compute_stage, in_row_nbytes, out_row_nbytes
from .stagecosts import DEFAULT_STAGE_COSTS, StageCostParams


@dataclass(frozen=True)
class SharedScanGroup:
    """A set of SELECTs that can share one scan of `producer`."""

    producer: PlanNode
    selects: tuple[PlanNode, ...]

    @property
    def name(self) -> str:
        return "|".join(s.name for s in self.selects)


def find_shared_select_groups(plan: Plan, min_size: int = 2
                              ) -> list[SharedScanGroup]:
    """All groups of >= `min_size` SELECTs consuming the same node."""
    groups: list[SharedScanGroup] = []
    for node in plan.topological():
        selects = tuple(c for c in plan.consumers(node)
                        if c.op is OpType.SELECT)
        if len(selects) >= min_size:
            groups.append(SharedScanGroup(producer=node, selects=selects))
    return groups


def chain_for_shared_scan(group: SharedScanGroup,
                          costs: StageCostParams = DEFAULT_STAGE_COSTS
                          ) -> KernelChain:
    """Lower a shared-scan group to one multi-output compute kernel plus
    one gather kernel covering every output."""
    if len(group.selects) < 2:
        raise FusionError("shared-scan fusion needs at least two SELECTs")
    row = out_row_nbytes(group.producer)

    stages: list[StageSpec] = [StageSpec(
        StageKind.PARTITION, "partition",
        insts_per_input=costs.partition_insts, regs=costs.partition_regs)]
    total_out_sel = 0.0
    for i, sel in enumerate(group.selects):
        # every filter sees the full input (selectivity does not compound:
        # the outputs are independent), so model each as a chained filter
        # stage with selectivity 1 and account output writes in the buffer
        st = compute_stage(sel, reads_input=(i == 0), costs=costs)
        stages.append(StageSpec(
            kind=st.kind, name=st.name, insts_per_input=st.insts_per_input,
            reads_bytes_per_input=st.reads_bytes_per_input,
            selectivity=1.0, regs=st.regs))
        total_out_sel += sel.selectivity
    stages.append(StageSpec(
        StageKind.BUFFER, "buffer",
        insts_per_input=costs.buffer_insts_per_match * total_out_sel,
        writes_bytes_per_output=row * total_out_sel,
        regs=costs.buffer_regs * len(group.selects)))

    compute = Kernel(f"{group.name}.compute", stages,
                     op_names=[s.name for s in group.selects],
                     base_regs=costs.skeleton_base_regs)
    gather = Kernel(
        f"{group.name}.gather",
        stages=[StageSpec(
            StageKind.GATHER, "gather",
            insts_per_input=costs.gather_insts_per_elem * total_out_sel,
            reads_bytes_per_input=row * total_out_sel / costs.gather_bw_factor,
            writes_bytes_per_output=row * total_out_sel / costs.gather_bw_factor,
            regs=costs.gather_regs,
        )],
        op_names=[s.name for s in group.selects],
        base_regs=costs.skeleton_base_regs,
    )
    return KernelChain(name=group.name, kernels=[compute, gather])


def split_group_by_registers(group: SharedScanGroup,
                             costs: StageCostParams = DEFAULT_STAGE_COSTS,
                             max_regs: int = 63) -> list[SharedScanGroup]:
    """Split an oversized group so each sub-group's fused kernel stays
    within the per-thread register budget (the SS III-C caveat applied to
    multi-output kernels)."""
    def regs_for(k: int) -> int:
        # skeleton + partition + k filter stages + k output cursors
        sample = group.selects[0]
        st = compute_stage(sample, reads_input=True, costs=costs)
        return (costs.skeleton_base_regs + costs.partition_regs
                + k * st.regs + k * costs.buffer_regs)

    max_k = len(group.selects)
    while max_k > 2 and regs_for(max_k) > max_regs:
        max_k -= 1
    if max_k >= len(group.selects):
        return [group]
    out: list[SharedScanGroup] = []
    selects = list(group.selects)
    for start in range(0, len(selects), max_k):
        chunk = tuple(selects[start:start + max_k])
        out.append(SharedScanGroup(producer=group.producer, selects=chunk))
    return out


def multi_select(rel: Relation, predicates: list[Predicate],
                 num_ctas: int = 112) -> list[Relation]:
    """Functional shared-scan execution: one pass over each CTA chunk
    evaluates every predicate; each output gets its own buffers/gather.

    Equivalent to ``[select(rel, p) for p in predicates]`` -- asserted by
    the tests -- but reading the input once.
    """
    if not predicates:
        raise FusionError("multi_select needs at least one predicate")
    chunks = partition(rel.num_rows, num_ctas)
    per_output_buffers: list[list] = [[] for _ in predicates]
    for cta, chunk in enumerate(chunks):
        cols = chunk_columns(rel, chunk, *predicates)
        for k, pred in enumerate(predicates):
            mask = np.asarray(pred.evaluate(cols), dtype=bool)
            buf = buffer_stage(chunk, mask)
            buf.cta = cta
            per_output_buffers[k].append(buf)
    return [gather_stage(rel, bufs) for bufs in per_output_buffers]
