"""Lowering: plan operators -> stage specs and kernel chains.

This is where each RA operator's GPU implementation shape (stage list,
per-element cost, register demand) is defined.  Both the *unfused* baseline
(one :class:`KernelChain` per operator) and the *fused* lowering (one chain
for a whole region) are produced here, so the fusion pass is a pure
restructuring -- the per-stage costs are identical either way, and the
benefit of fusion emerges from shared partition/buffer/gather stages and
register-resident intermediates, exactly as the paper argues (SS III-A).
"""

from __future__ import annotations

import math

from ..errors import FusionError, PlanError
from ..plans.plan import OpType, PlanNode
from .kernel import Kernel, KernelChain, StageKind, StageSpec
from .stagecosts import DEFAULT_STAGE_COSTS, StageCostParams

KEY_BYTES = 4  # keys are 32-bit values throughout (compressed row data)


# ---------------------------------------------------------------------------
# row-size propagation
# ---------------------------------------------------------------------------

def out_row_nbytes(node: PlanNode) -> int:
    """Bytes per output row of a node (explicit or inherited/derived).

    Memoized on the node: a :class:`PlanNode` and its inputs are fixed
    when it is built, so its width is too."""
    try:
        return node.__dict__["_row_nbytes"]
    except KeyError:
        width = node.__dict__["_row_nbytes"] = _derive_row_nbytes(node)
        return width


def _derive_row_nbytes(node: PlanNode) -> int:
    """The width rule of :func:`out_row_nbytes`."""
    if node.out_row_nbytes is not None:
        return node.out_row_nbytes
    if node.op is OpType.SOURCE:
        return 4
    left = out_row_nbytes(node.inputs[0])
    if node.op in (OpType.JOIN, OpType.LEFT_JOIN, OpType.PRODUCT):
        right = out_row_nbytes(node.inputs[1])
        if node.op is OpType.JOIN:
            return left + max(0, right - KEY_BYTES)
        if node.op is OpType.LEFT_JOIN:
            # joined row + the 32-bit match-indicator column
            return left + max(0, right - KEY_BYTES) + 4
        return left + right
    if node.op is OpType.UNION_ALL:
        return max(left, out_row_nbytes(node.inputs[1]))
    if node.op is OpType.AGGREGATE:
        n_aggs = len(node.params.get("aggs", {})) or 1
        n_keys = len(node.params.get("group_by", [])) or 1
        return 8 * n_aggs + KEY_BYTES * n_keys
    return left


def in_row_nbytes(node: PlanNode) -> int:
    if not node.inputs:
        return out_row_nbytes(node)
    return out_row_nbytes(node.inputs[0])


# ---------------------------------------------------------------------------
# compute stages (the fusable middle of the skeleton)
# ---------------------------------------------------------------------------

def compute_stage(node: PlanNode, reads_input: bool,
                  costs: StageCostParams = DEFAULT_STAGE_COSTS) -> StageSpec:
    """The compute StageSpec for a fusable operator.

    ``reads_input`` is True when this is the first compute stage of its
    kernel (input comes from global memory); chained stages read
    register-resident intermediates for free -- fusion benefit (c).
    """
    row = in_row_nbytes(node)
    first_read = row if reads_input else 0.0

    if node.op is OpType.SELECT:
        pred = node.params["predicate"]
        base = (costs.filter_base_insts if reads_input
                else costs.filter_chained_insts)
        return StageSpec(
            kind=StageKind.FILTER, name=node.name,
            insts_per_input=base
            + costs.filter_insts_per_pred_inst * pred.instruction_estimate(),
            reads_bytes_per_input=first_read,
            selectivity=node.selectivity,
            regs=costs.filter_regs_base
            + costs.filter_regs_per_field * len(pred.fields()),
        )
    if node.op is OpType.PROJECT:
        return StageSpec(
            kind=StageKind.PROJECT, name=node.name,
            insts_per_input=costs.project_insts,
            reads_bytes_per_input=first_read,
            selectivity=1.0,
            regs=2,
        )
    if node.op is OpType.ARITH:
        exprs = node.params["outputs"].values()
        expr_insts = sum(e.instruction_estimate() for e in exprs)
        return StageSpec(
            kind=StageKind.MAP, name=node.name,
            insts_per_input=costs.map_base_insts
            + costs.map_insts_per_expr_inst * expr_insts,
            reads_bytes_per_input=first_read,
            selectivity=1.0,
            regs=costs.map_regs_base + 2 * len(node.params["outputs"]),
        )
    if node.op in (OpType.JOIN, OpType.LEFT_JOIN):
        right_row = out_row_nbytes(node.inputs[1])
        if node.params.get("gather"):
            # positional join: fetch just the new value bytes per element
            value_bytes = max(4, right_row - KEY_BYTES)
            return StageSpec(
                kind=StageKind.JOIN_PROBE, name=node.name,
                insts_per_input=costs.gather_join_insts,
                reads_bytes_per_input=first_read + value_bytes,
                selectivity=node.selectivity,
                regs=costs.gather_join_regs,
            )
        return StageSpec(
            kind=StageKind.JOIN_PROBE, name=node.name,
            insts_per_input=costs.join_probe_insts,
            reads_bytes_per_input=first_read
            + costs.join_probe_read_factor * right_row,
            selectivity=node.selectivity,
            regs=costs.join_probe_regs,
        )
    if node.op in (OpType.SEMI_JOIN, OpType.ANTI_JOIN,
                   OpType.INTERSECTION, OpType.DIFFERENCE):
        return StageSpec(
            kind=StageKind.SET_LOOKUP, name=node.name,
            insts_per_input=costs.set_lookup_insts,
            reads_bytes_per_input=first_read
            + costs.join_probe_read_factor * KEY_BYTES,
            selectivity=node.selectivity,
            regs=costs.set_lookup_regs,
        )
    if node.op is OpType.PRODUCT:
        expansion = max(node.selectivity, 1e-12)
        return StageSpec(
            kind=StageKind.PRODUCT_EXPAND, name=node.name,
            insts_per_input=costs.product_insts_per_output * expansion,
            reads_bytes_per_input=first_read,
            selectivity=expansion,
            regs=costs.product_regs,
        )
    if node.op is OpType.AGGREGATE:
        return StageSpec(
            kind=StageKind.REDUCE, name=node.name,
            insts_per_input=costs.reduce_insts_per_elem,
            reads_bytes_per_input=first_read,
            selectivity=node.selectivity,
            regs=costs.reduce_regs,
        )
    raise FusionError(f"{node.op.value} has no fusable compute stage")


#: LEFT_JOIN is fusable but only as a region *tail* -- its probe edge is
#: elementwise yet its null-padding output is a barrier (dependence.py
#: lists it under _BARRIER_PRODUCERS, and FUS108 enforces terminality).
FUSABLE_OPS = frozenset({
    OpType.SELECT, OpType.PROJECT, OpType.ARITH, OpType.JOIN,
    OpType.SEMI_JOIN, OpType.ANTI_JOIN, OpType.INTERSECTION,
    OpType.DIFFERENCE, OpType.PRODUCT, OpType.AGGREGATE,
    OpType.LEFT_JOIN,
})


# ---------------------------------------------------------------------------
# skeleton assembly
# ---------------------------------------------------------------------------

def _partition_stage(costs: StageCostParams) -> StageSpec:
    return StageSpec(StageKind.PARTITION, "partition",
                     insts_per_input=costs.partition_insts,
                     regs=costs.partition_regs)


def _buffer_stage(out_row: int, costs: StageCostParams) -> StageSpec:
    return StageSpec(StageKind.BUFFER, "buffer",
                     insts_per_input=costs.buffer_insts_per_match,
                     writes_bytes_per_output=float(out_row),
                     regs=costs.buffer_regs)


def _gather_kernel(name: str, out_row: int, costs: StageCostParams,
                   op_names: list[str]) -> Kernel:
    # gather traffic is fully coalesced; charge it at the better streaming
    # bandwidth via gather_bw_factor (see StageCostParams docs)
    eff_row = float(out_row) / costs.gather_bw_factor
    return Kernel(
        name=name,
        stages=[StageSpec(
            StageKind.GATHER, "gather",
            insts_per_input=costs.gather_insts_per_elem,
            reads_bytes_per_input=eff_row,
            writes_bytes_per_output=eff_row,
            regs=costs.gather_regs,
        )],
        op_names=op_names,
        base_regs=costs.skeleton_base_regs,
    )


def build_side_kernels(nodes: list[PlanNode], costs: StageCostParams
                       ) -> list[tuple[Kernel, PlanNode]]:
    """Hash-build kernels for every join-like op in `nodes`.

    Returned with the plan node supplying the build input, so the executor
    can size them (element count of that input's result).
    """
    side: list[tuple[Kernel, PlanNode]] = []
    for node in nodes:
        if node.op is OpType.JOIN and node.params.get("gather"):
            continue  # positional join: the column array needs no build
        if node.op in (OpType.JOIN, OpType.LEFT_JOIN, OpType.SEMI_JOIN,
                       OpType.ANTI_JOIN, OpType.INTERSECTION,
                       OpType.DIFFERENCE, OpType.EXCEPT_ALL):
            build_input = node.inputs[1]
            row = out_row_nbytes(build_input)
            kern = Kernel(
                name=f"{node.name}.build",
                stages=[StageSpec(
                    StageKind.HASH_BUILD, f"{node.name}.build",
                    insts_per_input=costs.hash_build_insts,
                    reads_bytes_per_input=float(row),
                    writes_bytes_per_output=costs.hash_table_bytes_factor * row,
                    regs=costs.hash_build_regs,
                )],
                op_names=[node.name],
                base_regs=costs.skeleton_base_regs,
            )
            side.append((kern, build_input))
    return side


def chain_for_region(nodes: list[PlanNode],
                     costs: StageCostParams = DEFAULT_STAGE_COSTS,
                     name: str | None = None) -> KernelChain:
    """Lower a fused region (ordered fusable ops, each consuming the
    previous) into one compute kernel + one gather kernel.

    A terminal AGGREGATE replaces buffer+gather with its reduce stage (the
    grouped output is tiny and written directly).
    """
    if not nodes:
        raise FusionError("empty fusion region")
    for n in nodes:
        if n.op not in FUSABLE_OPS:
            raise FusionError(f"{n.name} ({n.op.value}) is not fusable")

    region_name = name or "+".join(n.name for n in nodes)
    terminal_agg = nodes[-1].op is OpType.AGGREGATE
    mid = nodes[:-1] if terminal_agg else nodes

    stages: list[StageSpec] = [_partition_stage(costs)]
    for i, node in enumerate(mid):
        stages.append(compute_stage(node, reads_input=(i == 0), costs=costs))

    out_row = out_row_nbytes(nodes[-1])
    kernels: list[Kernel]
    if terminal_agg:
        stages.append(compute_stage(nodes[-1], reads_input=(not mid), costs=costs))
        stages.append(StageSpec(
            StageKind.BUFFER, "agg_out",
            writes_bytes_per_output=float(out_row), regs=2))
        kernels = [Kernel(f"{region_name}.compute", stages,
                          op_names=[n.name for n in nodes],
                          base_regs=costs.skeleton_base_regs)]
    else:
        final_out = out_row_nbytes(nodes[-1])
        stages.append(_buffer_stage(final_out, costs))
        compute = Kernel(f"{region_name}.compute", stages,
                         op_names=[n.name for n in nodes],
                         base_regs=costs.skeleton_base_regs)
        gather = _gather_kernel(f"{region_name}.gather", final_out, costs,
                                [n.name for n in nodes])
        kernels = [compute, gather]

    side = build_side_kernels(nodes, costs)
    return KernelChain(name=region_name, kernels=kernels, side_kernels=side)


def chain_for_node(node: PlanNode,
                   costs: StageCostParams = DEFAULT_STAGE_COSTS,
                   n_in_hint: int = 1 << 20) -> KernelChain:
    """Lower one operator standalone (the unfused baseline)."""
    if node.op in FUSABLE_OPS:
        return chain_for_region([node], costs)
    if node.op is OpType.SORT:
        return _sort_chain(node, costs, n_in_hint)
    if node.op is OpType.UNIQUE:
        return _unique_chain(node, costs, n_in_hint)
    if node.op is OpType.UNION:
        return _union_chain(node, costs)
    if node.op is OpType.TOP_N:
        return _top_n_chain(node, costs, n_in_hint)
    if node.op is OpType.UNION_ALL:
        return _union_all_chain(node, costs)
    if node.op is OpType.EXCEPT_ALL:
        return _except_all_chain(node, costs)
    raise PlanError(f"cannot lower op {node.op.value}")


def lower_region(region, costs: StageCostParams, n_in: int) -> KernelChain:
    """Lower one fusion region (a :class:`~repro.core.fusion.Region`): a
    barrier region is its single operator, sized by its `n_in` input rows;
    any other region is one fused chain."""
    if region.is_barrier_op:
        return chain_for_node(region.nodes[0], costs, n_in_hint=max(n_in, 2))
    return chain_for_region(region.nodes, costs)


def _sort_passes(n: int, costs: StageCostParams = DEFAULT_STAGE_COSTS) -> int:
    """Data passes for an n-element sort (merge passes x pass factor)."""
    return max(1, math.ceil(costs.sort_pass_factor * math.log2(max(n, 2))))


def _sort_chain(node: PlanNode, costs: StageCostParams, n_in: int) -> KernelChain:
    row = in_row_nbytes(node)
    passes = _sort_passes(max(n_in, 2), costs)
    kern = Kernel(
        name=f"{node.name}.sort",
        stages=[StageSpec(
            StageKind.SORT_PASS, node.name,
            insts_per_input=costs.sort_pass_insts * passes,
            reads_bytes_per_input=float(row) * passes,
            writes_bytes_per_output=float(row) * passes,
            regs=costs.sort_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    return KernelChain(name=node.name, kernels=[kern])


def _unique_chain(node: PlanNode, costs: StageCostParams, n_in: int) -> KernelChain:
    row = in_row_nbytes(node)
    passes = _sort_passes(max(n_in, 2), costs)
    sort_kern = Kernel(
        name=f"{node.name}.sort",
        stages=[StageSpec(
            StageKind.SORT_PASS, f"{node.name}.sort",
            insts_per_input=costs.sort_pass_insts * passes,
            reads_bytes_per_input=float(row) * passes,
            writes_bytes_per_output=float(row) * passes,
            regs=costs.sort_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    compact = Kernel(
        name=f"{node.name}.compact",
        stages=[
            _partition_stage(costs),
            StageSpec(StageKind.FILTER, f"{node.name}.adjdiff",
                      insts_per_input=costs.unique_compact_insts,
                      reads_bytes_per_input=float(row),
                      selectivity=node.selectivity,
                      regs=8),
            _buffer_stage(row, costs),
        ],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    gather = _gather_kernel(f"{node.name}.gather", row, costs, [node.name])
    return KernelChain(name=node.name, kernels=[sort_kern, compact, gather])


def _union_chain(node: PlanNode, costs: StageCostParams) -> KernelChain:
    """UNION = concatenate + sort-based dedup (barrier operator)."""
    row = out_row_nbytes(node)
    merge = Kernel(
        name=f"{node.name}.dedup",
        stages=[StageSpec(
            StageKind.SORT_PASS, node.name,
            insts_per_input=costs.sort_pass_insts * 8,
            reads_bytes_per_input=float(row) * 8,
            writes_bytes_per_output=float(row) * 8,
            regs=costs.sort_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    return KernelChain(name=node.name, kernels=[merge])


def _top_n_chain(node: PlanNode, costs: StageCostParams,
                 n_in: int) -> KernelChain:
    """TOP_N = full sort passes + a truncating copy of the first n rows."""
    row = in_row_nbytes(node)
    passes = _sort_passes(max(n_in, 2), costs)
    n = max(1, int(node.params.get("n", 1)))
    keep = min(1.0, n / max(n_in, 1))
    sort_kern = Kernel(
        name=f"{node.name}.sort",
        stages=[StageSpec(
            StageKind.SORT_PASS, f"{node.name}.sort",
            insts_per_input=costs.sort_pass_insts * passes,
            reads_bytes_per_input=float(row) * passes,
            writes_bytes_per_output=float(row) * passes,
            regs=costs.sort_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    truncate = Kernel(
        name=f"{node.name}.truncate",
        stages=[StageSpec(
            StageKind.GATHER, f"{node.name}.truncate",
            insts_per_input=costs.gather_insts_per_elem * keep,
            reads_bytes_per_input=float(row) * keep,
            writes_bytes_per_output=float(row) * keep,
            regs=costs.gather_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    return KernelChain(name=node.name, kernels=[sort_kern, truncate])


def _union_all_chain(node: PlanNode, costs: StageCostParams) -> KernelChain:
    """UNION ALL = a pure concatenating copy (no dedup passes)."""
    row = out_row_nbytes(node)
    concat = Kernel(
        name=f"{node.name}.concat",
        stages=[StageSpec(
            StageKind.GATHER, node.name,
            insts_per_input=costs.gather_insts_per_elem,
            reads_bytes_per_input=float(row),
            writes_bytes_per_output=float(row),
            regs=costs.gather_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    return KernelChain(name=node.name, kernels=[concat])


def _except_all_chain(node: PlanNode, costs: StageCostParams) -> KernelChain:
    """EXCEPT ALL = occurrence numbering (sort passes over the probe
    side) + a multiplicity-lookup filter against the build side."""
    row = in_row_nbytes(node)
    passes = _sort_passes(2, costs)
    number = Kernel(
        name=f"{node.name}.number",
        stages=[StageSpec(
            StageKind.SORT_PASS, f"{node.name}.number",
            insts_per_input=costs.sort_pass_insts * passes,
            reads_bytes_per_input=float(row) * passes,
            writes_bytes_per_output=float(row) * passes,
            regs=costs.sort_regs,
        )],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    compact = Kernel(
        name=f"{node.name}.compact",
        stages=[
            _partition_stage(costs),
            StageSpec(StageKind.SET_LOOKUP, f"{node.name}.lookup",
                      insts_per_input=costs.set_lookup_insts,
                      reads_bytes_per_input=float(row)
                      + costs.join_probe_read_factor * KEY_BYTES,
                      selectivity=node.selectivity,
                      regs=costs.set_lookup_regs),
            _buffer_stage(row, costs),
        ],
        op_names=[node.name],
        base_regs=costs.skeleton_base_regs,
    )
    gather = _gather_kernel(f"{node.name}.gather", row, costs, [node.name])
    side = build_side_kernels([node], costs)
    return KernelChain(name=node.name, kernels=[number, compact, gather],
                       side_kernels=side)
