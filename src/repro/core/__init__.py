"""The paper's primary contribution: kernel fusion and kernel fission."""

from .cost import FusionCostModel, FusionDecision
from .dependence import DepClass, classify_edge, is_fusable_into_chain
from .fission import FissionConfig, Segment, plan_segments, run_fissioned
from .fusion import FusionResult, Region, fuse_plan
from .kernel import COMPUTE_STAGE_KINDS, Kernel, KernelChain, StageKind, StageSpec
from .opmodels import (
    FUSABLE_OPS,
    KEY_BYTES,
    build_side_kernels,
    chain_for_node,
    chain_for_region,
    compute_stage,
    in_row_nbytes,
    out_row_nbytes,
)
from .multifusion import SharedScanGroup, chain_for_shared_scan, find_shared_select_groups, multi_select
from .passes import CompiledPlan, compile_plan
from .render import render_expr, render_fused_kernel, render_predicate
from .stagecosts import DEFAULT_STAGE_COSTS, StageCostParams

__all__ = [
    "FusionCostModel", "FusionDecision", "DepClass", "classify_edge",
    "is_fusable_into_chain", "FissionConfig", "Segment", "plan_segments",
    "run_fissioned", "FusionResult", "Region", "fuse_plan",
    "COMPUTE_STAGE_KINDS", "Kernel", "KernelChain", "StageKind", "StageSpec",
    "FUSABLE_OPS", "KEY_BYTES", "build_side_kernels", "chain_for_node",
    "chain_for_region", "compute_stage", "in_row_nbytes", "out_row_nbytes",
    "DEFAULT_STAGE_COSTS", "StageCostParams", "SharedScanGroup",
    "chain_for_shared_scan", "find_shared_select_groups", "multi_select",
    "render_expr", "render_fused_kernel", "render_predicate",
    "CompiledPlan", "compile_plan",
]
