"""Relational-algebra operators and the columnar relation model (Table I)."""

from .arithmetic import AGG_FUNCS, AggSpec, aggregate, arith
from .gpu_sort import SortStats, expected_merge_passes, staged_sort, staged_unique
from .hash_join import HashTable, build_hash_table, staged_hash_join
from .expr import (
    And,
    BinOp,
    Compare,
    Const,
    Expr,
    Field,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjoin,
)
from .operators import (
    anti_join,
    difference,
    intersection,
    join,
    product,
    project,
    select,
    semi_join,
    union,
)
from .relation import Relation
from .sort import is_sorted, sort, unique
from .stages import (
    CtaBuffer,
    buffer_stage,
    filter_stage,
    gather_stage,
    partition,
    staged_select,
    unfused_select_chain,
)

__all__ = [
    "AGG_FUNCS", "AggSpec", "aggregate", "arith", "And", "BinOp", "Compare",
    "Const", "Expr", "Field", "Not", "Or", "Predicate", "TruePredicate",
    "conjoin", "anti_join", "difference", "intersection", "join", "product",
    "project", "select", "semi_join", "union", "Relation", "is_sorted",
    "sort", "unique", "CtaBuffer", "buffer_stage", "filter_stage",
    "gather_stage", "partition", "staged_select", "unfused_select_chain",
    "SortStats", "expected_merge_passes", "staged_sort", "staged_unique",
    "HashTable", "build_hash_table", "staged_hash_join",
]
