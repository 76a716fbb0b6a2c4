"""Logical plan rewrites that run before fusion.

The paper frames fusion as one pass in a compiler pipeline ("mainstream
compiler passes that can automatically provide inter-kernel
optimizations").  These are the classic relational rewrites that pipeline
feeds fusion with better input:

* **select reordering** -- in a chain of SELECTs, apply the most selective
  predicate first, shrinking every downstream stage (fused or not);
* **select merging** -- adjacent SELECTs collapse into one conjunctive
  predicate (the logical counterpart of fusing two filter stages);
* **project pruning** -- adjacent PROJECTs collapse to the outermost one.

Each rewrite derives a new plan (:func:`~repro.plans.plan.derive`) and
preserves functional semantics -- property-tested against the interpreter.
"""

from __future__ import annotations

from ..errors import PlanError
from ..ra.expr import And
from .plan import OpType, Plan, PlanNode, derive


def _select_chains(plan: Plan) -> list[list[PlanNode]]:
    """Maximal chains of single-consumer SELECT nodes."""
    chains: list[list[PlanNode]] = []
    claimed: set[int] = set()
    for node in plan.topological():
        if node.op is not OpType.SELECT or id(node) in claimed:
            continue
        # only start a chain at a SELECT whose producer is not a chainable
        # SELECT (i.e. at the head)
        prod = node.inputs[0]
        if (prod.op is OpType.SELECT and len(plan.consumers(prod)) == 1):
            continue
        chain = [node]
        claimed.add(id(node))
        cur = node
        while True:
            consumers = plan.consumers(cur)
            if (len(consumers) == 1 and consumers[0].op is OpType.SELECT):
                cur = consumers[0]
                chain.append(cur)
                claimed.add(id(cur))
            else:
                break
        if len(chain) >= 2:
            chains.append(chain)
    return chains


def reorder_selects(plan: Plan) -> Plan:
    """Sort each SELECT chain by ascending selectivity (most selective
    first).  Legal because conjunctive filters commute; profitable because
    every later stage sees fewer elements."""
    changes: dict[PlanNode, dict] = {}
    for chain in _select_chains(plan):
        ordered = sorted(chain, key=lambda n: n.selectivity)
        if ordered == chain:
            continue
        # rewire: the head keeps the original upstream input; predicates,
        # selectivities and names rotate into the sorted order
        for node, src in zip(chain, ordered):
            changes[node] = {
                "params": dict(node.params, predicate=src.predicate),
                "selectivity": src.selectivity, "name": src.name}
    return derive(plan.name, plan.topological(), changes)


def merge_selects(plan: Plan) -> Plan:
    """Collapse each SELECT chain into one conjunctive SELECT."""
    changes: dict[PlanNode, dict] = {}
    dropped: dict[PlanNode, PlanNode] = {}
    for chain in _select_chains(plan):
        head, rest = chain[0], chain[1:]
        pred = head.predicate
        sel = head.selectivity
        for node in rest:
            pred = And(pred, node.predicate)
            sel *= node.selectivity
            dropped[node] = head  # the tail's consumers now read the head
        changes[head] = {"params": dict(head.params, predicate=pred),
                         "selectivity": sel,
                         "name": "+".join(n.name for n in chain)}
    return derive(plan.name,
                  (n for n in plan.topological() if n not in dropped),
                  changes, dropped)


def prune_projects(plan: Plan) -> Plan:
    """PROJECT(PROJECT(x)) -> PROJECT(x) with the outer field list (must be
    a subset of the inner's, else the plan was invalid anyway)."""
    dropped: dict[PlanNode, PlanNode] = {}
    for node in plan.topological():
        if node.op is not OpType.PROJECT:
            continue
        inner = node.inputs[0]
        if inner.op is OpType.PROJECT and len(plan.consumers(inner)) == 1:
            outer_fields = node.params["fields"]
            inner_fields = inner.params["fields"]
            missing = [f for f in outer_fields
                       if isinstance(f, str) and f not in inner_fields]
            if missing:
                raise PlanError(
                    f"project {node.name} reads {missing} which "
                    f"{inner.name} already dropped")
            dropped[inner] = inner.inputs[0]
    return derive(plan.name,
                  (n for n in plan.topological() if n not in dropped),
                  aliases=dropped)


def optimize_plan(plan: Plan) -> Plan:
    """The standard pre-fusion pipeline: prune, reorder.

    Select *merging* is intentionally not applied by default: merged
    SELECTs deny the fusion pass its per-stage structure (and the executor
    its per-operator accounting); fusion achieves the same effect at the
    kernel level.
    """
    return reorder_selects(prune_projects(plan))
