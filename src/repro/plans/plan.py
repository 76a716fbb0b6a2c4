"""Logical query plans: DAGs of relational-algebra operators.

A :class:`Plan` is what the fusion/fission passes rewrite and what the
executor runs.  Nodes carry the operator type, its parameters (predicate,
fields, expressions, ...), and an output-cardinality estimate used when the
workload is *virtual* (timing-only, no materialized arrays -- needed for
the paper's multi-billion-element experiments).

Plans are values: nodes are frozen, a plan freezes when it validates, and
a pass that changes a plan derives a new one (:func:`derive`).  A frozen
plan keeps a bounded memo of values derived from it (:meth:`Plan.memo`),
such as the serving path's lowered per-query stream programs.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping,
                    Sequence, TypeVar)

from ..errors import PlanError
from ..ra.expr import Expr, Predicate

T = TypeVar("T")

#: results a frozen plan's :meth:`Plan.memo` keeps, least recently used
#: dropped first
PLAN_MEMO_ENTRIES = 64


class OpType(enum.Enum):
    SOURCE = "source"
    SELECT = "select"
    PROJECT = "project"
    JOIN = "join"
    SEMI_JOIN = "semi_join"
    ANTI_JOIN = "anti_join"
    PRODUCT = "product"
    UNION = "union"
    INTERSECTION = "intersection"
    DIFFERENCE = "difference"
    SORT = "sort"
    UNIQUE = "unique"
    ARITH = "arith"
    AGGREGATE = "aggregate"
    LEFT_JOIN = "left_join"
    TOP_N = "top_n"
    UNION_ALL = "union_all"
    EXCEPT_ALL = "except_all"


#: operators that can never fuse with anything (paper SS III-C).  TOP_N
#: is a bounded SORT; the bag set-ops see their whole inputs at once.
FUSION_BARRIER_OPS = frozenset({OpType.SORT, OpType.UNIQUE, OpType.TOP_N,
                                OpType.UNION_ALL, OpType.EXCEPT_ALL})


@dataclass(frozen=True, eq=False)
class PlanNode:
    """One operator application in a plan DAG (frozen: derive a changed
    node with :func:`dataclasses.replace`)."""

    op: OpType
    name: str
    inputs: tuple["PlanNode", ...] = ()
    params: dict[str, Any] = field(default_factory=dict)
    #: estimated ratio of output rows to (left) input rows
    selectivity: float = 1.0
    #: estimated bytes per output row; None -> inherit from (left) input
    out_row_nbytes: int | None = None

    def __post_init__(self):
        if self.selectivity < 0:
            raise PlanError(f"negative selectivity on {self.name}")
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def predicate(self) -> Predicate | None:
        return self.params.get("predicate")

    def __repr__(self):
        ins = ",".join(i.name for i in self.inputs)
        return f"PlanNode({self.op.value}:{self.name} <- [{ins}])"


def source_node(name: str, row_nbytes: int = 4, n_rows: int | None = None,
                fields: list[str] | None = None) -> PlanNode:
    """A SOURCE node (see :meth:`Plan.source`)."""
    params: dict[str, Any] = {"n_rows": n_rows}
    if fields is not None:
        params["fields"] = list(fields)
    return PlanNode(OpType.SOURCE, name, params=params,
                    out_row_nbytes=row_nbytes)


class Plan:
    """A DAG of :class:`PlanNode` built through a fluent API.

    >>> plan = Plan()
    >>> src = plan.source("lineitem", row_nbytes=4)
    >>> sel = plan.select(src, Field("f0") < 10, selectivity=0.5)

    The first successful :meth:`validate` freezes the plan: its node list
    becomes a tuple, and adding a node or setting an attribute raises
    :class:`~repro.errors.PlanError`.
    """

    def __init__(self, name: str = "plan"):
        self.name = name
        self.nodes: list[PlanNode] | tuple[PlanNode, ...] = []
        self._counter = itertools.count()
        #: the graph index validate() builds (None while being built)
        self._index: _Index | None = None
        self._frozen = False

    def __setattr__(self, attr: str, value: Any) -> None:
        if getattr(self, "_frozen", False):
            raise PlanError(f"plan {self.name!r} is frozen: cannot set {attr}")
        super().__setattr__(attr, value)

    # -- builders -------------------------------------------------------------
    def _add(self, node: PlanNode) -> PlanNode:
        if self._frozen:
            raise PlanError(f"plan {self.name!r} is frozen: cannot add "
                            f"{node.name!r}")
        for inp in node.inputs:
            if inp not in self.nodes:
                raise PlanError(f"input {inp.name} of {node.name} not in this plan")
        self.nodes.append(node)
        return node

    def _name(self, op: OpType, name: str | None) -> str:
        return name or f"{op.value}_{next(self._counter)}"

    def source(self, name: str, row_nbytes: int = 4, n_rows: int | None = None,
               fields: list[str] | None = None) -> PlanNode:
        """`fields`, when given, declares the source's column schema; the
        static analyzer's column-flow lints only fire downstream of a
        declared schema (undeclared sources are treated as unknown)."""
        return self._add(source_node(name, row_nbytes, n_rows, fields))

    def select(self, input_node: PlanNode, predicate: Predicate,
               selectivity: float = 0.5, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.SELECT, self._name(OpType.SELECT, name), [input_node],
            params={"predicate": predicate}, selectivity=selectivity))

    def project(self, input_node: PlanNode, fields: list[str],
                out_row_nbytes: int | None = None, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.PROJECT, self._name(OpType.PROJECT, name), [input_node],
            params={"fields": fields}, out_row_nbytes=out_row_nbytes))

    def join(self, left: PlanNode, right: PlanNode,
             on: "str | tuple[str, str] | None" = None,
             match_rate: float = 1.0, out_row_nbytes: int | None = None,
             gather: bool = False, preserve_order: bool = False,
             name: str | None = None) -> PlanNode:
        """JOIN.  ``gather=True`` marks a positional (row-id) join against an
        aligned column array: no hash build, the probe is a direct fetch --
        how the paper's columnar engine merges lineitem columns in Q1.
        ``on`` may be a (left, right) pair for differently-named keys;
        ``preserve_order`` re-sorts match pairs to probe-side row order
        (what decorrelated subquery joins need for bit-exact replays)."""
        return self._add(PlanNode(
            OpType.JOIN, self._name(OpType.JOIN, name), [left, right],
            params={"on": on, "gather": gather,
                    "preserve_order": preserve_order},
            selectivity=match_rate, out_row_nbytes=out_row_nbytes))

    def left_join(self, left: PlanNode, right: PlanNode,
                  on: "str | tuple[str, str] | None" = None,
                  match_field: str = "__matched", match_rate: float = 1.0,
                  out_row_nbytes: int | None = None,
                  name: str | None = None) -> PlanNode:
        """LEFT OUTER JOIN: every left row survives, unmatched rows carry
        zero pads plus a 0/1 ``match_field`` indicator column.  The
        null-padding step sees the whole probe result, so the node is a
        barrier *producer*: it may only terminate a fused region."""
        if match_rate < 1.0:
            raise PlanError(
                f"left join {name!r} cannot drop rows (match_rate >= 1)")
        return self._add(PlanNode(
            OpType.LEFT_JOIN, self._name(OpType.LEFT_JOIN, name),
            [left, right], params={"on": on, "match_field": match_field},
            selectivity=match_rate, out_row_nbytes=out_row_nbytes))

    def semi_join(self, left: PlanNode, right: PlanNode, on: str | None = None,
                  match_rate: float = 0.5, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.SEMI_JOIN, self._name(OpType.SEMI_JOIN, name), [left, right],
            params={"on": on}, selectivity=match_rate))

    def anti_join(self, left: PlanNode, right: PlanNode, on: str | None = None,
                  match_rate: float = 0.5, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.ANTI_JOIN, self._name(OpType.ANTI_JOIN, name), [left, right],
            params={"on": on}, selectivity=match_rate))

    def product(self, left: PlanNode, right: PlanNode, right_rows: int = 1,
                name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.PRODUCT, self._name(OpType.PRODUCT, name), [left, right],
            selectivity=float(right_rows)))

    def union(self, left: PlanNode, right: PlanNode, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.UNION, self._name(OpType.UNION, name), [left, right],
            selectivity=1.0))

    def intersection(self, left: PlanNode, right: PlanNode,
                     match_rate: float = 0.5, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.INTERSECTION, self._name(OpType.INTERSECTION, name),
            [left, right], selectivity=match_rate))

    def difference(self, left: PlanNode, right: PlanNode,
                   keep_rate: float = 0.5, name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.DIFFERENCE, self._name(OpType.DIFFERENCE, name),
            [left, right], selectivity=keep_rate))

    def sort(self, input_node: PlanNode, by: list[str] | None = None,
             descending: "bool | list[bool]" = False,
             name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.SORT, self._name(OpType.SORT, name), [input_node],
            params={"by": by, "descending": descending}))

    def unique(self, input_node: PlanNode, distinct_rate: float = 1.0,
               name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.UNIQUE, self._name(OpType.UNIQUE, name), [input_node],
            selectivity=distinct_rate))

    def top_n(self, input_node: PlanNode, by: list[str], n: int,
              descending: "bool | list[bool]" = False,
              name: str | None = None) -> PlanNode:
        """ORDER BY ... LIMIT n: bounded sort, a barrier both ways."""
        if n < 0:
            raise PlanError(f"top_n needs n >= 0, got {n}")
        return self._add(PlanNode(
            OpType.TOP_N, self._name(OpType.TOP_N, name), [input_node],
            params={"by": by, "n": n, "descending": descending}))

    def union_all(self, left: PlanNode, right: PlanNode,
                  name: str | None = None) -> PlanNode:
        """UNION ALL: bag concatenation (no dedup, unlike UNION)."""
        return self._add(PlanNode(
            OpType.UNION_ALL, self._name(OpType.UNION_ALL, name),
            [left, right], selectivity=1.0))

    def except_all(self, left: PlanNode, right: PlanNode,
                   keep_rate: float = 0.5, name: str | None = None) -> PlanNode:
        """EXCEPT ALL: bag difference (per-tuple multiplicities subtract)."""
        return self._add(PlanNode(
            OpType.EXCEPT_ALL, self._name(OpType.EXCEPT_ALL, name),
            [left, right], selectivity=keep_rate))

    def arith(self, input_node: PlanNode, outputs: dict[str, Expr],
              keep: list[str] | None = None, out_row_nbytes: int | None = None,
              name: str | None = None) -> PlanNode:
        return self._add(PlanNode(
            OpType.ARITH, self._name(OpType.ARITH, name), [input_node],
            params={"outputs": outputs, "keep": keep},
            out_row_nbytes=out_row_nbytes))

    def aggregate(self, input_node: PlanNode, group_by: list[str],
                  aggs: dict, n_groups: int | None = 1,
                  group_rate: float = 0.01, name: str | None = None) -> PlanNode:
        """AGGREGATE.  Output size is `n_groups` rows when given, else
        ``group_rate`` * input rows (for group counts that scale with the
        data, like Q21's per-order aggregates)."""
        return self._add(PlanNode(
            OpType.AGGREGATE, self._name(OpType.AGGREGATE, name), [input_node],
            params={"group_by": group_by, "aggs": aggs, "n_groups": n_groups},
            selectivity=group_rate))

    # -- graph queries ----------------------------------------------------------
    # A frozen plan answers from the index validate() built; a plan under
    # construction scans its nodes on every call.  Answers are fresh
    # lists, so no caller can corrupt the index.
    def consumers(self, node: PlanNode) -> list[PlanNode]:
        if self._frozen:
            return list(self._index.consumers.get(node, ()))
        return [n for n in self.nodes if node in n.inputs]

    def sinks(self) -> list[PlanNode]:
        """Nodes no operator consumes, in node order."""
        if self._frozen:
            return list(self._index.sinks)
        consumed = {inp for n in self.nodes for inp in n.inputs}
        return [n for n in self.nodes if n not in consumed]

    def sources(self) -> list[PlanNode]:
        """SOURCE nodes, in node order."""
        if self._frozen:
            return list(self._index.sources)
        return [n for n in self.nodes if n.op is OpType.SOURCE]

    def topological(self) -> Iterator[PlanNode]:
        """Nodes in dependency order (inputs before consumers)."""
        if self._index is not None:
            return iter(self._index.order)
        return iter(self._walk())

    def _walk(self) -> list[PlanNode]:
        """Depth-first dependency order; PlanError names any cycle."""
        seen: set[int] = set()
        order: list[PlanNode] = []

        def visit(node: PlanNode, stack: tuple[PlanNode, ...]) -> None:
            nid = id(node)
            if any(nid == id(s) for s in stack):
                start = next(i for i, s in enumerate(stack) if id(s) == nid)
                path = " -> ".join(n.name for n in stack[start:])
                raise PlanError(
                    f"cycle through {node.name}: {path} -> {node.name}")
            if nid in seen:
                return
            for inp in node.inputs:
                visit(inp, stack + (node,))
            seen.add(nid)
            order.append(node)

        for node in self.nodes:
            visit(node, ())
        return order

    def structural_issues(self) -> list[StructuralIssue]:
        """Every structural problem in the plan, as structured records.

        Each issue carries a ``kind`` (``arity`` / ``duplicate`` /
        ``dangling`` / ``cycle``), the offending node (when one exists)
        and a message naming the node and input index involved.  This is
        what :meth:`validate` raises from, and what the PLN plan lints of
        :mod:`repro.analyze` report verbatim, so error text is identical
        on both paths.
        """
        issues: list[StructuralIssue] = []
        names: dict[str, PlanNode] = {}
        for node in self.nodes:
            expected = OP_ARITY[node.op]
            if len(node.inputs) != expected:
                issues.append(StructuralIssue(
                    "arity", node,
                    f"node {node.name!r}: {node.op.value} needs {expected} "
                    f"inputs, has {len(node.inputs)}"))
            for i, inp in enumerate(node.inputs):
                if inp not in self.nodes:
                    issues.append(StructuralIssue(
                        "dangling", node,
                        f"node {node.name!r}: input #{i} ({inp.name!r}) is "
                        f"not part of plan {self.name!r}"))
            if node.name in names:
                issues.append(StructuralIssue(
                    "duplicate", node,
                    f"duplicate node name {node.name!r} "
                    f"(ops {names[node.name].op.value} and {node.op.value})"))
            names.setdefault(node.name, node)
        try:
            list(self.topological())
        except PlanError as err:
            issues.append(StructuralIssue("cycle", None, str(err)))
        return issues

    def validate(self) -> None:
        """Raise PlanError on structural problems, naming the offending
        node (and input index, where one is involved); else freeze the
        plan and index its dependency order, consumers and sinks.  A
        frozen plan cannot change, so validating it again returns at
        once."""
        if self._frozen:
            return
        try:
            # the structural check's cycle test reads this index, so a
            # plan is walked once
            self._index = _Index(self.nodes, self._walk())
        except PlanError:
            pass  # structural_issues() walks again and reports the cycle
        issues = self.structural_issues()
        if issues:
            self._index = None
            raise PlanError(issues[0].message)
        self.nodes = tuple(self.nodes)
        self._frozen = True

    def memo(self, derive: Callable[..., T], *key: Hashable) -> T:
        """``derive(self, *key)``, kept on a frozen plan.

        A frozen plan cannot change, so a value derived from it and `key`
        alone stays valid for the plan's life.  The plan keeps its last
        :data:`PLAN_MEMO_ENTRIES` results; they die with the plan, are not
        pickled, and take no part in its rendering.  A plan still being
        built derives afresh on every call."""
        if not self._frozen:
            return derive(self, *key)
        memos = self._index.memos
        slot = (derive, key)
        try:
            value = memos[slot]
        except KeyError:
            value = memos[slot] = derive(self, *key)
            if len(memos) > PLAN_MEMO_ENTRIES:
                memos.popitem(last=False)
            return value
        memos.move_to_end(slot)
        return value


class _Index:
    """A plan's dependency order, consumer lists, sources and sinks,
    derived from its nodes in one pass, and the memo of values derived
    from the frozen plan (:meth:`Plan.memo`).

    Slotted and rendered by name only, so a checksum of a plan
    (:func:`repro.optimizer.fingerprint.canonical`) covers the nodes and
    not this derived copy of them again."""

    __slots__ = ("order", "consumers", "sources", "sinks", "memos")

    def __init__(self, nodes: Sequence[PlanNode], order: list[PlanNode]):
        self.order = tuple(order)
        self.consumers: dict[PlanNode, list[PlanNode]] = {}
        for node in nodes:
            self.consumers.setdefault(node, [])
            for inp in dict.fromkeys(node.inputs):
                self.consumers.setdefault(inp, []).append(node)
        self.sources = tuple(n for n in nodes if n.op is OpType.SOURCE)
        self.sinks = [n for n in nodes if not self.consumers[n]]
        self.memos: OrderedDict[tuple, Any] = OrderedDict()

    def __getstate__(self) -> tuple:
        # memos stay in their process: an unpickled plan derives afresh
        return self.order, self.consumers, self.sources, self.sinks

    def __setstate__(self, state: tuple) -> None:
        self.order, self.consumers, self.sources, self.sinks = state
        self.memos = OrderedDict()

    def __repr__(self) -> str:
        return "Plan._Index"


def derive(name: str, nodes: Iterable[PlanNode],
           changes: Mapping[PlanNode, Mapping[str, Any]] | None = None,
           aliases: Mapping[PlanNode, PlanNode] | None = None) -> Plan:
    """A new plan `name` holding a copy of each of `nodes` (topologically
    ordered), ``dataclasses.replace``-d with ``changes[node]`` and wired to
    the copies of its inputs.  An input that is not copied stands for
    ``aliases[input]`` (aliases may chain): how a rewrite drops a node and
    how a sub-plan reads an outside node from a new SOURCE."""
    changes = changes or {}
    aliases = aliases or {}
    plan = Plan(name)
    copies: dict[PlanNode, PlanNode] = {}

    def copy_of(node: PlanNode) -> PlanNode:
        while node not in copies:
            node = aliases[node]
        return copies[node]

    for node in nodes:
        copies[node] = dataclasses.replace(
            node, inputs=tuple(copy_of(i) for i in node.inputs),
            **changes.get(node, {}))
        plan.nodes.append(copies[node])
    return plan


#: expected input count per operator
OP_ARITY = {
    OpType.SOURCE: 0, OpType.SELECT: 1, OpType.PROJECT: 1,
    OpType.SORT: 1, OpType.UNIQUE: 1, OpType.ARITH: 1,
    OpType.AGGREGATE: 1, OpType.JOIN: 2, OpType.SEMI_JOIN: 2,
    OpType.ANTI_JOIN: 2, OpType.PRODUCT: 2, OpType.UNION: 2,
    OpType.INTERSECTION: 2, OpType.DIFFERENCE: 2, OpType.LEFT_JOIN: 2,
    OpType.TOP_N: 1, OpType.UNION_ALL: 2, OpType.EXCEPT_ALL: 2,
}


@dataclass(frozen=True)
class StructuralIssue:
    """One structural problem found by :meth:`Plan.structural_issues`."""

    kind: str                 # arity | duplicate | dangling | cycle
    node: PlanNode | None
    message: str
