"""Plan-level distribution rewrite: one logical plan -> N shard-local plans
plus a host/exchange suffix.

The rewrite decides, statically and deterministically, how each source is
laid out across the cluster and which operators can run *shard-local*
(every shard computes its slice independently) versus *global* (needs data
from every shard).  The result is a :class:`DistributedPlan`: the original
plan annotated with a source distribution, the local/global split, the
**frontier** (the buffers that cross from the shard-local phase into the
global phase), and how the suffix past the frontier runs:

* ``none``     -- the whole plan is shard-local; the host only merges the
  per-shard sink outputs;
* ``exchange`` -- the single frontier buffer is repartitioned device ->
  host -> device on the suffix's group-by key, and the suffix itself runs
  shard-local on the re-partitioned data (TPC-H Q1: the wide
  select+gather intermediate is exchanged on ``(returnflag, linestatus)``
  so sort/arith/aggregate run per device);
* ``host``     -- the frontier is gathered to the host and the suffix is
  evaluated there (TPC-H Q21: only the tiny final count-aggregate + sort
  remain global).

Layout kinds per source:

* **partitioned** by a key tuple -- equal keys land on the same shard
  (hash/range of the key value), so key-matching joins stay local;
* **partitioned** positionally (``key=None``) -- row-aligned with the
  driver table and split by the same row-index sets (the Q1 column
  relations, all keyed by the implicit ``rowid``);
* **replicated** -- small tables copied whole to every shard (build sides
  of broadcast joins: Q21's supplier/nation).

Everything here is pure plan analysis -- no data moves; the cluster
executor (:mod:`repro.cluster`) interprets the result for both the timing
and the functional paths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

from ..errors import PlanError
from .plan import OpType, Plan, PlanNode, derive, source_node

#: sources no bigger than this fraction of the driver are replicated
REPLICATE_FRACTION = 0.125
#: below this many estimated frontier bytes an exchange is not worth its
#: staging round trip and the suffix runs on the host instead
EXCHANGE_MIN_BYTES = 1 << 20
#: rows a shard's streaming pre-aggregation combiner accumulates before
#: flushing a block of partial states to the exchange -- bounds on-device
#: combiner state and lets state blocks overlap the rest of the shard's
#: compute (the per-shard flush count is ``ceil(shard_rows / this)``, so
#: per-device exchange volume *shrinks* as shards shrink)
PREAGG_FLUSH_ROWS = 1 << 18
#: aggregate functions with a decomposable (partial, combine) split
_DECOMPOSABLE_AGGS = frozenset({"sum", "mean", "count", "min", "max"})
#: decomposable functions whose combine is also *bit-exact* (integer or
#: order-insensitive); float sums/means re-associate under partial
#: aggregation, so the functional path only pre-aggregates these
_EXACT_AGGS = frozenset({"count", "min", "max"})
#: per-aggregate partial-state bytes beyond the output column: mean
#: carries (sum, count) instead of one float
_EXTRA_STATE_BYTES = {"mean": 8}
#: how each decomposable aggregate's partial states re-reduce
_COMBINE_FUNC = {"count": "sum", "sum": "sum", "min": "min",
                 "max": "max", "mean": "mean"}

_JOIN_OPS = (OpType.JOIN, OpType.SEMI_JOIN, OpType.ANTI_JOIN,
             OpType.LEFT_JOIN)


def _probe_key(on) -> "str | None":
    """Probe-side join-key name from an ``on`` param (str or pair)."""
    if isinstance(on, tuple):
        return on[0]
    return on

#: a distribution is one of
#:   ("replicated",)          -- identical everywhere
#:   ("partitioned", key)     -- key: tuple[str, ...] | None (positional)
#:   None                     -- global (not shard-local)
Dist = "tuple | None"


@dataclass(frozen=True)
class SourceDist:
    """How one source table is laid out across the shards."""

    name: str
    kind: str                        # "partitioned" | "replicated" | "global"
    key: tuple[str, ...] | None      # partition key; None = positional
    rows: int


@dataclass(frozen=True)
class ExchangeSpec:
    """The shuffle the ``exchange`` suffix mode performs."""

    buffer: str                      # frontier node being repartitioned
    key: tuple[str, ...]             # repartition key (suffix group-by)
    row_nbytes: int
    est_rows: int
    #: distinct key-group estimate of the keyed suffix aggregate; the
    #: executor routes group ids to destinations with the same hash the
    #: functional repartition uses, so simulated destination sizes track
    #: the real per-destination group counts
    est_groups: int = 1

    @property
    def est_bytes(self) -> int:
        return self.est_rows * self.row_nbytes


@dataclass(frozen=True)
class PreAggSpec:
    """Partial aggregation pushed below the frontier cut.

    The suffix's keyed AGGREGATE splits into ``partial`` (per shard,
    below the cut -- together with the row-local/sort chain feeding it)
    and ``combine`` (above the cut), so shards exchange blocks of partial
    aggregate *states* instead of raw frontier rows.  A streaming
    combiner flushes one state block per :data:`PREAGG_FLUSH_ROWS` input
    rows, so a shard's outbound exchange volume is proportional to its
    row count and *decreases* as devices are added.
    """

    agg: str                         # the suffix AGGREGATE being split
    group_by: tuple[str, ...]
    est_groups: int
    state_row_nbytes: int
    #: partial -> combine is bit-exact (count/min/max); float sums and
    #: means re-associate, so when False the functional referee keeps the
    #: raw whole-group exchange and only the timing path prices states
    exact: bool
    #: suffix chain nodes lowered below the cut along with the partial
    lowered: tuple[str, ...] = ()

    @property
    def state_block_nbytes(self) -> int:
        """Bytes of one flush block (every group has a slot)."""
        return self.est_groups * self.state_row_nbytes

    def flushes(self, shard_rows: int | float) -> int:
        """State blocks a shard of `shard_rows` frontier rows emits."""
        return max(1, -(-int(shard_rows) // PREAGG_FLUSH_ROWS))


@dataclass(frozen=True)
class PlanSplit:
    """The distribution decisions no shard count, scheme or seed changes:
    the driver, the local/global split and how the suffix runs.  Every
    field is a name or a frozen spec, so a plan can keep its split
    (:meth:`Plan.memo`) without a reference back to itself."""

    driver: str
    partition_key: tuple[str, ...] | None
    sources: tuple[SourceDist, ...]
    local_names: frozenset[str]
    frontier: tuple[str, ...]        # non-source locals feeding globals
    suffix_sources: tuple[str, ...]  # sources read directly by the suffix
    suffix_mode: str                 # "none" | "exchange" | "host"
    exchange: ExchangeSpec | None
    notes: tuple[str, ...] = ()
    #: partial aggregation below the cut (None = raw frontier crosses)
    preagg: PreAggSpec | None = None
    #: how per-device partials reach the host: "flat" (serial host
    #: gather) or "tree" (pairwise device-level merge rounds, host
    #: touches only the root)
    merge: str = "flat"


@dataclass(frozen=True, kw_only=True)
class DistributedPlan(PlanSplit):
    """A plan plus its cluster distribution decisions (see module doc):
    its :class:`PlanSplit`, resharded over `num_shards`."""

    plan: Plan
    num_shards: int
    scheme: str                      # "hash" | "range" | "rr"
    seed: int
    driver_shard_rows: tuple[int, ...]

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.plan.name}@x{self.num_shards}"

    def node(self, name: str) -> PlanNode:
        return _node(self.plan, name)

    def source_dist(self, name: str) -> SourceDist:
        for s in self.sources:
            if s.name == name:
                return s
        raise PlanError(f"no source {name!r} in plan {self.plan.name!r}")

    @property
    def global_names(self) -> frozenset[str]:
        return frozenset(n.name for n in self.plan.nodes
                         if n.name not in self.local_names)

    def local_sinks(self) -> tuple[str, ...]:
        """Shard-local nodes that are sinks of the *full* plan (their
        per-shard outputs are merged directly on the host)."""
        return tuple(n.name for n in self.plan.sinks()
                     if n.name in self.local_names
                     and n.op is not OpType.SOURCE)

    # -- the cluster phase program -------------------------------------
    def phases(self, states: bool) -> "Phases":
        """What runs before the cut, what crosses it and what runs past
        it: partial-aggregate states when `states` (needs :attr:`preagg`),
        else the raw frontier."""
        return Phases(self, states)

    def shard_rows(self, local: Plan, shard: int) -> dict[str, int]:
        """Row counts of shard `shard`'s slice of each source of the
        shard-local plan `local`: replicated sources keep every row, the
        others split by :func:`~repro.cluster.partition.even_counts`
        (which gives the remainder rows to the lowest shards)."""
        from ..cluster.partition import even_counts
        needed = {s.name for s in local.sources()}
        return {src.name: (src.rows if src.kind == "replicated"
                           else even_counts(src.rows, self.num_shards)[shard])
                for src in self.sources if src.name in needed}

    # -- subplan extraction --------------------------------------------
    def local_plan(self) -> Plan:
        """The shard-local subplan every shard runs (frontier nodes and
        local sinks are its sinks)."""
        return derive(f"{self.plan.name}.local", self._local_nodes())

    def _local_nodes(self) -> list[PlanNode]:
        """The frontier nodes, the local sinks and every node they read,
        in topological order."""
        byname = {n.name: n for n in self.plan.nodes}
        needed: set[str] = set(self.frontier) | set(self.local_sinks())
        stack = list(needed)
        while stack:
            node = byname[stack.pop()]
            for inp in node.inputs:
                if inp.name not in needed:
                    needed.add(inp.name)
                    stack.append(inp.name)
        return [n for n in self.plan.topological() if n.name in needed]

    def suffix_plan(self) -> Plan:
        """The global subplan past the frontier.  Frontier buffers and
        suffix-read sources become its SOURCE nodes (same names, so the
        interpreter binds merged frontier relations directly)."""
        from ..core.opmodels import out_row_nbytes
        read: dict[PlanNode, PlanNode] = {}
        for name in self.frontier:
            node = self.node(name)
            read[node] = source_node(name, row_nbytes=out_row_nbytes(node))
        for name in self.suffix_sources:
            node = self.node(name)
            read[node] = source_node(name, row_nbytes=out_row_nbytes(node),
                                     n_rows=node.params.get("n_rows"))
        return derive(f"{self.plan.name}.suffix",
                      [*read.values(), *self._past_nodes()], aliases=read)

    def _past_nodes(self, skip: frozenset[str] = frozenset()):
        """Global non-source nodes not in `skip`, in topological order."""
        return (n for n in self.plan.topological()
                if n.name not in self.local_names
                and n.op is not OpType.SOURCE and n.name not in skip)

    # -- pre-aggregation subplans --------------------------------------
    def preagg_plan(self) -> Plan:
        """The lowered shard-local plan when :attr:`preagg` is set: the
        local prefix, the lowered suffix chain, and the *partial* half of
        the split aggregate (named ``<agg>.partial``).  The frontier
        buffer is consumed on-device, so only state blocks leave."""
        if self.preagg is None:
            raise PlanError(f"plan {self.plan.name!r} has no pre-agg")
        agg = self.node(self.preagg.agg)
        return derive(f"{self.plan.name}.preagg",
                      [*self._local_nodes(),
                       *(self.node(name) for name in self.preagg.lowered),
                       agg],
                      {agg: {"name": f"{agg.name}.partial"}})

    def combine_plan(self) -> Plan:
        """The global half when :attr:`preagg` is set: a SOURCE of
        partial-state rows (``<agg>.partial``), the combine aggregate
        (under the original aggregate's name, so downstream suffix nodes
        bind unchanged), and whatever follows the aggregate."""
        if self.preagg is None:
            raise PlanError(f"plan {self.plan.name!r} has no pre-agg")
        agg_node = self.node(self.preagg.agg)
        src = source_node(f"{self.preagg.agg}.partial",
                          row_nbytes=self.preagg.state_row_nbytes)
        combine = PlanNode(
            OpType.AGGREGATE, self.preagg.agg, (src,),
            params={"group_by": list(self.preagg.group_by),
                    "aggs": combine_agg_specs(agg_node),
                    "n_groups": agg_node.params.get("n_groups")},
            selectivity=agg_node.selectivity)
        return derive(f"{self.plan.name}.combine",
                      [src, combine, *self._past_nodes(
                          frozenset(self.preagg.lowered) | {self.preagg.agg})],
                      aliases={agg_node: combine})


@dataclass(frozen=True)
class Phases:
    """The cluster phase program of one distribution, shared by the
    timing path, the functional referee, the optimizer's bound and the
    memory check: every shard runs :attr:`local` on its slice, sends
    :attr:`sent` across the cut, and :attr:`past` runs on what arrives
    (per destination in exchange mode, on the host in host mode)."""

    dist: DistributedPlan
    #: partial-aggregate states cross the cut (else raw frontier rows)
    states: bool

    @cached_property
    def local(self) -> Plan:
        return (self.dist.preagg_plan() if self.states
                else self.dist.local_plan())

    @cached_property
    def past(self) -> Plan:
        return (self.dist.combine_plan() if self.states
                else self.dist.suffix_plan())

    @property
    def sent(self) -> tuple[str, ...]:
        """The buffers each shard sends (the past plan's shard-fed
        sources)."""
        return ((f"{self.dist.preagg.agg}.partial",) if self.states
                else self.dist.frontier)

    @property
    def key(self) -> tuple[str, ...]:
        """Exchange mode: the key the sent buffer repartitions on."""
        return (self.dist.preagg.group_by if self.states
                else self.dist.exchange.key)

    @property
    def row_nbytes(self) -> int:
        """Exchange mode: bytes per row of the sent buffer."""
        return (self.dist.preagg.state_row_nbytes if self.states
                else self.dist.exchange.row_nbytes)


def _node(plan: Plan, name: str) -> PlanNode:
    for n in plan.nodes:
        if n.name == name:
            return n
    raise PlanError(f"no node {name!r} in plan {plan.name!r}")


def combine_agg_specs(agg_node: PlanNode) -> dict:
    """The combine half of a decomposable aggregate's (partial, combine)
    split: partial states combine field-wise -- counts and sums add,
    min/max re-reduce.  Mean-of-means only appears on the timing path
    (``exact=False`` keeps the functional referee on the raw exchange)."""
    from ..ra.arithmetic import AggSpec
    return {name: AggSpec(_COMBINE_FUNC[spec.func], name)
            for name, spec in agg_node.params["aggs"].items()}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _reaches_through_unary(plan: Plan, src: PlanNode, node: PlanNode) -> bool:
    """Is `node` derived from `src` through row-preserving unary ops only?"""
    cur = node
    while cur.op in (OpType.SELECT, OpType.PROJECT, OpType.ARITH):
        cur = cur.inputs[0]
    return cur is src


def _joined_on(plan: Plan, src: PlanNode, key: tuple[str, ...]) -> bool:
    """Does some key-join probe a unary-derived view of `src` on `key`?"""
    if len(key) != 1:
        return False
    for node in plan.nodes:
        if (node.op in _JOIN_OPS
                and _probe_key(node.params.get("on")) == key[0]):
            if any(_reaches_through_unary(plan, src, inp)
                   for inp in node.inputs):
                return True
    return False


def _node_dist(node: PlanNode, ins: list, sort_local: bool = False):
    """Distribution of a non-source node given its inputs' distributions."""
    if any(d is None for d in ins):
        return None
    if all(d == ("replicated",) for d in ins):
        return ("replicated",)
    op = node.op
    if op in (OpType.SELECT, OpType.PROJECT, OpType.ARITH):
        return ins[0]
    if op in _JOIN_OPS:
        left, right = ins
        if left[0] != "partitioned":
            return None                      # replicated probe of a shard
        if right == ("replicated",):
            return left                      # broadcast build side
        lk, rk = left[1], right[1]
        if node.params.get("gather") and lk is None and rk is None:
            return ("partitioned", None)     # row-aligned column gather
        on = node.params.get("on")
        if isinstance(on, tuple):
            # differently-named equi-keys cannot be statically proven
            # co-partitioned (the partitioner hashes by column name)
            return None
        if on is not None and lk is not None and lk == rk and set(lk) == {on}:
            return ("partitioned", lk)       # co-partitioned key join
        return None
    if op is OpType.PRODUCT:
        left, right = ins
        if left[0] == "partitioned" and right == ("replicated",):
            return left
        return None
    if op is OpType.UNION:
        left, right = ins
        if left[0] == "partitioned" and left == right and left[1] is not None:
            return left
        return None                          # replicated arm would duplicate
    if op in (OpType.INTERSECTION, OpType.DIFFERENCE):
        left, right = ins
        if left[0] != "partitioned":
            return None
        if right == ("replicated",):
            return left
        # equal tuples share the key, hence the shard
        if left == right and left[1] is not None:
            return left
        return None
    if op is OpType.AGGREGATE:
        d = ins[0]
        if d[0] != "partitioned" or d[1] is None:
            return None
        group_by = node.params.get("group_by") or []
        return d if set(d[1]) <= set(group_by) else None
    if op is OpType.UNIQUE:
        d = ins[0]
        # duplicates share the key, hence the shard (positional splits
        # scatter duplicates, so those stay global)
        if d[0] == "partitioned" and d[1] is not None:
            return d
        return None
    if op is OpType.SORT:
        d = ins[0]
        if sort_local and d[0] == "partitioned" and d[1] is not None:
            by = node.params.get("by") or []
            if set(d[1]) <= set(by):
                return d                     # whole key-groups per shard
        return None
    return None


def _classify(plan: Plan, driver: PlanNode, key: tuple[str, ...] | None,
              src_rows: dict[str, int]):
    """Per-node distribution map for one candidate partition key
    (`src_rows`: every source's rows)."""
    driver_rows = src_rows[driver.name]
    dist: dict[str, object] = {}
    for src in plan.sources():
        rows = src_rows[src.name]
        if src is driver:
            dist[src.name] = ("partitioned", key)
        elif rows <= REPLICATE_FRACTION * driver_rows:
            dist[src.name] = ("replicated",)
        elif key is None and rows == driver_rows:
            dist[src.name] = ("partitioned", None)
        elif key is not None and _joined_on(plan, src, key):
            dist[src.name] = ("partitioned", key)
        else:
            dist[src.name] = None
    forced_global: set[str] = set()
    while True:
        for node in plan.topological():
            if node.op is OpType.SOURCE:
                continue
            if node.name in forced_global:
                dist[node.name] = None
            else:
                dist[node.name] = _node_dist(
                    node, [dist[i.name] for i in node.inputs])
        # a non-source local feeding both local and global consumers would
        # not be a sink of the local subplan; demote it (and, via the
        # re-classification above, its local consumers) to global
        newly = set()
        for node in plan.nodes:
            if node.op is OpType.SOURCE or dist[node.name] is None:
                continue
            cons = plan.consumers(node)
            if (cons and any(dist[c.name] is None for c in cons)
                    and any(dist[c.name] is not None for c in cons)):
                newly.add(node.name)
        if not newly:
            return dist
        forced_global |= newly


def _candidate_keys(plan: Plan) -> list[tuple[str, ...] | None]:
    """Partition-key candidates: single join keys and single-column
    group-bys, deduped in first-appearance order; positional last."""
    cands: list[tuple[str, ...] | None] = []
    for node in plan.topological():
        if (node.op in _JOIN_OPS and node.params.get("on")
                and not node.params.get("gather")):
            cands.append((_probe_key(node.params["on"]),))
        if node.op is OpType.AGGREGATE:
            group_by = node.params.get("group_by") or []
            if len(group_by) == 1:
                cands.append(tuple(group_by))
    seen: set = set()
    uniq = [c for c in cands if not (c in seen or seen.add(c))]
    uniq.append(None)
    return uniq


# ---------------------------------------------------------------------------
# pre-aggregation detection
# ---------------------------------------------------------------------------

def find_preagg(plan: Plan, split: PlanSplit) -> PreAggSpec | None:
    """A :class:`PreAggSpec` for the suffix of `plan` cut as `split`
    says (a :class:`DistributedPlan` of `plan` is one), or None.

    Pre-aggregation applies when the global suffix reads exactly one
    frontier buffer (no whole-source reads), and the frontier feeds a
    linear chain of row-local ops (SELECT/PROJECT/ARITH) or SORTs ending
    at a keyed AGGREGATE whose functions all decompose into
    (partial, combine).  The chain and the partial half then run below
    the cut, per shard: row-local ops commute with sharding, a sort
    feeding only the aggregate's grouping is order-insensitive to it,
    and the combine re-reduces partial states above the cut.

    Exported for :mod:`repro.analyze.cluster_lints` (CLU406 flags
    hand-built distributions that skip a detectable opportunity).
    """
    from ..core.opmodels import out_row_nbytes
    if split.suffix_mode not in ("exchange", "host"):
        return None
    if len(split.frontier) != 1 or split.suffix_sources:
        return None
    cur = _node(plan, split.frontier[0])
    lowered: list[str] = []
    agg: PlanNode | None = None
    while agg is None:
        nexts = [c for c in plan.consumers(cur)
                 if c.name not in split.local_names]
        if len(nexts) != 1 or len(nexts[0].inputs) != 1:
            return None
        cur = nexts[0]
        if cur.op is OpType.AGGREGATE:
            agg = cur
        elif cur.op in (OpType.SELECT, OpType.PROJECT, OpType.ARITH,
                        OpType.SORT):
            lowered.append(cur.name)
        else:
            return None
    group_by = tuple(agg.params.get("group_by") or ())
    aggs = agg.params.get("aggs") or {}
    if not group_by or not aggs:
        return None
    funcs = [spec.func for spec in aggs.values()]
    if any(f not in _DECOMPOSABLE_AGGS for f in funcs):
        return None
    n_groups = agg.params.get("n_groups")
    if n_groups is None:
        from ..runtime.sizes import estimate_sizes
        rows = {s.name: s.rows for s in split.sources}
        n_groups = int(estimate_sizes(plan, rows).get(agg.name, 1))
    state_row = (out_row_nbytes(agg)
                 + sum(_EXTRA_STATE_BYTES.get(f, 0) for f in funcs))
    return PreAggSpec(
        agg=agg.name, group_by=group_by, est_groups=max(1, int(n_groups)),
        state_row_nbytes=int(state_row),
        exact=all(f in _EXACT_AGGS for f in funcs),
        lowered=tuple(lowered))


# ---------------------------------------------------------------------------
# the rewrite
# ---------------------------------------------------------------------------

def distribute_plan(plan: Plan, source_rows: dict[str, int], num_shards: int,
                    scheme: str = "hash", seed: int = 0,
                    preagg: bool = True, merge: str | None = None
                    ) -> DistributedPlan:
    """Distribute `plan` over `num_shards` shards (see module docstring).

    Deterministic: the chosen driver, partition key, local/global split
    and suffix mode are pure functions of the plan shape, the row counts,
    and the arguments.  ``preagg=False`` disables the partial-aggregation
    lowering (:func:`find_preagg`); ``merge`` overrides the host-merge
    strategy ("flat"/"tree", default: tree whenever pre-agg applies).

    None of those decisions reads `num_shards`, `scheme` or `seed`: the
    plan keeps its :class:`PlanSplit` per (rows of its own sources,
    `preagg`, `merge`) in :meth:`Plan.memo`, and each call only reshards
    it.
    """
    plan.validate()
    if num_shards < 1:
        raise PlanError(f"num_shards must be >= 1, got {num_shards}")
    if scheme not in ("hash", "range", "rr"):
        raise PlanError(f"unknown partition scheme {scheme!r}")
    from ..cluster.partition import even_counts
    from ..runtime.sizes import source_node_rows

    sources = plan.sources()
    if not sources:
        raise PlanError(f"plan {plan.name!r} has no sources")
    rows = tuple(source_node_rows(s, source_rows) for s in sources)
    split = plan.memo(_split, rows, preagg, merge)
    driver_rows = next(s.rows for s in split.sources if s.name == split.driver)
    return DistributedPlan(
        plan=plan, num_shards=num_shards, scheme=scheme, seed=seed,
        driver_shard_rows=tuple(even_counts(driver_rows, num_shards)),
        **vars(split))


def _split(plan: Plan, rows: tuple[int, ...], preagg: bool,
           merge: str | None) -> PlanSplit:
    """The :class:`PlanSplit` of `plan` when its sources hold `rows` (in
    ``plan.sources()`` order)."""
    from ..core.opmodels import out_row_nbytes
    sources = plan.sources()
    src_rows = dict(zip((s.name for s in sources), rows))
    driver = max(sources, key=lambda s: src_rows[s.name] * out_row_nbytes(s))

    best_key: tuple[str, ...] | None = None
    best_dist: dict | None = None
    best_score = -1
    for key in _candidate_keys(plan):
        dist = _classify(plan, driver, key, src_rows)
        score = sum(1 for n in plan.nodes
                    if n.op is not OpType.SOURCE and dist[n.name] is not None)
        if score > best_score:
            best_key, best_dist, best_score = key, dist, score
    dist = best_dist or {}

    local_names = frozenset(n for n, d in dist.items() if d is not None)
    notes: list[str] = []
    source_dists = []
    for src in sources:
        d = dist[src.name]
        if d is None:
            kind, skey = "global", None
            notes.append(f"source {src.name} read whole by the suffix")
        elif d == ("replicated",):
            kind, skey = "replicated", None
        else:
            kind, skey = "partitioned", d[1]
        source_dists.append(SourceDist(
            src.name, kind, skey, src_rows[src.name]))

    frontier: list[str] = []
    suffix_sources: list[str] = []
    for node in plan.topological():
        if dist[node.name] is None:
            if node.op is OpType.SOURCE:
                suffix_sources.append(node.name)
            continue
        cons = plan.consumers(node)
        if not any(dist[c.name] is None for c in cons):
            continue
        if node.op is OpType.SOURCE:
            # the host owns every source; the suffix reads it directly
            # rather than gathering shard slices back
            suffix_sources.append(node.name)
        else:
            frontier.append(node.name)

    has_global = any(dist[n.name] is None for n in plan.nodes)
    exchange: ExchangeSpec | None = None
    if not has_global:
        suffix_mode = "none"
    else:
        suffix_mode = "host"
        if len(frontier) == 1 and not suffix_sources:
            fname = frontier[0]
            fnode = _node(plan, fname)
            exchange = _try_exchange(plan, dist, fnode, src_rows)
            if exchange is not None:
                suffix_mode = "exchange"
                notes.append(
                    f"exchange {fname} on {'/'.join(exchange.key)} "
                    f"(~{exchange.est_bytes >> 20} MiB)")

    if merge is not None and merge not in ("flat", "tree"):
        raise PlanError(f"unknown merge strategy {merge!r}")
    split = PlanSplit(
        driver=driver.name, partition_key=best_key,
        sources=tuple(source_dists), local_names=local_names,
        frontier=tuple(frontier), suffix_sources=tuple(suffix_sources),
        suffix_mode=suffix_mode, exchange=exchange,
        notes=tuple(notes), merge=merge or "flat")
    if preagg:
        spec = find_preagg(plan, split)
        if spec is not None:
            split = dataclasses.replace(
                split, preagg=spec, merge=merge or "tree",
                notes=split.notes + (
                    f"pre-aggregate {spec.agg} below the cut "
                    f"({'exact' if spec.exact else 'timing-only'}; "
                    f"~{spec.est_groups} groups x "
                    f"{spec.state_row_nbytes} B states); "
                    f"{merge or 'tree'} merge",))
    return split


def _try_exchange(plan: Plan, dist: dict, fnode: PlanNode,
                  source_rows: dict[str, int]) -> ExchangeSpec | None:
    """Can the suffix past `fnode` run shard-local after repartitioning
    `fnode`'s buffer on the suffix's group-by key?

    Requirements (each guards byte-identity of the merged result, see
    docs/CLUSTER.md):

    * repartition key = group-by of the first suffix aggregate, so whole
      groups land on one destination;
    * every suffix node classifies shard-local under that partitioning
      (sorts may stay local when the partition key is a prefix-set of the
      sort key -- groups are then per-shard units);
    * every suffix sink is an AGGREGATE whose group-by contains the key,
      so the host merge is a disjoint-group sorted concat (exact);
    * the buffer is big enough to pay for the staging round trip.
    """
    from ..core.opmodels import out_row_nbytes
    from ..runtime.sizes import estimate_sizes
    suffix_nodes = [n for n in plan.topological()
                    if dist[n.name] is None and n.op is not OpType.SOURCE]
    key: tuple[str, ...] | None = None
    key_agg: PlanNode | None = None
    for node in suffix_nodes:
        if node.op is OpType.AGGREGATE:
            group_by = node.params.get("group_by") or []
            if group_by:
                key = tuple(group_by)
                key_agg = node
            break
    if key is None:
        return None
    sim: dict[str, object] = {fnode.name: ("partitioned", key)}
    for node in suffix_nodes:
        ins = []
        for inp in node.inputs:
            if inp.name not in sim:
                return None              # a second external input
            ins.append(sim[inp.name])
        d = _node_dist(node, ins, sort_local=True)
        if d is None:
            return None
        sim[node.name] = d
    for node in plan.sinks():
        if dist[node.name] is not None:
            continue
        if node.op is not OpType.AGGREGATE:
            return None
        if not set(key) <= set(node.params.get("group_by") or []):
            return None
    est = estimate_sizes(plan, source_rows)
    row_bytes = out_row_nbytes(fnode)
    est_rows = int(est.get(fnode.name, 0))
    if est_rows * row_bytes < EXCHANGE_MIN_BYTES:
        return None
    est_groups = key_agg.params.get("n_groups")
    if est_groups is None:
        est_groups = int(est.get(key_agg.name, 1))
    return ExchangeSpec(buffer=fnode.name, key=key, row_nbytes=row_bytes,
                        est_rows=est_rows, est_groups=max(1, int(est_groups)))
