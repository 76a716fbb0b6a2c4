"""Cluster lints (CLU4xx): distribution checks on sharded plans.

:func:`repro.plans.distribute.distribute_plan` never *produces* an
illegal distribution -- it demotes anything it cannot prove local.  But a
:class:`~repro.plans.distribute.DistributedPlan` is a plain dataclass
that tests, benchmarks, and callers can also assemble by hand, so the
analyzer re-derives the legality and efficiency conditions from the
artifact itself.  CLU401 is the correctness gate for manual
configurations; the rest flag distributions that are legal but wasteful.

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
CLU401    error     local join whose build side is neither replicated
                    nor co-partitioned on the join key
CLU402    warning   skewed shard sizes (max/mean over threshold)
CLU403    warning   exchange shuffles a key the shards are already
                    co-partitioned on
CLU404    warning   replicated source larger than a driver shard
                    (partitioning it would move fewer bytes)
CLU405    info      single-shard cluster (distribution overhead, no
                    parallelism)
CLU406    warning   suffix aggregate decomposes but the distribution
                    skips pre-aggregation: raw frontier rows cross the
                    exchange where partial states would
CLU407    warning   pre-aggregated distribution merges flat on a wide
                    cluster: a pairwise tree merge keeps the host off
                    the serial gather path
========  ========  ====================================================
"""

from __future__ import annotations

from ..core.opmodels import out_row_nbytes
from ..plans.distribute import DistributedPlan, find_preagg
from ..plans.plan import OpType, PlanNode
from .diagnostics import Diagnostic, Severity, SourceLocation

#: CLU402 fires when max(shard rows) / mean(shard rows) reaches this
SKEW_THRESHOLD = 2.0

#: binary ops whose build side (second input) must be replicated or
#: co-partitioned for a keyed shard-local evaluation to be correct
_KEYED_BUILD_OPS = frozenset({
    OpType.JOIN, OpType.SEMI_JOIN, OpType.ANTI_JOIN,
})


class ClusterLintPass:
    """All CLU4xx checks over one
    :class:`~repro.plans.distribute.DistributedPlan`."""

    name = "cluster-lints"
    codes = ("CLU401", "CLU402", "CLU403", "CLU404", "CLU405",
             "CLU406", "CLU407")

    #: CLU407 only pays off once the serial flat gather spans this many
    #: per-device buffers
    TREE_MERGE_MIN_SHARDS = 4

    def run(self, dist: DistributedPlan) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        self._build_sides(dist, diags)
        self._skew(dist, diags)
        self._redundant_exchange(dist, diags)
        self._oversized_replicas(dist, diags)
        self._single_shard(dist, diags)
        self._missed_preagg(dist, diags)
        self._flat_merge(dist, diags)
        return diags

    # -- helpers ---------------------------------------------------------
    def _diag(self, dist: DistributedPlan, code: str, severity: Severity,
              message: str, name: str, kind: str = "node") -> Diagnostic:
        return Diagnostic(
            code=code, severity=severity, message=message,
            location=SourceLocation(dist.name, kind, name),
            pass_name=self.name)

    #: `_dist_of` marker: the node's value is identical on every shard
    _REP = "replicated"

    def _dist_of(self, dist: DistributedPlan, node: PlanNode,
                 memo: dict[str, object]) -> object:
        """`_REP`, a partition-key tuple, or None (unknown/positional).

        A bottom-up re-derivation of the shard layout from the declared
        source layouts: replication is absorbing through any op whose
        inputs are all replicated; a keyed join keeps the probe key when
        the build side is replicated, or the shared key when both sides
        carry it; a keyed aggregation keeps a key it groups by.
        """
        if node.name in memo:
            return memo[node.name]
        memo[node.name] = None           # cycle guard; overwritten below
        if node.op is OpType.SOURCE:
            sd = dist.source_dist(node.name)
            out = self._REP if sd.kind == "replicated" else sd.key
        else:
            ins = [self._dist_of(dist, i, memo) for i in node.inputs]
            if ins and all(d == self._REP for d in ins):
                out = self._REP
            elif (node.op in _KEYED_BUILD_OPS and len(ins) > 1
                    and node.params.get("on") is not None
                    and not node.params.get("gather")):
                on = (node.params["on"],)
                probe, build = ins[0], ins[1]
                if build == self._REP:
                    out = probe
                elif probe == on and build == on:
                    out = on
                else:
                    out = None
            elif node.op is OpType.AGGREGATE:
                key = ins[0] if ins else None
                group_by = set(node.params.get("group_by") or [])
                out = (key if isinstance(key, tuple)
                       and set(key) <= group_by else None)
            elif node.op is OpType.UNION:
                out = ins[0] if len(set(ins)) == 1 else None
            elif len(ins) == 1:
                out = ins[0]             # filters/projections keep layout
            else:
                out = None
        memo[node.name] = out
        return out

    # -- CLU401: illegal build sides -------------------------------------
    def _build_sides(self, dist: DistributedPlan,
                     diags: list[Diagnostic]) -> None:
        memo: dict[str, object] = {}
        for name in sorted(dist.local_names):
            node = dist.node(name)
            if node.op not in _KEYED_BUILD_OPS or len(node.inputs) < 2:
                continue
            if node.params.get("gather"):
                continue                   # row-aligned column gather
            on = node.params.get("on")
            if on is None:
                continue
            probe, build = node.inputs[0], node.inputs[1]
            bd = self._dist_of(dist, build, memo)
            pd = self._dist_of(dist, probe, memo)
            if bd == self._REP:
                continue
            if bd == (on,) and pd == (on,):
                continue
            diags.append(self._diag(
                dist, "CLU401", Severity.ERROR,
                f"local {node.op.value} {name!r} joins on {on!r} but its "
                f"build side {build.name!r} is neither replicated nor "
                f"co-partitioned with the probe side on {on!r}: "
                f"shard-local evaluation drops cross-shard matches", name))

    # -- CLU402: shard skew ----------------------------------------------
    def _skew(self, dist: DistributedPlan,
              diags: list[Diagnostic]) -> None:
        rows = dist.driver_shard_rows
        if not rows or sum(rows) == 0:
            return
        mean = sum(rows) / len(rows)
        ratio = max(rows) / mean
        if ratio >= SKEW_THRESHOLD:
            diags.append(self._diag(
                dist, "CLU402", Severity.WARNING,
                f"driver {dist.driver!r} shard sizes are skewed: "
                f"max/mean = {ratio:.2f} (rows {list(rows)}); the largest "
                f"shard gates the barrier", dist.driver, kind="source"))

    # -- CLU403: redundant exchange --------------------------------------
    def _redundant_exchange(self, dist: DistributedPlan,
                            diags: list[Diagnostic]) -> None:
        ex = dist.exchange
        if ex is None or dist.partition_key is None:
            return
        if tuple(ex.key) == tuple(dist.partition_key):
            diags.append(self._diag(
                dist, "CLU403", Severity.WARNING,
                f"exchange repartitions {ex.buffer!r} on {ex.key} but the "
                f"shards are already co-partitioned on that key: the "
                f"shuffle moves {ex.est_bytes} B for nothing", ex.buffer))

    # -- CLU404: oversized replicas --------------------------------------
    def _oversized_replicas(self, dist: DistributedPlan,
                            diags: list[Diagnostic]) -> None:
        if not dist.driver_shard_rows:
            return
        driver = dist.node(dist.driver)
        shard_bytes = max(dist.driver_shard_rows) * out_row_nbytes(driver)
        for src in dist.sources:
            if src.kind != "replicated":
                continue
            src_bytes = src.rows * out_row_nbytes(dist.node(src.name))
            if src_bytes > shard_bytes:
                diags.append(self._diag(
                    dist, "CLU404", Severity.WARNING,
                    f"replicated source {src.name!r} ({src_bytes} B) is "
                    f"larger than a driver shard ({shard_bytes} B): every "
                    f"device uploads more than its share of the driver",
                    src.name, kind="source"))

    # -- CLU405: single-shard cluster ------------------------------------
    def _single_shard(self, dist: DistributedPlan,
                      diags: list[Diagnostic]) -> None:
        if dist.num_shards == 1:
            diags.append(self._diag(
                dist, "CLU405", Severity.INFO,
                f"cluster of one shard: {dist.name!r} pays distribution "
                f"overhead with no parallelism", dist.plan.name))

    # -- CLU406: missed pre-aggregation ----------------------------------
    def _missed_preagg(self, dist: DistributedPlan,
                       diags: list[Diagnostic]) -> None:
        if dist.preagg is not None or dist.num_shards == 1:
            return
        spec = find_preagg(dist.plan, dist)
        if spec is None:
            return
        moved = (dist.exchange.est_bytes if dist.exchange is not None
                 else None)
        moved_txt = f" ({moved} B of raw rows cross" if moved else " (rows cross"
        diags.append(self._diag(
            dist, "CLU406", Severity.WARNING,
            f"suffix aggregate {spec.agg!r} decomposes "
            f"({'exact' if spec.exact else 'timing-only'}; "
            f"~{spec.est_groups} groups x {spec.state_row_nbytes} B "
            f"states) but the distribution ships the raw frontier"
            f"{moved_txt} the exchange where partial states would)",
            spec.agg))

    # -- CLU407: flat merge on a wide pre-aggregated cluster -------------
    def _flat_merge(self, dist: DistributedPlan,
                    diags: list[Diagnostic]) -> None:
        if (dist.preagg is None or dist.merge != "flat"
                or dist.num_shards < self.TREE_MERGE_MIN_SHARDS):
            return
        diags.append(self._diag(
            dist, "CLU407", Severity.WARNING,
            f"pre-aggregated distribution over {dist.num_shards} shards "
            f"merges flat: the host serially gathers every per-device "
            f"state buffer; a pairwise tree merge touches only the root",
            dist.preagg.agg))
