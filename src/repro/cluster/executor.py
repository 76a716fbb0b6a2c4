"""The ClusterExecutor: N simulated devices, one query.

Both paths walk one phase program,
:meth:`DistributedPlan.phases <repro.plans.distribute.DistributedPlan.phases>`:
every shard runs its local plan on its slice of the sources
(:meth:`~repro.plans.distribute.DistributedPlan.shard_rows` on the timing
path), sends a buffer across the cut, and the plan past the cut runs on
what arrives.  When the distribution carries a
:class:`~repro.plans.distribute.PreAggSpec`, the local plan is the
*lowered* one (suffix chain + partial aggregate below the cut), so what
crosses the exchange is blocks of partial aggregate states, not raw
frontier rows, and the plan past the cut is the combine -- per-device
exchange volume then *shrinks* as devices are added
(``ceil(shard_rows / PREAGG_FLUSH_ROWS)`` state blocks each).

Timing path (``run``): the plan is distributed
(:func:`repro.plans.distribute.distribute_plan`), and each shard's local
plan runs through the existing single-device
:class:`~repro.runtime.executor.Executor` (so fusion, fission, chunking,
the degradation ladder, and fault injection all apply unchanged) on a
:func:`~repro.cluster.host.contended_device` whose staging throughput is
capped at its share of host DRAM bandwidth.  Shards with equal slices
of one program give equal runs, so a run simulates each distinct
(program, row map) once and copies it into every lane that runs it --
except under a fault injector, whose draws happen once per shard.

The exchange itself is **pipelined**, not barrier-then-shuffle: each
shard's outbound buffer is cut into chunks (flush blocks under pre-agg,
:data:`~repro.cluster.exchange.EXCHANGE_CHUNK_ROWS`-row chunks of the raw
frontier otherwise) that become available *during* the shard's local run,
and the host lane stages them greedily in availability order (events
``cluster.exchange.s<shard>.c<k>``).  Transfers therefore overlap shard
compute; a destination's suffix starts as soon as its last inbound chunk
lands and its device is free -- not at a global barrier.  Destination
sizing routes key-group ids through the same hash the functional
repartition uses, so simulated destination sizes track the real
per-destination group counts.

The final merge is **hierarchical** when ``dist.merge == "tree"``:
device-level pairwise merge rounds (host-lane coordination events
``cluster.merge.round<r>``; pairs move in parallel, so a round costs its
largest sender) and the host ingests only the root -- one
``cluster.merge`` event -- instead of serially gathering every
per-device buffer.  Conservation still holds by construction: the bytes
the host stages per chunk are exactly the bytes the flush/chunk model
says each shard sends, and each destination's suffix re-uploads its
routed share of them.

``num_devices == 1`` bypasses all of this: no partitioning, no exchange,
no host merge -- the run is the plain single-device Executor on the
original plan, byte- and time-identical to :func:`single_device_makespan`
(so ``speedup_vs_1`` measures scaling, not partitioning overhead).

Fault path: before each phase every device is probed at site
``device.<k>`` (and ``device.<k>.suffix``) for
:attr:`~repro.faults.FaultKind.DEVICE_LOSS`.  A lost device's shards are
re-executed on the least-loaded surviving device -- the rung above the
per-device :func:`repro.faults.ladder` -- and marked ``recovered``.  Destinations are fixed when the exchange
starts, so a device lost at the suffix probe has its *slot* recovered on
a survivor too.  Results are unaffected: the functional path below is
loss-agnostic by construction.

Functional path (``functional``): real relations are partitioned with the
same deterministic partitioner, the local plan is interpreted per shard,
and what the shards send is repartitioned and merged by the rules of
:mod:`repro.cluster.exchange` (which give the same bytes under the tree
and the flat merge), then the plan past the cut is interpreted per
destination (exchange) or on the host (host mode).  States cross the cut
only when the partial/combine split is bit-exact.  The result is
byte-identical to :func:`repro.plans.interp.evaluate_sinks` on the
unsharded inputs -- asserted by the cluster test suite for TPC-H Q1/Q21.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..cpubase.select import cpu_select_time, host_plan_time
from ..faults import FaultInjector, FaultPlan, as_injector
from ..plans.distribute import DistributedPlan, distribute_plan
from ..plans.interp import evaluate
from ..plans.plan import OpType, Plan
from ..ra.relation import Relation
from ..runtime.executor import Executor, RunResult
from ..runtime.sizes import PlanShape, node_bytes
from ..runtime.strategies import ExecutionConfig, Strategy
from ..simgpu.calibration import CpuCalibration
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import EventKind, Timeline
from . import exchange as xchg
from .host import ClusterSpec, contended_device
from .partition import Partitioner, hash_shard, parse_scheme, range_boundaries


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one cluster run (all deterministic)."""

    num_devices: int = 4
    scheme: str = "hash"                 # hash | range | rr
    seed: int = 0
    #: per-shard single-device strategy (fusion + fission by default --
    #: the paper's best single-device pipeline, now one per device)
    strategy: Strategy = Strategy.FUSED_FISSION
    check: bool = False
    #: static memory-safety pre-flight (:mod:`repro.analyze`): vet the
    #: shard-local phase and exchange-volume bounds before any device
    #: runs; a certain-OOM verdict (MEM701) raises AnalysisError
    analyze: bool = False
    #: chaos plan shared across devices (one budget for the whole run);
    #: devices are additionally probed for DEVICE_LOSS at ``device.<k>``
    faults: FaultPlan | None = None
    #: devices assumed concurrently active on the host's PCIe complex;
    #: None -> num_devices (worst case)
    pcie_sharers: int | None = None
    #: lower partial aggregation below the exchange cut when the suffix
    #: decomposes (:func:`repro.plans.distribute.find_preagg`)
    preagg: bool = True
    #: host-merge strategy override ("flat"/"tree"); None lets the
    #: rewrite pick (tree whenever pre-aggregation applies)
    merge: str | None = None


@dataclass(frozen=True)
class ShardRun:
    """Bookkeeping for one Executor run inside the cluster schedule."""

    shard: int
    device: int
    phase: str                           # "local" | "suffix"
    start: float
    makespan: float
    h2d_bytes: float
    d2h_bytes: float
    output_bytes: float
    degraded_to: str | None
    #: True when this shard ran on a survivor because its home device
    #: was lost (cluster-ladder re-execution)
    recovered: bool = False


@dataclass
class ClusterRunResult:
    """Timing result of one cluster execution."""

    config: ClusterConfig
    dist: DistributedPlan
    device_timelines: dict[int, Timeline]
    host_timeline: Timeline
    makespan: float
    shard_runs: list[ShardRun]
    lost_devices: tuple[int, ...]
    exchange_out_bytes: float
    exchange_in_bytes: float
    merge_bytes: float
    #: largest single device's outbound exchange volume -- the
    #: scaling-relevant number (total conserved bytes stay in
    #: ``exchange_out_bytes``); under pre-aggregation this *decreases*
    #: as devices are added
    exchange_out_per_device: float = 0.0
    faults_injected: int = 0
    retries: int = 0
    reissues: int = 0
    notes: tuple[str, ...] = ()

    @property
    def recovered_shards(self) -> int:
        return sum(1 for r in self.shard_runs if r.recovered)

    def merged_timeline(self) -> Timeline:
        """Every device lane plus the host lane on one clock."""
        merged = Timeline()
        for tl in self.device_timelines.values():
            merged.extend(tl)
        merged.extend(self.host_timeline)
        return merged

    def trace_lanes(self) -> list[tuple[str, Timeline]]:
        """Lanes for :func:`repro.simgpu.trace.write_cluster_trace`: one
        per device, then the cluster host."""
        lanes = [(f"device {dev_id}", self.device_timelines[dev_id])
                 for dev_id in sorted(self.device_timelines)]
        lanes.append(("cluster host", self.host_timeline))
        return lanes

    def summary(self) -> dict:
        """Flat, deterministically-rounded metrics (CI byte-compares the
        sorted-key JSON dump of this across reruns)."""
        out: dict[str, object] = {
            "cluster.devices": self.config.num_devices,
            "cluster.scheme": self.config.scheme,
            "cluster.seed": self.config.seed,
            "cluster.strategy": self.config.strategy.value,
            "cluster.partition_key": "/".join(self.dist.partition_key or ())
                                     or "positional",
            "cluster.suffix_mode": self.dist.suffix_mode,
            "cluster.merge_strategy": self.dist.merge,
            "cluster.preagg": int(self.dist.preagg is not None),
            "cluster.makespan_s": round(self.makespan, 9),
            "cluster.lost_devices": list(self.lost_devices),
            "cluster.recovered_shards": self.recovered_shards,
            "exchange.out_bytes": round(self.exchange_out_bytes, 3),
            "exchange.in_bytes": round(self.exchange_in_bytes, 3),
            "exchange.out_bytes_per_device": round(
                self.exchange_out_per_device, 3),
            "merge.bytes": round(self.merge_bytes, 3),
            "faults.injected": self.faults_injected,
            "faults.retries": self.retries,
            "faults.reissues": self.reissues,
        }
        for dev_id in sorted(self.device_timelines):
            tl = self.device_timelines[dev_id]
            runs = [r for r in self.shard_runs if r.device == dev_id]
            out[f"device.{dev_id}.end_s"] = round(tl.end_time, 9)
            out[f"device.{dev_id}.busy_s"] = round(
                tl.busy_time(EventKind.KERNEL), 9)
            out[f"device.{dev_id}.shards"] = len(
                {r.shard for r in runs if r.phase == "local"})
            out[f"device.{dev_id}.h2d_bytes"] = round(
                sum(r.h2d_bytes for r in runs), 3)
            out[f"device.{dev_id}.d2h_bytes"] = round(
                sum(r.d2h_bytes for r in runs), 3)
            out[f"device.{dev_id}.lost"] = int(dev_id in self.lost_devices)
        return out


def _phase_bytes(timeline: Timeline) -> tuple[float, float, float]:
    """(h2d, d2h, output-d2h) bytes of one Executor timeline, excluding
    injected-fault events and intermediate round trips."""
    h2d = d2h = out = 0.0
    for ev in timeline.events:
        if ev.tag.startswith("fault."):
            continue
        if ev.kind is EventKind.H2D and not ev.tag.startswith("roundtrip"):
            h2d += ev.nbytes
        elif ev.kind is EventKind.D2H and not ev.tag.startswith("roundtrip"):
            d2h += ev.nbytes
            if ev.tag.startswith(("output", "d2h.seg")):
                out += ev.nbytes
    return h2d, d2h, out


def host_suffix_time(dist: DistributedPlan, states: bool,
                     sizes: Mapping[str, int], cpu: CpuCalibration) -> float:
    """Seconds the host interpreter spends past the cut in host mode:
    :func:`~repro.cpubase.select.host_plan_time` over every node not in
    ``dist.local_names``.  When partial-aggregate `states` cross the cut,
    the lowered suffix chain and the split aggregate ran on the shards,
    so they are skipped.  The sizes alone fix this term, so the run's
    ``cluster.merge`` event and the optimizer's bound
    (``Optimizer._source_bound``) price it by this one function."""
    skip = dist.local_names
    if states:
        skip = skip | set(dist.preagg.lowered) | {dist.preagg.agg}
    return host_plan_time(
        (n for n in dist.plan.nodes if n.name not in skip), sizes, cpu)


class ClusterExecutor:
    """Runs distributed plans over N simulated devices (see module doc)."""

    def __init__(self, base_device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 config: ClusterConfig = ClusterConfig()):
        self.base_device = base_device or DeviceSpec()
        self.costs = costs
        self.config = config
        self.spec = ClusterSpec(
            num_devices=config.num_devices, base=self.base_device,
            pcie_sharers=config.pcie_sharers)
        self.device = contended_device(self.base_device, self.spec.sharers)

    # ------------------------------------------------------------------
    def distribute(self, plan: Plan,
                   source_rows: dict[str, int]) -> DistributedPlan:
        """The distribution rewrite this executor's runs use.  The plan
        keeps the split no device count changes, so the optimizer's
        enumeration, its bound on a cluster option and the run that
        confirms it share one split per pre-aggregation flag."""
        cfg = self.config
        return distribute_plan(
            plan, source_rows, cfg.num_devices,
            scheme=cfg.scheme, seed=cfg.seed,
            preagg=cfg.preagg, merge=cfg.merge)

    def _as_dist(self, plan, source_rows) -> DistributedPlan:
        if isinstance(plan, DistributedPlan):
            return plan
        if isinstance(plan, PlanShape):
            plan = plan.plan
        return self.distribute(plan, source_rows)

    # ------------------------------------------------------------------
    # timing path
    # ------------------------------------------------------------------
    def run(self, plan: "Plan | PlanShape | DistributedPlan",
            source_rows: dict[str, int]) -> ClusterRunResult:
        """Time `plan` on the cluster; a :class:`PlanShape` shares the
        whole plan's sizes with the caller."""
        cfg = self.config
        dist = self._as_dist(plan, source_rows)
        shape = plan if isinstance(plan, PlanShape) else PlanShape(dist.plan)
        if cfg.analyze:
            self._memory_preflight(dist, source_rows)
        n = cfg.num_devices
        injector = as_injector(cfg.faults)
        notes: list[str] = list(dist.notes)

        if n == 1:
            return self._run_single(dist, shape, source_rows, injector,
                                    notes)

        # -- device-loss probes (phase 1) -------------------------------
        lost: set[int] = set()
        if injector is not None:
            for dev_id in range(n):
                if injector.device_loss(f"device.{dev_id}"):
                    lost.add(dev_id)
        if len(lost) == n:
            # a cluster with zero devices cannot answer; the lowest slot
            # survives (mirrors the retry-absorbs-first-hit OOM rule)
            lost.discard(0)
            notes.append("all devices probed lost; device 0 retained")
        alive = [d for d in range(n) if d not in lost]

        timelines: dict[int, Timeline] = {d: Timeline() for d in range(n)}
        host_tl = Timeline()
        clock: dict[int, float] = {d: 0.0 for d in range(n)}
        shard_runs: list[ShardRun] = []
        detect_s = (cfg.faults.retry.backoff(1)
                    if cfg.faults is not None else 0.0)
        for dev_id in sorted(lost):
            timelines[dev_id].add(0.0, detect_s, EventKind.HOST,
                                  f"fault.device_loss.device.{dev_id}")

        # -- phase 1: shard-local plans ---------------------------------
        phases = dist.phases(states=dist.preagg is not None)
        local = phases.local
        has_local = any(nd.op is not OpType.SOURCE for nd in local.nodes)
        # every shard runs the same local plan: size and fuse it once
        local_shape = PlanShape(local)
        owner: dict[int, int] = {}
        assigned = {d: 0 for d in alive}
        for shard in range(n):
            if shard in lost:
                dev_id = min(alive, key=lambda d: (assigned[d], d))
            else:
                dev_id = shard
            owner[shard] = dev_id
            assigned[dev_id] += 1

        #: this run's shard simulations, by (program, row map)
        runs: dict = {}
        local_out_total = 0.0
        #: shard -> (start, makespan, output bytes, frontier est rows)
        local_info: dict[int, tuple[float, float, float, float]] = {}
        if has_local:
            for shard in range(n):
                dev_id = owner[shard]
                res, mk, (h2d, d2h, out) = self._shard_run(
                    local_shape, dist.shard_rows(local, shard), injector,
                    runs)
                t0 = clock[dev_id]
                timelines[dev_id].extend(res.timeline, offset=t0)
                local_out_total += out
                clock[dev_id] = t0 + mk
                f_rows = (float(res.sizes.get(dist.frontier[0], 0.0))
                          if dist.frontier else 0.0)
                local_info[shard] = (t0, mk, out, f_rows)
                shard_runs.append(ShardRun(
                    shard=shard, device=dev_id, phase="local", start=t0,
                    makespan=mk, h2d_bytes=h2d,
                    d2h_bytes=d2h, output_bytes=out,
                    degraded_to=res.degraded_to,
                    recovered=shard in lost))
        t_barrier = max([clock[d] for d in alive] + [detect_s])

        # -- phase 2/3: exchange / host suffix / merge ------------------
        exchange_out = exchange_in = merge_bytes = 0.0
        exchange_out_per_device = 0.0
        if dist.suffix_mode == "exchange":
            ex = dist.exchange
            # destinations and key-group routing are fixed when the
            # pipelined exchange starts; the group -> destination map is
            # the same hash the functional repartition applies to the
            # factorized key, so destination sizes track reality
            barrier_alive = list(alive)
            n_dest = len(barrier_alive)
            G = max(1, int(ex.est_groups))
            gcount = np.bincount(
                hash_shard(np.arange(G, dtype=np.int64), n_dest, dist.seed),
                minlength=n_dest).astype(float)

            # outbound chunks: pre-agg state flush blocks, or
            # EXCHANGE_CHUNK_ROWS-row cuts of the raw frontier.  Chunk k
            # of K becomes available (k+1)/K of the way through its
            # shard's local run -- the stream the fission pipeline
            # drains while later rows still compute.
            chunks: list[tuple[float, int, int, float]] = []
            out_per_shard: dict[int, float] = {}
            for shard in range(n):
                t0, mk, out, f_rows = local_info.get(
                    shard, (0.0, 0.0, 0.0, 0.0))
                if phases.states:
                    k_n = dist.preagg.flushes(f_rows)
                    sizes_k = [float(dist.preagg.state_block_nbytes)] * k_n
                else:
                    k_n = max(1, -(-int(f_rows)
                                   // xchg.EXCHANGE_CHUNK_ROWS))
                    sizes_k = [out / k_n] * k_n
                out_per_shard[shard] = float(sum(sizes_k))
                for k, nb in enumerate(sizes_k):
                    chunks.append((t0 + mk * (k + 1) / k_n, shard, k, nb))
            exchange_out = sum(out_per_shard.values())
            exchange_out_per_device = max(out_per_shard.values(),
                                          default=0.0)

            # the host lane stages chunks greedily in availability
            # order; a destination is ready when its last inbound chunk
            # has been staged
            chunks.sort()
            host_clock = 0.0
            dest_ready = [0.0] * n_dest
            dest_in = [0.0] * n_dest
            for avail, shard, k, nb in chunks:
                start = max(host_clock, avail)
                dur = nb / self.costs.host_gather_bw
                host_tl.add(start, start + dur, EventKind.HOST,
                            f"cluster.exchange.s{shard}.c{k}", nbytes=nb)
                host_clock = start + dur
                for d in range(n_dest):
                    share = nb * gcount[d] / G
                    if share > 0.0:
                        dest_in[d] += share
                        dest_ready[d] = host_clock

            # device-loss probes between the phases ("mid-run" losses);
            # destinations are already fixed, so a lost slot is
            # recovered on the least-loaded survivor
            if injector is not None:
                for dev_id in list(alive):
                    if (len(alive) > 1 and injector.device_loss(
                            f"device.{dev_id}.suffix")):
                        lost.add(dev_id)
                        alive.remove(dev_id)
                        timelines[dev_id].add(
                            t_barrier, t_barrier + detect_s, EventKind.HOST,
                            f"fault.device_loss.device.{dev_id}.suffix")

            # every destination runs the same suffix plan
            suffix = PlanShape(phases.past)
            [src_name] = phases.sent
            unit = float(phases.row_nbytes)
            ends: list[float] = []
            slot_out: list[float] = []
            suffix_assigned = {d: 0 for d in alive}
            for slot, home in enumerate(barrier_alive):
                recovered = home not in alive
                if recovered:
                    dev_id = min(alive, key=lambda d: (
                        suffix_assigned[d], clock[d], d))
                else:
                    dev_id = home
                suffix_assigned[dev_id] += 1
                rows_s = int(round(dest_in[slot] / unit))
                if rows_s <= 0:
                    slot_out.append(0.0)
                    shard_runs.append(ShardRun(
                        shard=slot, device=dev_id, phase="suffix",
                        start=dest_ready[slot], makespan=0.0,
                        h2d_bytes=0.0, d2h_bytes=0.0, output_bytes=0.0,
                        degraded_to=None, recovered=recovered))
                    continue
                res, mk, (h2d, d2h, out) = self._shard_run(
                    suffix, {src_name: rows_s}, injector, runs)
                start = max(dest_ready[slot], clock[dev_id])
                if recovered:
                    start = max(start, t_barrier + detect_s)
                timelines[dev_id].extend(res.timeline, offset=start)
                clock[dev_id] = start + mk
                exchange_in += h2d
                slot_out.append(out)
                ends.append(start + mk)
                shard_runs.append(ShardRun(
                    shard=slot, device=dev_id, phase="suffix", start=start,
                    makespan=mk, h2d_bytes=h2d,
                    d2h_bytes=d2h, output_bytes=out,
                    degraded_to=res.degraded_to, recovered=recovered))

            t3 = max(ends) if ends else max(host_clock, t_barrier)
            merge_bytes = sum(slot_out)
            if dist.merge == "tree" and len(slot_out) > 1:
                t3, _ = self._tree_rounds(host_tl, slot_out, t3)
            merge_s = merge_bytes / self.costs.host_gather_bw
            host_tl.add(t3, t3 + merge_s, EventKind.HOST, "cluster.merge",
                        nbytes=merge_bytes)
        elif dist.suffix_mode == "host":
            sizes = shape.sizes(source_rows)
            cpu = self.base_device.calib.cpu
            if phases.states:
                # per-shard partial-state blocks combine pairwise up a
                # device-level tree; the host ingests only the root and
                # runs the combine + post chain there
                cap = float(dist.preagg.state_block_nbytes)
                state_row = float(dist.preagg.state_row_nbytes)
                level = [local_info[s][2] for s in sorted(local_info)]
                t_m = t_barrier
                if dist.merge == "tree" and len(level) > 1:
                    t_m, root_bytes = self._tree_rounds(host_tl, level, t_m,
                                                        cap=cap)
                else:
                    root_bytes = float(sum(level))
                merge_bytes = root_bytes
                suffix_s = root_bytes / self.costs.host_gather_bw
                suffix_s += cpu_select_time(root_bytes / state_row,
                                            int(state_row), calib=cpu)
                suffix_s += host_suffix_time(dist, True, sizes, cpu)
                host_tl.add(t_m, t_m + suffix_s, EventKind.HOST,
                            "cluster.merge", nbytes=root_bytes)
            else:
                # gather the frontier, then interpret the suffix on the
                # host (priced like the cpubase rung: one CPU pass per
                # node)
                gather_bytes = local_out_total
                suffix_s = gather_bytes / self.costs.host_gather_bw
                suffix_s += host_suffix_time(dist, False, sizes, cpu)
                merge_bytes = sum(
                    node_bytes(s, sizes) for s in dist.plan.sinks()
                    if s.name not in dist.local_names)
                host_tl.add(t_barrier, t_barrier + suffix_s,
                            EventKind.HOST, "cluster.merge",
                            nbytes=gather_bytes)
        else:  # fully local: the host only merges per-shard sink outputs
            merge_bytes = local_out_total
            merge_s = merge_bytes / self.costs.host_gather_bw
            host_tl.add(t_barrier, t_barrier + merge_s, EventKind.HOST,
                        "cluster.merge", nbytes=merge_bytes)

        if dist.suffix_mode != "exchange":
            exchange_out_per_device = max(
                (info[2] for info in local_info.values()), default=0.0)

        makespan = max([tl.end_time for tl in timelines.values()]
                       + [host_tl.end_time])
        result = ClusterRunResult(
            config=cfg, dist=dist, device_timelines=timelines,
            host_timeline=host_tl, makespan=makespan, shard_runs=shard_runs,
            lost_devices=tuple(sorted(lost)),
            exchange_out_bytes=exchange_out, exchange_in_bytes=exchange_in,
            merge_bytes=merge_bytes,
            exchange_out_per_device=exchange_out_per_device,
            notes=tuple(notes))
        return self._finish(result, injector)

    # ------------------------------------------------------------------
    def _run_single(self, dist: DistributedPlan, shape: PlanShape,
                    source_rows: dict[str, int],
                    injector: FaultInjector | None,
                    notes: list[str]) -> ClusterRunResult:
        """num_devices == 1: the cluster degenerates to the plain
        single-device Executor on the original plan -- no partitioning,
        no exchange, no host merge -- so makespan and bytes equal
        :func:`single_device_makespan` exactly."""
        cfg = self.config
        if injector is not None and injector.device_loss("device.0"):
            notes.append("sole device probed lost; retained "
                         "(no survivor to recover on)")
        res = self._run_executor(shape, dict(source_rows), injector)
        h2d, d2h, out = _phase_bytes(res.timeline)
        result = ClusterRunResult(
            config=cfg, dist=dist, device_timelines={0: res.timeline},
            host_timeline=Timeline(), makespan=res.timeline.end_time,
            shard_runs=[ShardRun(
                shard=0, device=0, phase="local", start=0.0,
                makespan=res.timeline.end_time, h2d_bytes=h2d,
                d2h_bytes=d2h, output_bytes=out,
                degraded_to=res.degraded_to)],
            lost_devices=(), exchange_out_bytes=0.0, exchange_in_bytes=0.0,
            merge_bytes=0.0, exchange_out_per_device=0.0,
            notes=tuple(notes))
        return self._finish(result, injector)

    def _finish(self, result: ClusterRunResult,
                injector: FaultInjector | None) -> ClusterRunResult:
        """Copy the run's fault counters onto `result` and, under
        ``check``, validate it."""
        if injector is not None:
            result.faults_injected = injector.faults_injected
            result.retries = injector.retries
            result.reissues = injector.reissues
        if self.config.check:
            from ..validate.cluster import validate_cluster
            validate_cluster(result, self.device).raise_if_failed()
        return result

    def _tree_rounds(self, host_tl: Timeline, level: list[float],
                     t0: float, cap: float | None = None
                     ) -> tuple[float, float]:
        """Price pairwise device-level merge rounds onto the host lane
        (coordination events; pairs move in parallel so a round costs its
        largest sender, and a merged pair is capped at `cap` bytes).
        Returns (time the root is ready, root bytes)."""
        r = 0
        level = list(level)
        while len(level) > 1:
            senders = [level[i + 1] for i in range(0, len(level) - 1, 2)]
            nxt = []
            for i in range(0, len(level), 2):
                if i + 1 < len(level):
                    merged = level[i] + level[i + 1]
                    nxt.append(min(merged, cap) if cap is not None
                               else merged)
                else:
                    nxt.append(level[i])
            dur = (max(senders) / self.costs.host_gather_bw
                   if senders else 0.0)
            host_tl.add(t0, t0 + dur, EventKind.HOST,
                        f"cluster.merge.round{r}", nbytes=float(sum(senders)))
            t0 += dur
            level = nxt
            r += 1
        return t0, (float(level[0]) if level else 0.0)

    # ------------------------------------------------------------------
    def _memory_preflight(self, dist: DistributedPlan,
                          source_rows: dict[str, int]) -> None:
        """Refuse certain-OOM dispatch: vet the shard-local phase (on the
        largest shard's slice) and the exchange-volume bounds against the
        contended per-device budget before anything runs."""
        from ..analyze import Analyzer
        from ..analyze.memory_check import MemoryTarget
        target = MemoryTarget(dist, dict(source_rows),
                              strategies=(self.config.strategy,),
                              device=self.device)
        Analyzer(self.device, self.costs).run(target, strict=True)

    def _shard_run(self, shape: PlanShape, rows: dict[str, int],
                   injector: FaultInjector | None, runs: dict
                   ) -> tuple[RunResult, float, tuple[float, float, float]]:
        """One shard's Executor run of `shape` on `rows`, with its
        makespan and :func:`_phase_bytes`.

        Equal slices of one program on one contended device give equal
        runs, so a repeat of a (shape, rows) in `runs` (one cluster
        run's) is answered without simulating it again; callers only read
        the shared result.  A fault injector's draws must happen in
        order, once per shard, so under one every shard runs."""
        key = (shape, tuple(sorted(rows.items())))
        run = runs.get(key) if injector is None else None
        if run is None:
            res = self._run_executor(shape, rows, injector)
            run = runs[key] = (res, res.timeline.end_time,
                               _phase_bytes(res.timeline))
        return run

    def _run_executor(self, plan: "Plan | PlanShape", rows: dict[str, int],
                      injector: FaultInjector | None) -> RunResult:
        ex = Executor(self.device, costs=self.costs, check=self.config.check,
                      faults=injector,
                      degrade=True if injector is not None else None)
        return ex.run(plan, rows,
                      ExecutionConfig(strategy=self.config.strategy))

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def functional(self, plan: "Plan | DistributedPlan",
                   sources: dict[str, Relation]) -> dict[str, Relation]:
        """Distributed evaluation over real relations; byte-identical to
        ``evaluate_sinks(plan, sources)`` (single device) by construction.

        Loss-agnostic: the data path always uses all ``num_shards`` shards
        and destinations; device losses only reroute *where* a shard's
        timing runs, never what it computes.  Merge-agnostic too: the
        tree and flat merges give the same bytes.  When the
        partial/combine split is bit-exact, shards really do send
        partial aggregate states and the combine plan runs on them.
        """
        dist = self._as_dist(
            plan, {name: rel.num_rows for name, rel in sources.items()})
        n = dist.num_shards
        part = Partitioner(n, parse_scheme(dist.scheme), dist.seed)
        if not self._partitionable(dist, sources):
            # partition key missing from the real schema (statically
            # inferred keys are best-effort): fall back to restoring the
            # sources from a positional split -- still exercises the
            # partitioner, trivially byte-identical
            from ..plans.interp import evaluate_sinks
            restored = {}
            for name, rel in sources.items():
                shards, idx = part.split(rel)
                restored[name] = Partitioner.restore(shards, idx)
            return evaluate_sinks(dist.plan, restored)

        parts: dict[str, list[Relation]] = {}
        positional = {s.name for s in dist.sources
                      if s.kind == "partitioned" and s.key is None}
        if positional:
            aligned, _ = part.split_aligned(
                {name: sources[name] for name in positional})
            parts.update(aligned)
        boundaries = None
        if dist.scheme == "range" and dist.partition_key is not None:
            driver_rel = sources[dist.driver]
            boundaries = range_boundaries(
                driver_rel.column(dist.partition_key[0]), n)
        for src in dist.sources:
            if src.kind == "partitioned" and src.key is not None:
                shards, _ = part.split(sources[src.name], key=src.key[0],
                                       boundaries=boundaries)
                parts[src.name] = shards
            elif src.kind == "replicated":
                parts[src.name] = [sources[src.name]] * n

        # the exact partial/combine split really runs on the data path;
        # a non-exact split (float sums re-associate) is timing-only and
        # the referee keeps the raw whole-group exchange
        phases = dist.phases(states=dist.preagg is not None
                             and dist.preagg.exact)
        local = phases.local
        local_sources = {s.name for s in local.sources()}
        shard_results: list[dict[str, Relation]] = []
        for shard in range(n):
            bound = {name: parts[name][shard] for name in local_sources}
            shard_results.append(evaluate(local, bound))

        outputs: dict[str, Relation] = {}
        for name in dist.local_sinks():
            outputs[name] = self._merge_local(dist, name, [
                r[name] for r in shard_results])
        if dist.suffix_mode == "none":
            return outputs

        past = phases.past
        if dist.suffix_mode == "exchange":
            [sent] = phases.sent
            dest_parts = xchg.repartition(
                [r[sent] for r in shard_results], phases.key, n, dist.seed)
            per_dest = [evaluate(past, {sent: dp}) for dp in dest_parts]
            for sink in past.sinks():
                outputs[sink.name] = xchg.merge_group_sorted(
                    [r[sink.name] for r in per_dest],
                    sink.params.get("group_by") or [])
            return outputs

        # host mode: gather what the shards sent, evaluate the rest here
        bound = {name: sources[name] for name in dist.suffix_sources}
        for name in phases.sent:
            parts_f = [r[name] for r in shard_results]
            bound[name] = (parts_f[0] if not phases.states
                           and self._is_replicated(dist, name)
                           else xchg.merge_concat(parts_f))
        res = evaluate(past, bound)
        for sink in past.sinks():
            outputs[sink.name] = res[sink.name]
        return outputs

    # ------------------------------------------------------------------
    def _partitionable(self, dist: DistributedPlan,
                       sources: dict[str, Relation]) -> bool:
        for src in dist.sources:
            if src.kind == "partitioned" and src.key is not None:
                rel = sources.get(src.name)
                if rel is None or any(k not in rel.fields for k in src.key):
                    return False
        return True

    def _is_replicated(self, dist: DistributedPlan, name: str) -> bool:
        """Is a local node's value identical on every shard?  True when
        every source it depends on is replicated."""
        node = dist.node(name)
        stack, seen = [node], set()
        while stack:
            cur = stack.pop()
            if cur.name in seen:
                continue
            seen.add(cur.name)
            if cur.op is OpType.SOURCE:
                if dist.source_dist(cur.name).kind != "replicated":
                    return False
            stack.extend(cur.inputs)
        return True

    def _merge_local(self, dist: DistributedPlan, name: str,
                     parts: list[Relation]) -> Relation:
        if self._is_replicated(dist, name):
            return parts[0]
        node = dist.node(name)
        if node.op is OpType.AGGREGATE:
            return xchg.merge_group_sorted(
                parts, node.params.get("group_by") or [])
        return xchg.merge_concat(parts)


def single_device_makespan(plan: Plan, source_rows: dict[str, int],
                           strategy: Strategy = Strategy.FUSED_FISSION,
                           device: DeviceSpec | None = None) -> float:
    """Reference: the plain single-device Executor on the uncontended
    base device (what `BENCH_cluster.json` reports alongside)."""
    ex = Executor(device or DeviceSpec())
    res = ex.run(plan, source_rows, ExecutionConfig(strategy=strategy))
    return res.makespan
