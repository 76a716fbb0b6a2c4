"""The benchmark's four workloads, driven through the public API only.

A workload names a fixed list of op *keys* (a TPC-H query, or a serve
ladder rate).  One *round* runs every key once, in a seeded shuffled
order; the timed loop runs whole rounds, so every run times the same op
mix.  Each workload separates:

* ``setup(seed)``  -- build the inputs (imports, datagen, catalog compile);
  timed as ``setup_s``;
* ``run(key)``     -- the timed op;
* ``digest(out)``  -- a small, comparable value of an op's output, taken
  outside the timer; every timed op must reproduce the digest of the
  sanitized (``check=True``) warm-up pass;
* ``facts(out)``   -- deterministic simulated-clock facts about an op
  (makespans, busy shares, SLO counts) for the per-layer metrics, which
  ``sim_metrics(facts)`` reduces to the ``sim.*`` ones;
* ``verify(warm)`` -- the reference oracle, run after the timed loop so
  its memory never shows in ``peak_rss_mb``.

Import ``repro`` only inside methods: the child process times its own
imports as part of set-up.
"""

from __future__ import annotations

import math
import time

#: every workload, in BENCHMARK.json's order
NAMES = ("plan-sf1", "plan-sf30-4dev", "exec-sf0.05", "serve-2dev")


def _busy_share(timelines, makespan: float) -> tuple[float, float]:
    """(PCIe, kernel) share of `makespan` during which at least one
    transfer, resp. kernel, is in flight on any of `timelines`."""
    from repro.simgpu.timeline import EventKind, Timeline
    if makespan <= 0:
        return 0.0, 0.0
    events = [ev for tl in timelines for ev in tl.events]
    pcie = Timeline([ev for ev in events
                     if ev.kind in (EventKind.H2D, EventKind.D2H)])
    return (pcie.busy_time() / makespan,
            Timeline(events).busy_time(EventKind.KERNEL) / makespan)


class QueryWorkload:
    """Compile one TPC-H catalog query, then ``Optimizer().run`` it; with
    ``execute`` also ``plans.interp.evaluate`` it over generated data.

    The optimizer is built per op with no PlanCache, so every op prices
    the strategy space analytically, simulates each option to confirm the
    price, and runs the chosen strategy.
    """

    def __init__(self, scale_factor: float, max_devices: int = 1,
                 execute: bool = False, queries: tuple[str, ...] = ()):
        self.scale_factor = scale_factor
        self.max_devices = max_devices
        self.execute = execute
        #: the catalog queries to run; empty for all 22
        self.only = queries
        self.datagen_s = 0.0

    def setup(self, seed: int) -> None:
        from repro.frontend import compile_sql
        from repro.tpch.catalog import (CATALOG, QUERIES, tpch_dataset,
                                        tpch_source_rows)
        self.rows = tpch_source_rows(self.scale_factor)
        self.queries = {q: QUERIES[q] for q in self.only or QUERIES}
        self.tables = None
        if self.execute:
            t0 = time.perf_counter()
            self.tables = tpch_dataset(self.scale_factor, seed)
            self.datagen_s = time.perf_counter() - t0
        # compiling the catalog once proves every query binds before any
        # op is timed; the ops compile again, as a client would
        self.compiled = {q: compile_sql(sql, CATALOG, source_rows=self.rows,
                                        name=q)
                         for q, sql in self.queries.items()}

    def keys(self) -> list[str]:
        return list(self.queries)

    def weight_of(self, key: str) -> int:
        return 1

    def run(self, key: str, check: bool = False):
        from repro.frontend import compile_sql
        from repro.optimizer import Optimizer
        from repro.plans.interp import evaluate
        from repro.tpch.catalog import CATALOG
        compiled = compile_sql(self.queries[key], CATALOG,
                               source_rows=self.rows, name=key)
        result, decision = Optimizer().run(compiled.plan, self.rows,
                                           max_devices=self.max_devices,
                                           check=check)
        out = None
        if self.execute:
            out = evaluate(compiled.plan, self.tables)[compiled.sink.name]
        return result, decision, out

    def digest(self, output) -> tuple:
        result, decision, out = output
        rel = canonical_bytes(out) if out is not None else None
        return decision.chosen.label, result.makespan, rel

    def facts(self, output) -> dict:
        from repro.runtime.strategies import Strategy
        result, decision, _ = output
        serial = next((c.sim_makespan_s for c in decision.candidates
                       if c.option.kind == "single"
                       and c.option.strategy is Strategy.SERIAL), None)
        chosen = decision.chosen.price_s
        timelines = (list(result.device_timelines.values())
                     if hasattr(result, "device_timelines")
                     else [result.timeline])
        pcie, kern = _busy_share(timelines, result.makespan)
        return {
            "sim_ms": result.makespan * 1e3,
            "fusion_speedup": serial / chosen if serial and chosen else None,
            "pruned": sum(1 for c in decision.candidates if not c.feasible
                          and any(n.startswith("MEM701") for n in c.notes)),
            "pcie_busy_share": pcie,
            "kernel_busy_share": kern,
        }

    def sim_metrics(self, facts: dict) -> dict:
        return {**NO_SIM_METRICS, "sim.query_ms_geomean":
                geomean(f["sim_ms"] for f in facts.values())}

    def reference(self, key: str) -> tuple:
        """The naive reference interpreter's output, canonicalized."""
        from repro.frontend import reference_execute
        return canonical_bytes(
            reference_execute(self.compiled[key].bound, self.tables))

    def verify(self, warm: dict) -> dict[str, str]:
        """Key -> mismatch message, comparing each warm-up output with the
        reference interpreter byte for byte (``exec`` only)."""
        if not self.execute:
            return {}
        bad = {}
        for key, (_, _, got) in warm.items():
            want = self.reference(key)
            if got != want:
                bad[key] = "output differs from the reference interpreter"
        return bad


class ServeWorkload:
    """Open loop on the simulated clock: one op serves a seeded Poisson
    trace over ``DEFAULT_TENANTS`` at one rate of the ladder, on a fresh
    two-device ``QueryServer`` with its own PlanCache.  Counted as one op
    per offered request."""

    RATES = (10, 20, 25, 30, 35, 40, 60)
    DEVICES = 2
    #: the SLO rate ladder metric counts a rate as met at this share of
    #: offered requests completed within their tenant deadline
    SLO_SHARE = 0.99
    P99_RATE = 20
    OVERLOAD_RATE = 60
    datagen_s = 0.0

    def __init__(self, duration_s: float = 60.0):
        self.duration_s = duration_s

    def setup(self, seed: int) -> None:
        from repro.serve import DEFAULT_TENANTS, ArrivalProcess
        from repro.serve.arrivals import catalog_plan
        for tenant in DEFAULT_TENANTS:
            for kind, _ in tenant.mix:
                catalog_plan(kind)
        self.traces = {
            f"{qps}qps": ArrivalProcess(qps, self.duration_s, DEFAULT_TENANTS,
                                        seed=seed * 1000 + qps).trace()
            for qps in self.RATES}

    def keys(self) -> list[str]:
        return list(self.traces)

    def weight_of(self, key: str) -> int:
        return len(self.traces[key])

    def run(self, key: str, check: bool = False):
        from repro.optimizer import PlanCache
        from repro.serve import QueryServer, ServeConfig
        config = ServeConfig(devices=self.DEVICES, workers=1,
                             queue_capacity=4096, plan_cache=PlanCache(),
                             check=check)
        return QueryServer(config=config).run(self.traces[key])

    def digest(self, output) -> dict:
        return output.metrics.summary()

    def facts(self, output) -> dict:
        s = output.metrics.summary()
        pcie, kern = _busy_share(output.device_timelines().values(),
                                 output.metrics.served_s)
        return {
            "offered": s["offered"], "completed_ok": s["completed_ok"],
            "goodput_qps": s["goodput_qps"], "p99_ms": s["latency_p99_ms"],
            "batches": s["batches"],
            "queries_batched": sum(output.metrics.batch_sizes),
            "served_s": output.metrics.served_s,
            "pcie_busy_share": pcie, "kernel_busy_share": kern,
        }

    def sim_metrics(self, facts: dict) -> dict:
        """SLO results on the simulated clock.  A shed request counts as
        a miss."""
        by_rate = {int(key.removesuffix("qps")): f
                   for key, f in facts.items()}
        met = [qps for qps, f in by_rate.items()
               if f["completed_ok"] >= self.SLO_SHARE * f["offered"]]
        return {
            **NO_SIM_METRICS,
            "sim.max_qps_at_slo": max(met, default=0),
            "sim.goodput_qps": by_rate.get(
                self.OVERLOAD_RATE, {}).get("goodput_qps", 0.0),
            "sim.p99_ms": by_rate.get(self.P99_RATE, {}).get("p99_ms", 0.0),
        }

    def verify(self, warm: dict) -> dict[str, str]:
        return {}


#: simulated-clock results; each workload fills the ones it measures
NO_SIM_METRICS = {"sim.query_ms_geomean": 0.0, "sim.max_qps_at_slo": 0.0,
                  "sim.goodput_qps": 0.0, "sim.p99_ms": 0.0}


def canonical_bytes(rel) -> tuple:
    """Fields plus every column's dtype and bytes after a canonical sort:
    two relations compare equal exactly when
    ``repro.frontend.compare_relations`` finds no difference."""
    from repro.frontend.validate import canonical
    rel = canonical(rel)
    return tuple(rel.fields), tuple(
        (rel.column(f).dtype.str, rel.column(f).tobytes())
        for f in rel.fields)


#: a smoke round: single-device, host and 4-device cluster choices
SMOKE_QUERIES = ("q1", "q3", "q6", "q13")


def make(name: str, smoke: bool = False):
    """Build a workload by name.  ``smoke`` shrinks it for the test suite:
    four queries per round, sf=0.002 data, 5-second serve traces."""
    queries = SMOKE_QUERIES if smoke else ()
    if name == "plan-sf1":
        return QueryWorkload(1.0, queries=queries)
    if name == "plan-sf30-4dev":
        return QueryWorkload(30.0, max_devices=4, queries=queries)
    if name == "exec-sf0.05":
        return QueryWorkload(0.002 if smoke else 0.05, execute=True,
                             queries=queries)
    if name == "serve-2dev":
        return ServeWorkload(duration_s=5.0) if smoke else ServeWorkload()
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


def geomean(values) -> float:
    values = [v for v in values if v]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
