"""One workload in one process: set up, warm up, time, trace, check.

``run.py`` starts this module once per set-up sample and once for the
measured run, one process at a time, single-threaded.  The measured run

1. sets the workload up (``setup_s`` runs from this module's first line);
2. runs one untimed, sanitized (``check=True``) warm-up round whose output
   digests every later op must reproduce;
3. runs whole rounds of ops, timing each op next to a reference slice,
   until ``--seconds`` of op time have passed, and reads the peak RSS;
4. with ``--trace 1``, runs a quarter as many rounds (at least one) under
   the :class:`~e2ebench.tracer.Tracer` for the per-layer metrics;
5. checks the warm-up outputs against the workload's reference oracle.

It prints one line, ``E2E-RESULT <json>``, and exits 0 whenever it got
that far, failed ops included.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
RESULT_PREFIX = "E2E-RESULT "
#: the reference slice's median wall time on the reference host (a 2-vCPU
#: x86-64 Linux VM, Python 3.11, when no other tenant loads it): wall
#: times are scaled to that host's speed
REF_NOMINAL_NS = 730_000
#: failure messages kept per run
MAX_ERRORS = 5


def load_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 1 without it."""
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, "
                 f"not {src}")


def percentile(samples: list[tuple[float, int]], p: float) -> float:
    """Nearest-rank percentile of weighted (value, weight) samples."""
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * sum(w for _, w in ordered))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return 0.0


def sig6(x: float) -> float:
    """Simulated-clock values are reported to 6 significant digits."""
    return float(f"{x:.6g}")


class Reference:
    """A fixed slice of interpreter, allocation and NumPy work, timed next
    to every op.  On a shared host, other tenants slow the ops and the
    slice alike, so ``REF_NOMINAL_NS / measured`` is the host's current
    speed, and wall times multiplied by it read as on the quiet reference
    host.

    The slice runs no repro code, keeps its data cache-sized, is timed
    after an identical warming pass, and runs with the collector off, so
    the program's heap and cache footprint barely change its time (by
    about 2% after an op, against back-to-back slices)."""

    ITERATIONS = 8000

    def __init__(self):
        import numpy as np
        self._sort = np.sort
        self.array = np.arange(1 << 12, dtype=np.float64)[::-1].copy()
        self.values = [i * 0.5 for i in range(256)]

    def _run(self, n: int) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            x = 0
            for i in range(n):
                x = (x * 31 + i) & 0xFFFF
            rows = [(self.values[i & 255], i) for i in range(n // 15)]
            rows.sort(reverse=True)
            self._sort(self.array)
            return time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()

    def time_ns(self) -> int:
        self._run(self.ITERATIONS)  # warming pass, untimed
        return self._run(self.ITERATIONS)

    def speed(self, samples: int = 9) -> float:
        return REF_NOMINAL_NS / statistics.median(
            self.time_ns() for _ in range(samples))


class Loop:
    """Timings and failures of a run of whole rounds.

    Each op's time is scaled by the host speed the reference slices just
    before and just after it measured.  Each key's calls are then
    summarized by their median, so one stalled call cannot move a metric,
    and the op mix stays exactly one call per key per round.
    """

    def __init__(self):
        self.rounds = 0
        self.busy_ns = 0
        #: key -> scaled wall ns of each successful call
        self.times: dict[str, list[float]] = defaultdict(list)
        #: key -> ops per call
        self.weight: dict[str, int] = {}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []
        #: measured host speed of each round
        self.speeds: list[float] = []

    @property
    def ops(self) -> int:
        return sum(self.weight[k] * len(v) for k, v in self.times.items())

    def _median_ns(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.times.items()}

    @property
    def round_s(self) -> float:
        """Wall time of a typical round: the sum of per-key medians."""
        return sum(self._median_ns().values()) / 1e9

    @property
    def ops_per_s(self) -> float:
        round_s = self.round_s
        return sum(self.weight[k] for k in self.times) / round_s if round_s \
            else 0.0

    def latency_ms(self, p: float) -> float:
        """Percentile of op latency over the round's op mix."""
        return percentile([(ns / 1e6 / self.weight[k], self.weight[k])
                           for k, ns in self._median_ns().items()], p)


def run_rounds(wl, keys, rng, warm, ref: Reference, seconds=None,
               rounds=None, tracer=None) -> Loop:
    """Run shuffled rounds: at least one, then until `seconds` of op time
    have passed or, without `seconds`, until `rounds` rounds have run."""
    loop = Loop()
    while loop.rounds == 0 or (loop.busy_ns < seconds * 1e9
                               if seconds is not None
                               else loop.rounds < rounds):
        order = list(keys)
        rng.shuffle(order)
        # slice i runs just before op i and just after op i - 1
        ref_ns, timed = [], []
        for i, key in enumerate(order):
            weight = wl.weight_of(key)
            span = (nullcontext() if tracer is None
                    else tracer.op(sum(loop.attempted.values()), key, weight))
            loop.attempted[key] += weight
            ref_ns.append(ref.time_ns())
            try:
                with span:
                    t0 = time.perf_counter_ns()
                    out = wl.run(key)
                    dt = time.perf_counter_ns() - t0
            except Exception as exc:
                loop.failed[key] += weight
                loop.errors.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            loop.busy_ns += dt
            loop.weight[key] = weight
            timed.append((i, key, dt))
            if wl.digest(out) != warm.get(key):
                loop.failed[key] += weight
                loop.errors.append(f"{key}: output differs from warm-up")
            del out
        ref_ns.append(ref.time_ns())
        for i, key, dt in timed:
            loop.times[key].append(
                dt * 2 * REF_NOMINAL_NS / (ref_ns[i] + ref_ns[i + 1]))
        loop.speeds.append(REF_NOMINAL_NS / statistics.median(ref_ns))
        loop.rounds += 1
    return loop


def measure(wl, seed: int, seconds: float, trace: bool = False,
            trace_path=None) -> dict:
    """Warm up, time and optionally trace a set-up workload; returns the
    result without ``setup_s`` (the caller times set-up)."""
    keys = wl.keys()
    warm, facts, bad = {}, {}, {}
    for key in keys:
        try:
            out = wl.run(key, check=True)
        except Exception as exc:
            bad[key] = f"warm-up: {type(exc).__name__}: {exc}"
            continue
        warm[key] = wl.digest(out)
        facts[key] = wl.facts(out)
        del out

    rng = random.Random(seed)
    ref = Reference()
    gc.collect()
    timed = run_rounds(wl, keys, rng, warm, ref, seconds=seconds)
    metrics = {
        "ops_per_s": timed.ops_per_s,
        "op_p50_ms": timed.latency_ms(50),
        "op_p90_ms": timed.latency_ms(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    samples = {"ops_per_s": timed.ops, "op_p50_ms": timed.ops,
               "op_p90_ms": timed.ops, "peak_rss_mb": 1}

    loops = [timed]
    result = {}
    if trace:
        from .tracer import Profile, Tracer
        gc.collect()
        with Tracer() as tracer:
            traced = run_rounds(wl, keys, rng, warm, ref,
                                rounds=math.ceil(timed.rounds / 4),
                                tracer=tracer)
        loops.append(traced)
        if trace_path is not None:
            tracer.write_chrome(trace_path)
        profile = Profile(tracer.spans)
        result["per_layer"] = per_layer(wl, profile, facts, timed, traced)
        result["traced_ops"] = traced.ops
        result["root_self_share"] = profile.root_self_share

    bad.update(wl.verify(warm))
    attempted = failed = 0
    errors = [f"{k}: {msg}" for k, msg in bad.items()]
    for loop in loops:
        attempted += sum(loop.attempted.values())
        failed += sum(loop.attempted[k] if k in bad else loop.failed[k]
                      for k in loop.attempted)
        errors += loop.errors
    result.update(attempted=attempted, failed=failed,
                  errors=errors[:MAX_ERRORS], metrics=metrics,
                  samples=samples,
                  host_speed=statistics.median(timed.speeds))
    return result


def per_layer(wl, prof, facts: dict, timed: Loop, traced: Loop) -> dict:
    """The per-layer metrics: span totals per op from the traced rounds,
    simulated-clock facts from the warm-up round."""
    n = traced.ops

    def ms(name):
        return prof.self_ns[name] / n / 1e6

    def per_op(name, tally=None):
        total = prof.calls[name] if tally is None else prof.tally[name][tally]
        return total / n

    def mean(field):
        vals = [f[field] for f in facts.values() if f.get(field) is not None]
        return sig6(sum(vals) / len(vals)) if vals else 0.0

    from .workloads import geomean
    fs = list(facts.values())
    lookups = prof.calls["PlanCache.get"]
    engine_s = prof.incl_ns["SimEngine.run"] / 1e9
    batches = sum(f.get("batches", 0) for f in fs)
    served_s = sum(f.get("served_s", 0.0) for f in fs)
    out = {
        "frontend.parse_ms": ms("parse"),
        "frontend.bind_ms": ms("bind"),
        "frontend.lower_ms": ms("lower"),
        "core.fuse_plan_calls": per_op("fuse_plan"),
        "core.fuse_plan_ms": ms("fuse_plan"),
        "core.fusion_speedup": sig6(
            geomean(f.get("fusion_speedup") for f in fs)),
        "analyze.check_strategy_calls": per_op("check_strategy"),
        "analyze.check_strategy_ms": ms("check_strategy"),
        "analyze.pruned_options": mean("pruned"),
        "optimizer.choose_ms": ms("Optimizer.choose"),
        "optimizer.cost_estimate_ms": ms("CostModel.estimate"),
        "optimizer.confirm_ms": prof.confirm_ns / n / 1e6,
        "optimizer.options_priced": per_op("CostModel.estimate"),
        "optimizer.fingerprint_ms": ms("plan_fingerprint"),
        "optimizer.cache_get_ms": ms("PlanCache.get"),
        "optimizer.cache_put_ms": ms("PlanCache.put"),
        "optimizer.cache_hit_ratio": sig6(
            prof.tally["PlanCache.get"]["hits"] / lookups if lookups
            else 0.0),
        "runtime.run_calls": per_op("Executor.run"),
        "runtime.run_ms": ms("Executor.run"),
        "runtime.run_cpubase_ms": ms("Executor.run_cpubase"),
        "runtime.estimate_sizes_calls": per_op("estimate_sizes"),
        "runtime.estimate_sizes_ms": ms("estimate_sizes"),
        "runtime.run_batched_streams_ms": ms(
            "WorkloadScheduler.run_batched_streams"),
        "simgpu.run_calls": per_op("SimEngine.run"),
        "simgpu.run_ms": ms("SimEngine.run"),
        "simgpu.events": per_op("SimEngine.run", "events"),
        "simgpu.events_per_s": (prof.tally["SimEngine.run"]["events"]
                                / engine_s if engine_s else 0.0),
        "simgpu.kernel_launches": per_op("SimEngine.run", "kernels"),
        "simgpu.pcie_busy_share": mean("pcie_busy_share"),
        "simgpu.kernel_busy_share": mean("kernel_busy_share"),
        "cluster.run_calls": per_op("ClusterExecutor.run"),
        "cluster.run_ms": ms("ClusterExecutor.run"),
        "cluster.exchange_mb": per_op("ClusterExecutor.run",
                                      "exchange_bytes") / 1e6,
        "plans.evaluate_ms": ms("evaluate"),
        "plans.rows_out": per_op("evaluate", "rows_out"),
        "serve.run_ms": ms("QueryServer.run"),
        "serve.dispatch_key_ms": ms("DispatchEngine.dispatch_key"),
        "serve.next_batch_ms": ms("BatchScheduler.next_batch"),
        "serve.batches": batches,
        "serve.mean_batch_size": sig6(
            sum(f.get("queries_batched", 0) for f in fs) / batches
            if batches else 0.0),
        "serve.sim_s_per_wall_s": served_s / timed.round_s,
        "tpch.datagen_s": wl.datagen_s,
        "trace.overhead_ratio": 1 - traced.ops_per_s / timed.ops_per_s,
    }
    out.update((k, sig6(v)) for k, v in wl.sim_metrics(facts).items())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2ebench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_repro()
    from .workloads import make
    wl = make(args.workload)
    wl.setup(args.seed)
    setup_s = (time.perf_counter() - T0) * Reference().speed()
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        result = measure(wl, args.seed, args.seconds, trace=bool(args.trace),
                         trace_path=args.trace_out)
        result["setup_s"] = setup_s
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
