"""Worker-pool scale-out + the tracked DES hot-loop benchmark.

Two experiments, one tracked report (``BENCH_workers.json``):

**Pool sweep** -- the serving subsystem's scale-out curve.  A fixed seeded
trace is served with ``workers = devices = N`` for N in the sweep: each
warm worker process owns one simulated device lane, so goodput rises with
pool size while every dispatch still flows through the idempotent outbox.
CI gates that goodput is strictly increasing across the sweep.  At a
*fixed* device count the pool changes nothing by design -- the sweep also
serves one workers=4/devices=1 run and asserts its summary is
byte-identical to the workers=1 run (the determinism contract of
docs/SERVING.md).

**DES hot loop** -- wall-time throughput of the simulator's discrete-event
core (``repro.simgpu.engine.SimEngine``), the loop every dispatch (and
every worker) spends its time in: heap-ordered completions over slotted
command records.  Reported as processed events/second and the
simulated-time : wall-time ratio (best of three runs), next to an older
single-machine reference figure kept in the payload under ``before``
(58,562 events/s, sim/wall 8.21).

The DES loop is recorded but not gated: a wall-clock rate compared
against a fixed constant fails on a loaded machine, whatever the code
does.  Its throughput is tracked per layer instead, as
``simgpu.events_per_s`` on the ``plan-sf30-4dev`` workload of the
end-to-end benchmark (``e2ebench/``), where every wall time is scaled
by a reference loop measured in the same run.
"""

import json
import time

from repro.bench import emit_json, format_table, json_output_path, print_header
from repro.serve import ArrivalProcess, QueryServer, ServeConfig
from repro.simgpu.compute import KernelLaunchSpec, default_grid
from repro.simgpu.engine import KernelCommand, SimEngine, SimStream, TransferCommand
from repro.simgpu.pcie import Direction

WORKER_SWEEP = (1, 2, 4)
QPS = 120
DURATION_S = 1.0
SEED = 11

#: DES microbench shape: enough streams and commands that the event loop
#: (not setup) dominates the wall time
DES_STREAMS = 8
DES_COMMANDS_PER_STREAM = 600

#: older reference figure at the same shape, reported beside the
#: measurement in the payload (informational, not a gate)
DES_BEFORE = {"events_per_s": 58_562.0, "sim_wall_ratio": 8.21}


def _serve(trace, workers, devices):
    cfg = ServeConfig(mode="batched", queue_capacity=4096,
                      workers=workers, devices=devices, pool_seed=SEED)
    server = QueryServer(config=cfg)
    metrics = server.run(trace=list(trace)).metrics
    server.close()
    return metrics, server.backend_stats


def _des_streams(device):
    streams = []
    for s in range(DES_STREAMS):
        stream = SimStream(stream_id=s)
        for k in range(DES_COMMANDS_PER_STREAM):
            if k % 5 == 0:
                stream.enqueue(TransferCommand(
                    tag=f"h2d.{s}.{k}", nbytes=float(1 << 16),
                    direction=Direction.H2D))
            elif k % 7 == 0:
                stream.enqueue(TransferCommand(
                    tag=f"d2h.{s}.{k}", nbytes=float(1 << 14),
                    direction=Direction.D2H))
            else:
                n = 1 << 14
                ctas, tpc = default_grid(n, device)
                stream.enqueue(KernelCommand(
                    tag=f"k.{s}.{k}",
                    spec=KernelLaunchSpec(
                        name=f"k{k % 11}", num_elements=n, num_ctas=ctas,
                        threads_per_cta=tpc, regs_per_thread=16,
                        bytes_read=float(4 * n), bytes_written=float(4 * n),
                        instructions=float(10 * n))))
        streams.append(stream)
    return streams


def _des_hot_loop(device, rounds=3):
    """Best-of-N wall time of one SimEngine run over the fixed program."""
    best = None
    for _ in range(rounds):
        streams = _des_streams(device)
        engine = SimEngine(device)
        t0 = time.perf_counter()
        timeline = engine.run(streams)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, timeline)
    wall, timeline = best
    events = len(timeline.events)
    return {
        "streams": DES_STREAMS,
        "commands_per_stream": DES_COMMANDS_PER_STREAM,
        "events": events,
        "wall_s": round(wall, 6),
        "events_per_s": round(events / wall, 1),
        "sim_s": round(timeline.end_time, 6),
        "sim_wall_ratio": round(timeline.end_time / wall, 2),
        "before": dict(DES_BEFORE),
    }


def _measure():
    trace = ArrivalProcess(qps=QPS, duration_s=DURATION_S,
                           seed=SEED).trace()
    sweep = []
    for n in WORKER_SWEEP:
        metrics, stats = _serve(trace, workers=n, devices=n)
        sweep.append((n, metrics, stats))
    # determinism cross-check at fixed shape: pooled == in-process
    flat_base, _ = _serve(trace, workers=1, devices=1)
    flat_pool, _ = _serve(trace, workers=4, devices=1)
    identical = (json.dumps(flat_base.summary(), sort_keys=True)
                 == json.dumps(flat_pool.summary(), sort_keys=True))
    return sweep, identical


def test_worker_scaleout(benchmark, device):
    (sweep, identical) = benchmark.pedantic(_measure, rounds=1,
                                            iterations=1)
    des = _des_hot_loop(device)

    print_header("Worker pool: goodput vs pool size",
                 "workers = devices = N; warm processes, idempotent "
                 "dispatch outbox", device)
    rows = []
    payload = {"worker_sweep": list(WORKER_SWEEP), "qps": QPS,
               "duration_s": DURATION_S, "seed": SEED,
               "pool_identical_at_fixed_devices": identical,
               "points": [], "des_hot_loop": des}
    for n, m, stats in sweep:
        rows.append([n, m.goodput_qps, m.latency.percentile(99) * 1e3,
                     m.completed_ok,
                     stats.get("outbox.recorded", m.batches),
                     stats.get("pool.kills", 0)])
        payload["points"].append({
            "workers": n, "devices": n,
            "pool": {k: v for k, v in stats.items()},
            "metrics": m.summary(),
        })
    print(format_table(
        ["workers", "goodput q/s", "p99 ms", "within SLO",
         "outbox recorded", "kills"], rows, width=15))
    print(f"pooled summary byte-identical at fixed devices: {identical}")
    print(f"DES hot loop: {des['events_per_s']:,.0f} events/s "
          f"(before {DES_BEFORE['events_per_s']:,.0f}), "
          f"sim/wall {des['sim_wall_ratio']:.2f} "
          f"(before {DES_BEFORE['sim_wall_ratio']:.2f})")

    out = emit_json("workers", payload,
                    path=json_output_path("workers") or "BENCH_workers.json")
    print(f"wrote {out}")

    assert identical, "worker pool changed summary bytes at fixed devices"
    goodputs = [m.goodput_qps for _, m, _ in sweep]
    assert all(b > a for a, b in zip(goodputs, goodputs[1:])), (
        f"goodput must rise strictly with pool size, got {goodputs}")
