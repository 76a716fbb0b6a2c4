"""End-to-end benchmark of the repro system, on both clocks.

    python3 e2ebench/run.py --workload NAME --seed N [--seconds S]
                            [--trace 0|1] [--out DIR]
    PYTHONPATH=src python -m e2ebench --seed N --out DIR [--trace]

Runs from the repository root.  Each workload runs in its own child
process (``e2ebench/child.py``), one at a time and single-threaded; set-up
is sampled in ``SETUP_SAMPLES`` fresh processes and reported as their
median.  Without ``--workload`` every workload of ``BENCHMARK.json`` runs
in turn.

For each workload it prints every metric with its unit and sample count,
then, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  With ``--out DIR`` it also
writes ``DIR/<workload>.json`` (``.layers.json`` when traced) for
``compare.py`` and, when traced, the spans as ``DIR/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
RESULT_PREFIX = "E2E-RESULT "
#: set-up samples per run: fresh set-up-only processes plus the measured one
SETUP_SAMPLES = 5
#: a run, set-up samples included, ends within this many seconds
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``e2ebench.child`` to completion and return its result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "e2ebench.child", *args], cwd=REPO,
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {exc.timeout:.0f} s") from exc
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or result is None:
        raise ChildError(f"child exited with code {proc.returncode}")
    return result


def bench(workload: str, seed: int, seconds: float, trace: bool,
          spec: dict, out_dir: Path | None) -> dict:
    """One workload run: the result line's fields (correct, attempted,
    failed, metrics) plus sample counts and diagnostics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup = [run_child(base + ["--setup-only"], deadline)["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    args = base + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace and out_dir is not None:
        args += ["--trace-out", str(out_dir / f"{workload}.trace.json")]
    res = run_child(args, deadline)
    setup.append(res["setup_s"])
    e2e = dict(res["metrics"], setup_s=statistics.median(setup))
    samples = dict(res["samples"], setup_s=len(setup))

    declared = spec["per_layer" if trace else "end_to_end"]
    values = res["per_layer"] if trace else e2e
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise ChildError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "samples": samples,
        "errors": res["errors"],
        "traced_ops": res.get("traced_ops"),
        "root_self_share": res.get("root_self_share"),
        "host_speed": res["host_speed"],
    }


def report(workload: str, seed: int, run: dict) -> None:
    """Human-readable lines, ahead of the JSON line."""
    ratio = run["failed"] / run["attempted"]
    print(f"== {workload}  seed {seed}  attempted {run['attempted']}  "
          f"failed {run['failed']}  op_fail_ratio {ratio:.6g}  "
          f"host speed {run['host_speed']:.3f}x reference")
    for err in run["errors"]:
        print(f"   failure: {err}")
    n_traced = run["traced_ops"]
    for name, m in run["metrics"].items():
        n = run["samples"].get(name, n_traced)
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']:10s} n={n}")
    if run["root_self_share"] is not None:
        print(f"   op time outside wrapped sites: "
              f"{run['root_self_share']:.2%} of {n_traced} traced ops")


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(prog="python3 e2ebench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"]
                                               for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="op time measured per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result and trace files")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"e2ebench: no repro package under {REPO / 'src'}",
              file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    status = 0
    for workload in names:
        try:
            run = bench(workload, args.seed, args.seconds, bool(args.trace),
                        spec, args.out)
        except (ChildError, KeyError, ValueError) as exc:
            print(f"e2ebench: {workload}: {exc}", file=sys.stderr)
            status = 1
            continue
        report(workload, args.seed, run)
        result = {k: run[k] for k in ("correct", "attempted", "failed",
                                      "metrics")}
        if args.out is not None:
            suffix = ".layers.json" if args.trace else ".json"
            (args.out / f"{workload}{suffix}").write_text(json.dumps(
                {"workload": workload, "seed": args.seed,
                 "seconds": args.seconds, **result,
                 "samples": run["samples"], "host_speed": run["host_speed"]},
                indent=1) + "\n")
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
