"""Compare two sets of benchmark runs: one row per workload x metric.

    python3 -m e2ebench.compare --base DIR [DIR ...] --head DIR [DIR ...]

Each DIR is an ``--out`` directory of ``run.py`` (untraced runs), holding
``<workload>.json``.  For every end-to-end metric of ``BENCHMARK.json`` a
row shows each side's median and quartiles, the head's change against the
base median, the metric's bound, and a verdict:

``unresolved``  a side's interquartile range exceeds the bound (as a share
                of its median), and not every head run beats every base run
``worse``       the head median is worse than the base median by more than
                the bound
``better``      the head wins at least nine tenths of the runs paired in
                the given order, and the medians differ by more than the
                base's interquartile range
``within``      anything else

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load(dirs: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per directory, in order."""
    out: dict[str, dict[str, list[float]]] = {}
    for d in dirs:
        for path in sorted(d.glob("*.json")):
            if path.name.endswith((".layers.json", ".trace.json")):
                continue
            run = json.loads(path.read_text())
            per = out.setdefault(run["workload"], {})
            for name, m in run["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float,
            higher: bool) -> str:
    sign = 1 if higher else -1
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    gain = sign * (hmed - bmed)
    if (bq3 - bq1) > bound * abs(bmed) or (hq3 - hq1) > bound * abs(hmed):
        dominates = all(sign * (h - b) > 0 for b in base for h in head)
        return "better" if dominates else "unresolved"
    if gain < -bound * abs(bmed):
        return "worse"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "better"
    return "within"


def compare(base: dict, head: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(head)):
        for m in spec["end_to_end"]:
            b, h = base[workload].get(m["name"]), head[workload].get(m["name"])
            if not b or not h:
                continue
            bmed, hmed = statistics.median(b), statistics.median(h)
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "base": quartiles(b), "head": quartiles(h),
                "delta": (hmed - bmed) / bmed if bmed else 0.0,
                "bound": m["bound"],
                "verdict": verdict(b, h, m["bound"], m["better"] == "higher"),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m e2ebench.compare",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.head), spec)
    print(f"{'workload':16s} {'metric':12s} {'base q1/med/q3':>30s} "
          f"{'head q1/med/q3':>30s} {'delta':>8s} {'bound':>6s}  verdict")
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["base"]), \
            "/".join(f"{v:.4g}" for v in r["head"])
        print(f"{r['workload']:16s} {r['metric']:12s} {fmt[0]:>30s} "
              f"{fmt[1]:>30s} {r['delta']:+8.2%} {r['bound']:6.0%}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
