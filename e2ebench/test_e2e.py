"""Smoke tests of the end-to-end benchmark: ``pytest e2ebench -q``.

The workloads run at smoke size (``workloads.make(..., smoke=True)``, one
round each).  Nothing here asserts a wall-clock time.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import child, compare, tracer, workloads

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: per-layer metrics read off the wall clock; the rest repeat exactly
WALL = {name for name in PER_LAYER
        if name.endswith("_ms") and not name.startswith("sim.")} | {
    "simgpu.events_per_s", "serve.sim_s_per_wall_s", "tpch.datagen_s",
    "trace.overhead_ratio"}
SEED = 3

child.load_repro()


def smoke(name: str, trace: bool = True, trace_path=None, plant=None):
    wl = workloads.make(name, smoke=True)
    wl.setup(SEED)
    if plant is not None:
        plant(wl)
    return child.measure(wl, SEED, seconds=0, trace=trace,
                         trace_path=trace_path)


def site_objects() -> dict:
    """Every attribute the tracer patches, by (owner, attribute)."""
    out = {}
    for module, cls, attr in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        out[(module, cls, attr)] = vars(owner).get(attr)
    for module, attr in tracer.FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        for mod in tracer._repro_modules():
            for name, value in vars(mod).items():
                if value is original:
                    out[(mod.__name__, name)] = value
    return out


def leaked_wrappers() -> list:
    """Attributes of repro modules and classes that are tracer wrappers."""
    wrapper_code = tracer.Tracer()._wrap(len, "probe").__code__
    found = []
    for mod in tracer._repro_modules():
        for name, value in list(vars(mod).items()):
            owners = [(name, value)]
            if isinstance(value, type):
                owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            found += [(mod.__name__, n) for n, v in owners
                      if getattr(v, "__code__", None) is wrapper_code]
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run per workload, with ``SimEngine.run`` patched
    first the way ``benchmarks/conftest.py --validate`` patches it."""
    from repro.simgpu.engine import SimEngine
    tmp = tmp_path_factory.mktemp("traces")
    engine_run = SimEngine.run

    def checked_run(self, *args, **kwargs):
        return engine_run(self, *args, **kwargs)

    SimEngine.run = checked_run
    try:
        before = site_objects()
        runs = {name: smoke(name, trace_path=tmp / f"{name}.trace.json")
                for name in workloads.NAMES}
        after = site_objects()
        restored = vars(SimEngine)["run"] is checked_run
    finally:
        SimEngine.run = engine_run
    return {"runs": runs, "dir": tmp, "before": before, "after": after,
            "restored": restored}


def test_cli_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "plan-sf1",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 22
    assert {k: m["unit"] for k, m in result["metrics"].items()} == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_workload_measures_every_metric(traced):
    for name, run in traced["runs"].items():
        assert set(run["metrics"]) | {"setup_s"} == set(E2E), name
        assert set(run["per_layer"]) == set(PER_LAYER), name
        assert run["failed"] == 0, (name, run["errors"])


def test_same_seed_repeats_simulated_and_count_metrics(traced):
    for name in ("plan-sf1", "exec-sf0.05", "serve-2dev"):
        first = traced["runs"][name]["per_layer"]
        again = smoke(name)["per_layer"]
        for metric in set(PER_LAYER) - WALL:
            assert first[metric] == again[metric], (name, metric)


def test_simulated_results_are_measured(traced):
    runs = traced["runs"]
    assert runs["plan-sf1"]["per_layer"]["sim.query_ms_geomean"] > 0
    assert runs["exec-sf0.05"]["per_layer"]["plans.rows_out"] > 0
    assert runs["plan-sf30-4dev"]["per_layer"]["cluster.run_calls"] > 0
    serve = runs["serve-2dev"]["per_layer"]
    assert serve["sim.goodput_qps"] > 0 and serve["sim.p99_ms"] > 0
    assert 0 < serve["optimizer.cache_hit_ratio"] <= 1


def test_wrong_reference_output_counts_failures_without_aborting():
    def plant(wl):
        wl.reference = lambda key, real=wl.reference: (
            ("planted",), ()) if key == "q6" else real(key)

    run = smoke("exec-sf0.05", trace=False, plant=plant)
    assert 0 < run["failed"] < run["attempted"]
    assert any(err.startswith("q6") for err in run["errors"])


def test_trace_hits_every_wrapped_site(traced):
    seen = set()
    for name in workloads.NAMES:
        doc = json.loads(
            (traced["dir"] / f"{name}.trace.json").read_text())
        seen |= {ev["name"] for ev in doc["traceEvents"]}
    assert set(tracer.SITE_NAMES) <= seen


def test_trace_restores_every_original(traced):
    assert traced["restored"]
    after = traced["after"]
    assert all(after[k] is v for k, v in traced["before"].items())
    assert not leaked_wrappers()


def test_trace_spans_share_their_parents_op(traced):
    for name in workloads.NAMES:
        events = json.loads(
            (traced["dir"] / f"{name}.trace.json").read_text())["traceEvents"]
        assert events
        for ev in events:
            args = ev["args"]
            assert args["op"] >= 0
            if args["parent"] >= 0:
                assert events[args["parent"]]["args"]["op"] == args["op"]
            else:
                assert ev["name"] == tracer.ROOT


def test_compare_verdicts(tmp_path):
    def write(side, i, ops):
        d = tmp_path / f"{side}{i}"
        d.mkdir()
        metrics = {m: {"value": 1.0, "unit": u} for m, u in E2E.items()}
        metrics["ops_per_s"]["value"] = ops
        (d / "w.json").write_text(json.dumps(
            {"workload": "w", "metrics": metrics}))
        return d

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "ops_per_s")

    def runs(side, centre, jitter=1.0):
        return [write(side, i, centre + d * jitter)
                for i, d in enumerate([0, 1, -1, 0])]

    base = runs("b", 100)
    same = runs("s", 100.5)
    slow = runs("w", 100 * (1 - 2 * bound))
    fast = runs("f", 100 * (1 + 2 * bound))
    noisy = runs("n", 100, jitter=400 * bound)

    def verdicts(head):
        rows = compare.compare(compare.load(base), compare.load(head), SPEC)
        return {r["metric"]: r["verdict"] for r in rows}

    assert verdicts(same)["ops_per_s"] == "within"
    assert verdicts(slow)["ops_per_s"] == "worse"
    assert verdicts(fast)["ops_per_s"] == "better"
    assert verdicts(noisy)["ops_per_s"] == "unresolved"
    assert verdicts(same)["setup_s"] == "within"
    assert compare.main(["--base", *map(str, base),
                         "--head", *map(str, slow)]) == 1
    assert compare.main(["--base", *map(str, base),
                         "--head", *map(str, same)]) == 0
