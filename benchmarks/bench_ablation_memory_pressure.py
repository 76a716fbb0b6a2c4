"""Ablation: fusion under device-memory pressure (Fig 7(a)/(b) mechanism).

The paper's first two fusion benefits are about the data footprint: without
fusion, intermediates may not fit next to the inputs and must round-trip
through host memory.  This ablation shrinks the simulated device memory and
measures how the forced round trips (spills) and end-to-end time grow for
the unfused pipeline while the fused one stays clean.
"""

import numpy as np

from repro.bench import format_table, print_header
from repro.plans import Plan
from repro.ra import Field, Relation
from repro.runtime import GpuRuntime, Strategy


def _chain_plan():
    plan = Plan()
    node = plan.source("t", row_nbytes=8)
    for i, (f, thr, sel) in enumerate(
            [("k", 80, 0.8), ("v", 80, 0.8), ("k", 40, 0.5)]):
        node = plan.select(node, Field(f) < thr, selectivity=sel, name=f"s{i}")
    return plan


def _measure():
    rng = np.random.default_rng(7)
    n = 400_000
    rel = Relation({"k": rng.integers(0, 100, n).astype(np.int32),
                    "v": rng.integers(0, 100, n).astype(np.int32)})
    plan = _chain_plan()
    rows = []
    for factor in (4.0, 1.6, 1.3, 1.1):
        limit = int(rel.nbytes * factor)
        unfused, fused = (
            GpuRuntime(strategy=strategy, memory_limit=limit).run(
                plan, {"t": rel})
            for strategy in (Strategy.SERIAL, Strategy.FUSED))
        rows.append([
            f"{factor:.1f}x input",
            unfused.spill_count, fused.spill_count,
            unfused.makespan * 1e3, fused.makespan * 1e3,
            unfused.makespan / fused.makespan,
        ])
    return rows


def test_ablation_memory_pressure(benchmark, device):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Ablation: memory pressure",
                 "forced round trips vs device-memory budget", device)
    print(format_table(
        ["device mem", "spills unfused", "spills fused",
         "unfused ms", "fused ms", "fusion speedup"], rows, width=15))

    # with room, no spills either way
    assert rows[0][1] == rows[0][2] == 0
    # under pressure, unfused spills more and fusion's advantage grows
    assert rows[-1][1] > rows[-1][2]
    assert rows[-1][5] > rows[0][5]
