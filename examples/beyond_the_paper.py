#!/usr/bin/env python
"""Beyond the paper: the extensions this reproduction adds.

The paper sketches several directions it leaves open; this example runs
each of them:

1. **auto strategy**   -- the cost-based optimizer choosing among the
   paper's strategies,
2. **hybrid CPU+GPU**  -- fused kernels on both processors (the Ocelot
   future-work idea),
3. **PCIe compression** -- the He et al. alternative, composed with fusion,
4. **shared-scan fusion** -- pattern (c), across-query fusion of SELECTs,
5. **memory pressure** -- the forced-round-trip mechanism of SS III-A, run
   live through the memory-managed runtime,
6. **Chrome trace**    -- export a fission pipeline for visual inspection.

Run:  python examples/beyond_the_paper.py
"""

import os
import tempfile

import numpy as np

from repro.core.multifusion import SharedScanGroup, chain_for_shared_scan
from repro.core.opmodels import chain_for_region
from repro.plans import Plan
from repro.ra import Field, Relation
from repro.optimizer import Optimizer
from repro.runtime import ExecutionConfig, GpuRuntime, Strategy
from repro.runtime.hybrid import run_hybrid_select
from repro.runtime.select_chain import run_select_chain, select_chain_plan
from repro.simgpu import NONE, RLE, DeviceSpec
from repro.simgpu.trace import write_chrome_trace

N = 1_000_000_000


def main() -> None:
    device = DeviceSpec()

    # 1. auto strategy -----------------------------------------------------
    print("1. automatic strategy selection")
    plan = select_chain_plan(2)
    result, decision = Optimizer(device).run(plan, {"input": N},
                                             include_cpubase=False)
    print(f"   chose {decision.chosen.label}: "
          f"{result.throughput/1e9:.2f} GB/s")
    for cand in decision.ranked():
        print(f"   - {cand.label}: {cand.price_text(digits=1)}")

    # 2. hybrid CPU+GPU -----------------------------------------------------
    print("\n2. hybrid CPU+GPU execution")
    gpu_only = run_hybrid_select(N, cpu_fraction=0.0)
    hybrid = run_hybrid_select(N)
    print(f"   GPU only : {gpu_only.throughput/1e9:6.2f} GB/s")
    print(f"   hybrid   : {hybrid.throughput/1e9:6.2f} GB/s "
          f"(CPU takes {hybrid.cpu_fraction:.0%} of the data, "
          f"+{(hybrid.throughput/gpu_only.throughput-1)*100:.0f}%)")

    # 3. compression --------------------------------------------------------
    print("\n3. PCIe compression (He et al.) composed with fusion")
    for label, scheme, strategy in [("fusion only", NONE, Strategy.FUSED),
                                    ("RLE only", RLE, Strategy.SERIAL),
                                    ("RLE + fusion", RLE, Strategy.FUSED)]:
        r = run_select_chain(200_000_000, 2, 0.5, config=ExecutionConfig(
            strategy=strategy, compression=scheme))
        print(f"   {label:14s} {r.throughput/1e9:6.2f} GB/s")

    # 4. shared-scan fusion --------------------------------------------------
    print("\n4. shared-scan fusion (pattern (c), e.g. across queries)")
    plan4 = Plan()
    src = plan4.source("t", row_nbytes=4)
    selects = [plan4.select(src, Field("x") < 10, selectivity=0.2,
                            name=f"query{i}") for i in range(3)]
    shared = chain_for_shared_scan(SharedScanGroup(src, tuple(selects)))
    t_shared = shared.total_duration(200_000_000, device)
    t_separate = sum(chain_for_region([s]).total_duration(200_000_000, device)
                     for s in selects)
    print(f"   3 SELECTs, separate scans: {t_separate*1e3:6.1f} ms")
    print(f"   3 SELECTs, one shared scan: {t_shared*1e3:6.1f} ms "
          f"({t_separate/t_shared:.2f}x)")

    # 5. memory pressure ------------------------------------------------------
    print("\n5. forced round trips under memory pressure (Fig 7a/b)")
    rng = np.random.default_rng(0)
    rel = Relation({"k": rng.integers(0, 100, 400_000).astype(np.int32),
                    "v": rng.integers(0, 100, 400_000).astype(np.int32)})
    plan5 = Plan()
    node = plan5.source("t", row_nbytes=8)
    for i, (f, thr, sel) in enumerate(
            [("k", 80, 0.8), ("v", 80, 0.8), ("k", 40, 0.5)]):
        node = plan5.select(node, Field(f) < thr, selectivity=sel, name=f"s{i}")
    tight = int(rel.nbytes * 1.3)
    for strategy in (Strategy.SERIAL, Strategy.FUSED):
        r = GpuRuntime(strategy=strategy, memory_limit=tight).run(
            plan5, {"t": rel})
        print(f"   {strategy.value:6s} spills={r.spill_count} "
              f"time={r.makespan*1e3:6.2f} ms")

    # 6. chrome trace ------------------------------------------------------------
    print("\n6. Chrome trace of the fission pipeline")
    r = run_select_chain(N, 1, 0.5, Strategy.FISSION)
    path = os.path.join(tempfile.gettempdir(), "repro_fission_trace.json")
    write_chrome_trace(r.timeline, path)
    print(f"   wrote {len(r.timeline.events)} events to {path}")
    print("   (open chrome://tracing and load it to see the Fig 13 overlap)")


if __name__ == "__main__":
    main()
