"""Ablation: fusion vs PCIe compression (the He et al. alternative).

The paper's related work cites data compression as the other answer to the
PCIe bottleneck.  This ablation compares the two on the 2x SELECT
microbenchmark and shows they compose: fusion removes compute and
intermediate traffic, compression shrinks the (dominant) wire bytes.
"""

from repro.bench import format_table, print_header
from repro.runtime import ExecutionConfig, Strategy
from repro.runtime.select_chain import run_select_chain
from repro.simgpu.compression import BITPACK, DICT, NONE, RLE

N = 200_000_000


def _measure():
    rows = []
    for scheme in (NONE, DICT, BITPACK, RLE):
        for fused in (False, True):
            strategy = Strategy.FUSED if fused else Strategy.SERIAL
            r = run_select_chain(N, 2, 0.5, config=ExecutionConfig(
                strategy=strategy, compression=scheme))
            rows.append([scheme.name, "fused" if fused else "unfused",
                         r.makespan * 1e3, r.throughput / 1e9])
    return rows


def test_ablation_compression_vs_fusion(benchmark, device):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Ablation: compression x fusion",
                 "2x SELECT with compressed PCIe transfers", device)
    print(format_table(["codec", "kernels", "ms", "GB/s"], rows, width=12))

    tput = {(r[0], r[1]): r[3] for r in rows}
    # compression helps, fusion helps, together they beat either alone
    assert tput[("rle", "fused")] > tput[("none", "fused")]
    assert tput[("rle", "fused")] > tput[("rle", "unfused")]
    assert tput[("none", "fused")] > tput[("none", "unfused")]
    # stronger codecs help more (the workload is transfer-bound)
    assert tput[("rle", "fused")] > tput[("dict", "fused")]
