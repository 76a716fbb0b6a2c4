"""Tests for compressed-transfer execution and the compression model.

Compression is one upload rule (:meth:`CompressionScheme.upload`) that the
Executor (``ExecutionConfig.compression``) and the GpuRuntime share: every
source upload of a serial/resident run ships wire bytes and pays a
decompress kernel; spills and the fission pipeline ship raw bytes.
"""

import numpy as np
import pytest

from repro.ra import Relation
from repro.runtime import ExecutionConfig, Executor, GpuRuntime, Strategy
from repro.runtime.select_chain import run_select_chain, select_chain_plan
from repro.simgpu import EventKind, SimEngine, SimStream
from repro.simgpu.compression import BITPACK, DICT, NONE, RLE, CompressionScheme
from repro.simgpu.engine import KernelCommand, TransferCommand
from repro.simgpu.pcie import Direction, HostMemory
from repro.tpch import (build_q1_plan, build_q6_plan, q1_source_rows,
                        q6_source_rows, scaled_rows)

N = 200_000_000
SCHEMES = (NONE, DICT, BITPACK, RLE)


def run(scheme, fused=True, n=N):
    strategy = Strategy.FUSED if fused else Strategy.SERIAL
    return run_select_chain(n, 2, 0.5, config=ExecutionConfig(
        strategy=strategy, compression=scheme))


@pytest.fixture
def queued(monkeypatch):
    """Every command handed to a SimEngine, in queue order."""
    cmds = []
    engine_run = SimEngine.run

    def record(self, streams, *args, **kwargs):
        for s in streams:
            cmds.extend(s.commands)
        return engine_run(self, streams, *args, **kwargs)

    monkeypatch.setattr(SimEngine, "run", record)
    return cmds


def h2d_bytes(cmds):
    return [c.nbytes for c in cmds if isinstance(c, TransferCommand)
            and c.direction is Direction.H2D]


def decompress_specs(cmds):
    return [c.spec for c in cmds if isinstance(c, KernelCommand)
            and c.tag.startswith("decompress.")]


class TestScheme:
    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            CompressionScheme("bad", ratio=0.5, decompress_insts_per_elem=1)

    def test_wire_bytes(self):
        assert RLE.wire_bytes(1000) == pytest.approx(1000 / 2.5)
        assert NONE.wire_bytes(1000) == 1000

    def test_decompress_spec_traffic(self, device):
        spec = RLE.decompress_spec(1_000_000, 4, device)
        assert spec.bytes_read == pytest.approx(4_000_000 / 2.5)
        assert spec.bytes_written == 4_000_000

    def test_none_upload_queues_the_raw_bytes_unchanged(self, device):
        stream = SimStream(stream_id=0)
        NONE.upload(stream, 4000, 1000, 4, HostMemory.PINNED, device,
                    tag="t", writes=("t",))
        (cmd,) = stream.commands
        assert cmd.nbytes == 4000 and type(cmd.nbytes) is int
        assert (cmd.tag, cmd.writes) == ("input.t", ("t",))

    def test_compressed_upload_queues_wire_bytes_then_decompress(self, device):
        stream = SimStream(stream_id=0)
        RLE.upload(stream, 4000, 1000, 4, HostMemory.PINNED, device,
                   tag="t", writes=("t",))
        h2d, kern = stream.commands
        assert h2d.nbytes == RLE.wire_bytes(4000)
        assert kern.tag == "decompress.t"
        assert kern.spec == RLE.decompress_spec(1000, 4, device)
        assert kern.reads == kern.writes == ("t",)


class TestCompressedRuns:
    def test_none_matches_plain_pipeline_shape(self):
        r = run(NONE)
        # no decompression kernel, 2 kernels for the fused chain
        kernels = r.timeline.filter(EventKind.KERNEL)
        assert len(kernels) == 2

    def test_compression_reduces_transfer_time(self):
        plain = run(NONE)
        comp = run(RLE)
        t_plain = sum(e.duration for e in plain.timeline.filter(EventKind.H2D))
        t_comp = sum(e.duration for e in comp.timeline.filter(EventKind.H2D))
        assert t_comp < t_plain / 2

    def test_compression_charges_decompress_kernel(self):
        comp = run(RLE)
        tags = [e.tag for e in comp.timeline.filter(EventKind.KERNEL)]
        assert any("decompress" in t for t in tags)

    @pytest.mark.no_chaos  # compares timings across separately faulted runs
    def test_compression_helps_end_to_end(self):
        """The He et al. claim: for PCIe-bound queries compression pays off
        despite the decompression kernel."""
        plain = run(NONE)
        for scheme in (RLE, DICT, BITPACK):
            comp = run(scheme)
            assert comp.throughput > plain.throughput, scheme.name

    def test_fusion_and_compression_compose(self):
        """The two techniques attack different parts of the time: fusion
        the compute, compression the transfer; together they beat either."""
        fusion_only = run(NONE)
        comp_only = run(RLE, fused=False)
        both = run(RLE)
        assert both.throughput > fusion_only.throughput
        assert both.throughput > comp_only.throughput

    def test_chunked_run_decompresses_every_chunk(self):
        # 8 GB of input does not fit the 6 GB device: the driver streams in
        # chunks, each shipped compressed and unpacked on arrival
        r = run(RLE, n=2_000_000_000)
        assert r.num_chunks > 1
        tags = [e.tag for e in r.timeline.filter(EventKind.KERNEL)]
        assert sum(t.startswith("decompress.") for t in tags) == r.num_chunks


@pytest.mark.no_chaos  # compares command streams across separate runs
class TestOneRule:
    ROWS = 100_000

    @pytest.fixture
    def sources(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2 ** 31, self.ROWS).astype(np.int32)
        return {"input": Relation({"value": values})}

    def test_runtime_and_executor_queue_the_same_upload(self, queued,
                                                        sources, device):
        plan = select_chain_plan(2)
        GpuRuntime(device, strategy=Strategy.FUSED,
                   compression=RLE).run(plan, sources)
        rt = list(queued)
        queued.clear()
        Executor(device).run(plan, {"input": self.ROWS}, ExecutionConfig(
            strategy=Strategy.FUSED, compression=RLE))
        ex = list(queued)
        assert h2d_bytes(rt) == h2d_bytes(ex) == [
            RLE.wire_bytes(self.ROWS * 4)]
        assert decompress_specs(rt) == decompress_specs(ex)
        assert len(decompress_specs(ex)) == 1

    @pytest.mark.parametrize("strategy", [Strategy.FISSION,
                                          Strategy.FUSED_FISSION])
    def test_fission_segments_ship_raw_bytes(self, queued, sources, device,
                                             strategy):
        plan = select_chain_plan(2)

        def segment_uploads(scheme, interpreter):
            queued.clear()
            if interpreter == "runtime":
                GpuRuntime(device, strategy=strategy,
                           compression=scheme).run(plan, sources)
            else:
                Executor(device).run(plan, {"input": 50_000_000},
                                     ExecutionConfig(strategy=strategy,
                                                     compression=scheme))
            assert not decompress_specs(queued)
            return [c.nbytes for c in queued
                    if isinstance(c, TransferCommand)
                    and c.direction is Direction.H2D and ".seg" in c.tag]

        for interpreter in ("runtime", "executor"):
            raw = segment_uploads(NONE, interpreter)
            assert len(raw) > 1
            assert segment_uploads(RLE, interpreter) == raw


class TestStrictness:
    """The executor's expected-byte estimate counts wire bytes, so the
    strict schedule sanitizer holds under every codec."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("query", ["select_chain", "q1", "q6"])
    def test_check_passes(self, query, strategy, scheme, device):
        n = scaled_rows("lineitem", 1)
        plan, rows = {
            "select_chain": (select_chain_plan(2), {"input": N}),
            "q1": (build_q1_plan(), q1_source_rows(n)),
            "q6": (build_q6_plan(), q6_source_rows(n)),
        }[query]
        res = Executor(device, check=True).run(
            plan, rows, ExecutionConfig(strategy=strategy, compression=scheme))
        assert res.expected_h2d_bytes > 0
