"""Execution strategies (the paper's evaluated methods).

==================  ======================================================
WITH_ROUND_TRIP     every operator's intermediate result is staged back to
                    host memory and re-downloaded (forced when intermediates
                    do not fit on the device; SS III-B)
SERIAL              "without round trip": intermediates stay in GPU memory,
                    operators run unfused, back to back
FUSED               kernel fusion applied (SS III)
FISSION             kernel fission applied: segmented, pipelined transfers
                    (SS IV), unfused kernels
FUSED_FISSION       both (SS IV-C)
==================  ======================================================

:data:`CPU_BASELINE` labels the host interpreter, the one execution path
that is not a device strategy: the optimizer prices it as the CPU side of
the CPU-vs-GPU crossover, and every fault ladder ends on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.fission import FissionConfig
from ..simgpu.compression import NONE, CompressionScheme
from ..simgpu.pcie import HostMemory

#: the host-interpreter label (never a :class:`Strategy` member)
CPU_BASELINE = "cpubase"

#: host memory for the staging buffers every device run uploads sources
#: from and downloads outputs (and device-placement spills) to:
#: persistent, so kept pinned
STAGING_MEMORY = HostMemory.PINNED
#: host memory for the round-trip strategy's intermediate spills (ad-hoc
#: heap buffers, hence pageable) -- this asymmetry gives round trips
#: their outsized share of Fig 9's breakdown
ROUNDTRIP_MEMORY = HostMemory.PAGED


class Strategy(enum.Enum):
    WITH_ROUND_TRIP = "with_round_trip"
    SERIAL = "serial"
    FUSED = "fused"
    FISSION = "fission"
    FUSED_FISSION = "fused_fission"

    @property
    def uses_fusion(self) -> bool:
        return self in (Strategy.FUSED, Strategy.FUSED_FISSION)

    @property
    def uses_fission(self) -> bool:
        return self in (Strategy.FISSION, Strategy.FUSED_FISSION)


@dataclass(frozen=True)
class ExecutionConfig:
    strategy: Strategy = Strategy.SERIAL
    fission: FissionConfig = field(default_factory=FissionConfig)
    #: when False, no PCIe transfers are simulated (GPU-compute-only runs,
    #: as in Fig 8(b), Fig 10-12)
    include_transfers: bool = True
    #: device-memory safety margin for chunked serial execution
    memory_safety: float = 0.9
    #: PCIe codec, by the rule GpuRuntime shares: every source upload of
    #: a serial run (SERIAL, FUSED, WITH_ROUND_TRIP, or a fission run that
    #: falls back to serial) ships compressed and pays a decompress
    #: kernel; round-trip spills and the fission path's uploads ship raw
    compression: CompressionScheme = NONE
