"""PCIe data-compression model (the He et al. alternative).

The paper's related work notes that He et al. "suggest the use of data
compression techniques to reduce the amount of transfered data" as a
response to the same PCIe bottleneck fusion/fission attack.  This module
models that alternative so the ablation bench can compare and *combine*
the two approaches.  Columns are stored compressed on the host, so an
upload moves ``bytes / ratio`` over the wire and a decompression kernel
then unpacks the buffer on the device (:meth:`CompressionScheme.upload`,
the one rule both the Executor and the GpuRuntime queue source uploads
through).
"""

from __future__ import annotations

from dataclasses import dataclass

from .compute import KernelLaunchSpec, default_grid
from .device import DeviceSpec
from .pcie import HostMemory


@dataclass(frozen=True)
class CompressionScheme:
    """One compression codec's cost/benefit profile.

    Ratios and per-element costs are representative of the schemes the
    GPU-compression literature (Fang/He/Luo, VLDB'10) evaluates on TPC-H
    columns; NONE is the identity codec.
    """

    name: str
    ratio: float                      # uncompressed / compressed bytes
    decompress_insts_per_elem: float  # GPU-side unpack cost

    def __post_init__(self):
        if self.ratio < 1.0:
            raise ValueError(f"compression ratio must be >= 1, got {self.ratio}")

    def wire_bytes(self, nbytes: float) -> float:
        return nbytes / self.ratio

    def decompress_spec(self, n_elements: int, row_nbytes: int,
                        device: DeviceSpec) -> KernelLaunchSpec:
        """The device-side decompression kernel for one buffer."""
        ctas, threads = default_grid(n_elements, device)
        wire = self.wire_bytes(n_elements * row_nbytes)
        return KernelLaunchSpec(
            name=f"decompress.{self.name}",
            num_elements=n_elements,
            num_ctas=ctas,
            threads_per_cta=threads,
            regs_per_thread=12,
            bytes_read=wire,
            bytes_written=float(n_elements * row_nbytes),
            instructions=self.decompress_insts_per_elem * n_elements,
        )

    def upload(self, stream, nbytes: float, rows: int, row_nbytes: int,
               memory: HostMemory, device: DeviceSpec, tag: str,
               writes: tuple[str, ...] = ()) -> None:
        """Queue one source upload onto `stream` (a SimStream): the H2D
        ``input.<tag>`` of the wire bytes into buffers `writes`, then --
        when this scheme compresses -- the ``decompress.<tag>`` kernel
        over `rows` rows of `row_nbytes`, in place.  An identity codec
        queues `nbytes` itself, unchanged in value and type."""
        compressed = self.ratio > 1.0
        stream.h2d(self.wire_bytes(nbytes) if compressed else nbytes, memory,
                   tag=f"input.{tag}", writes=writes)
        if compressed:
            stream.kernel(self.decompress_spec(rows, row_nbytes, device),
                          tag=f"decompress.{tag}", reads=writes, writes=writes)


NONE = CompressionScheme("none", ratio=1.0, decompress_insts_per_elem=0.0)
#: run-length encoding on sorted/low-cardinality columns
RLE = CompressionScheme("rle", ratio=2.5, decompress_insts_per_elem=10.0)
#: dictionary encoding (fixed narrow codes)
DICT = CompressionScheme("dict", ratio=1.8, decompress_insts_per_elem=5.0)
#: bit packing of small-domain integers
BITPACK = CompressionScheme("bitpack", ratio=2.0, decompress_insts_per_elem=8.0)

SCHEMES = {s.name: s for s in (NONE, RLE, DICT, BITPACK)}
