"""Device and platform description (the paper's Table II environment)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .calibration import Calibration, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class Occupancy:
    """Resolved occupancy for one kernel configuration."""

    ctas_per_sm: int
    resident_threads: int
    limited_by: str
    #: the SM's resident-thread ceiling (from the device that resolved this);
    #: 0 when unknown, which pins the fraction to 0.0
    max_threads_per_sm: int = 0

    @property
    def occupancy_fraction(self) -> float:
        """Resident threads as a fraction of the SM's thread ceiling."""
        if self.max_threads_per_sm <= 0:
            return 0.0
        return min(1.0, self.resident_threads / self.max_threads_per_sm)


@dataclass(frozen=True)
class DeviceSpec:
    """A simulated GPU device.

    Wraps the calibration constants with derived quantities used by the
    timing model: occupancy resolution, utilization scaling, and the copy /
    compute engine counts that the discrete-event engine schedules against.
    The C2070 has two copy engines, so one H2D transfer, one D2H transfer
    and one kernel can be in flight simultaneously (paper SS IV-B).
    """

    calib: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)
    num_copy_engines: int = 2

    def __hash__(self) -> int:
        # cache the (recursive, calibration-deep) frozen-dataclass hash:
        # the engine's (device, launch spec) timing caches hash the device
        # on every kernel dispatch in the DES hot loop, and so do
        # ``contended_device`` and every memo key that holds a device
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.calib, self.num_copy_engines))
            object.__setattr__(self, "_hash", h)
        return h

    # -- basic properties -------------------------------------------------
    @property
    def name(self) -> str:
        return self.calib.gpu.name

    @property
    def global_mem_bytes(self) -> int:
        return self.calib.gpu.global_mem_bytes

    @property
    def mem_bw(self) -> float:
        return self.calib.gpu.mem_bw

    @property
    def inst_rate(self) -> float:
        return self.calib.gpu.inst_rate

    @property
    def num_sms(self) -> int:
        return self.calib.gpu.num_sms

    @property
    def kernel_launch_s(self) -> float:
        return self.calib.gpu.kernel_launch_s

    # -- occupancy ---------------------------------------------------------
    def occupancy(
        self,
        threads_per_cta: int,
        regs_per_thread: int,
        shared_bytes_per_cta: int = 0,
    ) -> Occupancy:
        """Resolve how many CTAs of this shape fit on one SM.

        Mirrors the Fermi occupancy calculation: the binding constraint is
        whichever of registers, threads, CTA-slots, or shared memory runs
        out first.
        """
        g = self.calib.gpu
        threads_per_cta = max(1, int(threads_per_cta))
        regs_per_thread = max(1, min(int(regs_per_thread), g.max_regs_per_thread))
        shared_bytes_per_cta = int(shared_bytes_per_cta)

        by_threads = g.max_threads_per_sm // threads_per_cta
        by_regs = g.regs_per_sm // (regs_per_thread * threads_per_cta)
        by_slots = g.max_ctas_per_sm
        by_shared = (
            g.shared_mem_per_sm // shared_bytes_per_cta
            if shared_bytes_per_cta > 0
            else by_slots
        )
        limits = {
            "threads": by_threads,
            "registers": by_regs,
            "cta_slots": by_slots,
            "shared_memory": by_shared,
        }
        limiter = min(limits, key=lambda k: limits[k])
        ctas = max(0, limits[limiter])
        return Occupancy(
            ctas_per_sm=ctas,
            resident_threads=ctas * threads_per_cta,
            limited_by=limiter,
            max_threads_per_sm=g.max_threads_per_sm,
        )

    # -- utilization -------------------------------------------------------
    def utilization(self, total_threads: int, granted_sms: int | None = None,
                    kind: str = "inst") -> float:
        """Fraction of peak throughput achievable with `total_threads` live.

        Throughput ramps linearly with resident threads until the
        saturation point, then is flat.  Instruction throughput
        (``kind="inst"``) needs ~2/3 residency to hide pipeline latency;
        memory bandwidth (``kind="mem"``) saturates much earlier.  When
        only a subset of SMs is granted (concurrent kernels), peak scales
        with the granted fraction.
        """
        g = self.calib.gpu
        sms = self.num_sms if granted_sms is None else max(1, min(granted_sms, self.num_sms))
        sm_frac = sms / self.num_sms
        residency = (g.saturation_residency if kind == "inst"
                     else g.saturation_residency_mem)
        saturate_at = residency * g.max_resident_threads * sm_frac
        if saturate_at <= 0:
            return sm_frac
        ramp = min(1.0, total_threads / saturate_at)
        return sm_frac * ramp

    def sms_needed(self, num_ctas: int, occ: Occupancy) -> int:
        """SMs needed to make all CTAs of a launch co-resident (capped)."""
        if occ.ctas_per_sm <= 0:
            return self.num_sms
        return min(self.num_sms, max(1, math.ceil(num_ctas / occ.ctas_per_sm)))


def describe_environment(device: DeviceSpec) -> str:
    """Render the Table II experiment environment for bench headers."""
    c = device.calib
    lines = [
        "Experiment environment (simulated, per paper Table II):",
        f"  CPU   : {c.cpu.name}",
        f"  Memory: {c.cpu.host_mem_bytes >> 30} GB host",
        f"  GPU   : {c.gpu.name}, "
        f"{c.gpu.global_mem_bytes >> 30} GB device memory, "
        f"{c.gpu.num_sms * c.gpu.cores_per_sm} cores @ "
        f"{c.gpu.clock_hz / 1e9:.2f} GHz",
        f"  PCIe  : 2.0 x16 model, pinned H2D "
        f"{c.pcie.pinned_h2d_bw / 1e9:.1f} GB/s asymptotic",
    ]
    return "\n".join(lines)
