"""SLO accounting for a serve run.

Latency percentiles use the nearest-rank method over exact recorded
samples -- no interpolation, no estimation -- so two same-seed runs render
byte-identical summaries (an acceptance criterion checked in CI).

Definitions:

* **latency** -- completion time minus arrival time (queueing + service);
* **goodput** -- queries that completed *within their deadline* per second
  of served simulated time;
* **shed rate** -- queries refused at admission (queue full or predicted
  deadline miss) plus queries dropped expired at dispatch, over offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class LatencyStats:
    """Exact latency samples with nearest-rank percentiles."""

    samples: list[float] = field(default_factory=list)

    def record(self, latency_s: float) -> None:
        if not math.isfinite(latency_s) or latency_s < 0:
            raise ValueError(f"bad latency sample: {latency_s}")
        self.samples.append(latency_s)

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; 0.0 for an empty series."""
        if not self.samples:
            return 0.0
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0


@dataclass
class DeviceLaneStats:
    """Per-device counters of a multi-device serve run."""

    batches: int = 0
    queries: int = 0
    busy_s: float = 0.0
    #: estimated working-set bytes dispatched to this device (the routing
    #: signal: new batches go to the lane with the least outstanding)
    dispatched_bytes: float = 0.0


@dataclass
class ServeMetrics:
    """Counters and latency series for one serve run."""

    offered: int = 0
    admitted: int = 0
    #: refused at admission: bounded queue had no room
    shed_queue_full: int = 0
    #: refused at admission: predicted wait already blows the deadline
    shed_backpressure: int = 0
    #: dropped at dispatch: deadline passed while queued
    shed_expired: int = 0
    #: shed at dispatch: the static memory check proved the query cannot
    #: fit the lane device (``ServeConfig.shed_unsafe``)
    shed_unsafe: int = 0
    completed: int = 0
    #: completed within deadline
    completed_ok: int = 0
    missed_deadline: int = 0
    batches: int = 0
    #: batches that hit a fault past the retry budget and were re-dispatched
    #: down the degradation ladder
    degraded_batches: int = 0
    #: fault events observed across all batch timelines (``fault.*`` tags)
    faults_observed: int = 0
    #: warning-severity findings from the static pre-flight
    #: (``ServeConfig.analyze``); error findings abort dispatch instead
    analysis_warnings: int = 0
    #: total simulated time the run served (last completion)
    served_s: float = 0.0
    #: device busy time summed over batch makespans
    busy_s: float = 0.0
    latency: LatencyStats = field(default_factory=LatencyStats)
    per_tenant: dict[str, LatencyStats] = field(default_factory=dict)
    batch_sizes: list[int] = field(default_factory=list)
    #: per-device lanes; empty for single-device runs
    per_device: dict[int, DeviceLaneStats] = field(default_factory=dict)

    # -- recording ---------------------------------------------------------
    def with_lanes(self, devices: int) -> "ServeMetrics":
        """Open per-lane counters for a run on `devices` lanes.  Only runs
        with more than one lane get them, so a single-device summary has
        no ``device.<i>.*`` keys."""
        if devices > 1:
            self.per_device = {dev: DeviceLaneStats()
                               for dev in range(devices)}
        return self

    def record_dispatch(self, lane: int, size: int, makespan: float,
                        degraded: bool, faults: int, warnings: int,
                        nbytes: float) -> None:
        """Account one dispatched batch of `size` queries on `lane`."""
        self.batches += 1
        self.batch_sizes.append(size)
        self.busy_s += makespan
        self.degraded_batches += int(degraded)
        self.faults_observed += faults
        self.analysis_warnings += warnings
        stats = self.per_device.get(lane)
        if stats is not None:
            stats.batches += 1
            stats.queries += size
            stats.busy_s += makespan
            stats.dispatched_bytes += nbytes

    def record_completion(self, tenant: str, latency_s: float,
                          within_deadline: bool) -> None:
        self.completed += 1
        if within_deadline:
            self.completed_ok += 1
        else:
            self.missed_deadline += 1
        self.latency.record(latency_s)
        self.per_tenant.setdefault(tenant, LatencyStats()).record(latency_s)

    # -- derived -----------------------------------------------------------
    @property
    def shed(self) -> int:
        return (self.shed_queue_full + self.shed_backpressure
                + self.shed_expired + self.shed_unsafe)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_qps(self) -> float:
        return self.completed_ok / self.served_s if self.served_s > 0 else 0.0

    @property
    def utilization(self) -> float:
        return self.busy_s / self.served_s if self.served_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def check_finite(self) -> None:
        """Raise if any derived metric is NaN/inf (the CI smoke gate)."""
        for key, value in self.summary().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"metric {key!r} is not finite: {value}")

    # -- rendering ---------------------------------------------------------
    def summary(self) -> dict:
        """Flat, deterministic mapping of every reported metric.

        Floats are rounded to fixed precision so the JSON rendering of two
        same-seed runs is byte-identical.
        """
        out: dict[str, object] = {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_queue_full": self.shed_queue_full,
            "shed_backpressure": self.shed_backpressure,
            "shed_expired": self.shed_expired,
            "shed_unsafe": self.shed_unsafe,
            "completed": self.completed,
            "completed_ok": self.completed_ok,
            "missed_deadline": self.missed_deadline,
            "batches": self.batches,
            "degraded_batches": self.degraded_batches,
            "faults_observed": self.faults_observed,
            "analysis_warnings": self.analysis_warnings,
            "mean_batch_size": round(self.mean_batch_size, 6),
            "served_s": round(self.served_s, 9),
            "busy_s": round(self.busy_s, 9),
            "utilization": round(self.utilization, 6),
            "shed_rate": round(self.shed_rate, 6),
            "goodput_qps": round(self.goodput_qps, 6),
            "latency_p50_ms": round(self.latency.percentile(50) * 1e3, 6),
            "latency_p95_ms": round(self.latency.percentile(95) * 1e3, 6),
            "latency_p99_ms": round(self.latency.percentile(99) * 1e3, 6),
            "latency_mean_ms": round(self.latency.mean * 1e3, 6),
            "latency_max_ms": round(self.latency.max * 1e3, 6),
        }
        for tenant in sorted(self.per_tenant):
            stats = self.per_tenant[tenant]
            out[f"tenant.{tenant}.completed"] = len(stats)
            out[f"tenant.{tenant}.p50_ms"] = round(
                stats.percentile(50) * 1e3, 6)
            out[f"tenant.{tenant}.p99_ms"] = round(
                stats.percentile(99) * 1e3, 6)
        for dev in sorted(self.per_device):
            lane = self.per_device[dev]
            out[f"device.{dev}.batches"] = lane.batches
            out[f"device.{dev}.queries"] = lane.queries
            out[f"device.{dev}.busy_s"] = round(lane.busy_s, 9)
            out[f"device.{dev}.dispatched_bytes"] = round(
                lane.dispatched_bytes, 3)
            out[f"device.{dev}.utilization"] = round(
                lane.busy_s / self.served_s if self.served_s > 0 else 0.0, 6)
        return out

    def render(self) -> str:
        s = self.summary()
        lines = [
            "--- serve summary ---",
            f"offered {s['offered']}  admitted {s['admitted']}  "
            f"shed {self.shed} (full {s['shed_queue_full']}, "
            f"backpressure {s['shed_backpressure']}, "
            f"expired {s['shed_expired']}, unsafe {s['shed_unsafe']})",
            f"completed {s['completed']}  within SLO {s['completed_ok']}  "
            f"missed {s['missed_deadline']}",
            f"batches {s['batches']} (mean size {s['mean_batch_size']:.2f}, "
            f"degraded {s['degraded_batches']}, "
            f"faults observed {s['faults_observed']})",
            f"served {s['served_s']*1e3:.1f} ms simulated  "
            f"utilization {s['utilization']:.3f}",
            f"goodput {s['goodput_qps']:.2f} q/s  "
            f"shed rate {s['shed_rate']:.3f}",
            f"latency p50/p95/p99 {s['latency_p50_ms']:.2f}/"
            f"{s['latency_p95_ms']:.2f}/{s['latency_p99_ms']:.2f} ms",
        ]
        for tenant in sorted(self.per_tenant):
            lines.append(
                f"  tenant {tenant:12s} completed "
                f"{s[f'tenant.{tenant}.completed']:5d}  "
                f"p50 {s[f'tenant.{tenant}.p50_ms']:9.2f} ms  "
                f"p99 {s[f'tenant.{tenant}.p99_ms']:9.2f} ms")
        return "\n".join(lines)
