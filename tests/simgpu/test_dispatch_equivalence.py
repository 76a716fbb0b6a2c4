"""The DES dispatch order, pinned event for event.

Seeded multi-stream programs mix cross-stream signal/wait chains, H2D/D2H
transfers, kernels that contend for the SM pool and host commands.  Each
runs under ``FaultPlan.chaos`` at rates 0 and 0.05; the sha256 of every
timeline (and of the fault that escaped, if one did) is folded into one
digest per rate.  The digests were computed with the engine that re-sorted
the stream heads after every dispatching pass, so a change to how the
dispatch loop rescans must leave them unchanged.
"""

import hashlib
import random

import pytest

from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.simgpu import DeviceSpec, EventKind, KernelLaunchSpec, SimEngine, SimStream
from repro.simgpu.pcie import HostMemory

DEVICE = DeviceSpec()
SEEDS = range(48)

#: sha256 over the per-program digests of SEEDS, per chaos rate
PINNED = {
    0.0: "c30f87e78a306c089be199f9c000c2103b9eaf3b0a4af040e13e6f966540156b",
    0.05: "0b033a974e807389e0144dd53ca9d4da51adfa54d524a0c8e8605fb7a0765dcc",
}
#: events_digest of the signal/wait-versus-SM-fill handoff program
PINNED_HANDOFF = (
    "5084b00c989cbf902e32ce47b243d3160633141ec7ed3fc8d6dd7a735fb0b7b8")


def _kernel(tag: str, n: int, ctas: int) -> KernelLaunchSpec:
    return KernelLaunchSpec(tag, n, ctas, 256, 20, 4.0 * n, 2.0 * n, 40.0 * n)


def random_program(seed: int) -> list[SimStream]:
    """Commands are generated in one global order; a wait only names an
    event some other stream signaled earlier in that order, so the
    cross-stream dependencies form a DAG and the program cannot deadlock."""
    rng = random.Random(seed)
    streams = [SimStream(stream_id=sid) for sid in range(rng.randint(2, 6))]
    signaled_by: list[tuple[int, int]] = []   # (event id, signaling stream)
    for c in range(rng.randint(8, 40)):
        sid = rng.randrange(len(streams))
        s = streams[sid]
        tag = f"s{sid}.c{c}"
        kind = rng.choice(["h2d", "d2h", "kernel", "kernel", "host",
                           "signal", "wait"])
        # few distinct sizes, and empty kernels and host work, so
        # completions tie (the sanitizer rejects empty transfers)
        scale = rng.choice([0, 1, 2, 4])
        memory = rng.choice([HostMemory.PINNED, HostMemory.PAGED])
        if kind == "h2d":
            s.h2d(max(scale, 1) * 4e6, memory, tag=tag)
        elif kind == "d2h":
            s.d2h(max(scale, 1) * 4e6, memory, tag=tag)
        elif kind == "host":
            s.host(scale * 1e-4, tag=tag)
        elif kind == "kernel":
            # 1..112 CTAs: small grids co-run, large ones take every SM
            s.kernel(_kernel(tag, scale * 10**6, rng.choice([1, 8, 24, 112])),
                     tag=tag)
        elif kind == "signal":
            signaled_by.append((c, sid))
            s.signal(c, tag=f"{tag}.signal")
        else:
            others = [e for e, by in signaled_by if by != sid]
            if others:
                s.wait_event(rng.choice(others), tag=f"{tag}.wait")
    return streams


def events_digest(tl) -> str:
    h = hashlib.sha256()
    for e in tl.events:
        h.update(repr((e.kind.value, repr(e.start), repr(e.end), e.tag,
                       e.stream, e.nbytes, e.sms)).encode())
    return h.hexdigest()


def chaos_injector(seed: int, rate: float) -> FaultInjector:
    """A short stall timeout, so stalls are abandoned and re-issued, and no
    retries on every fourth seed, so faults escape and prune the queues."""
    retry = RetryPolicy(max_retries=0 if seed % 4 == 0 else 3,
                        stall_timeout_s=2e-3)
    return FaultInjector(FaultPlan.chaos(seed, rate=rate, retry=retry))


def timeline_digest(streams: list[SimStream], rate: float, seed: int) -> str:
    """The run's events, or the fault that escaped and what it left queued."""
    injector = chaos_injector(seed, rate)
    try:
        return events_digest(SimEngine(DEVICE, faults=injector).run(streams))
    except FaultError as exc:
        left = (type(exc).__name__, str(exc), [len(s.commands) for s in streams])
        return hashlib.sha256(repr(left).encode()).hexdigest()


def program_digest(rate: float) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(timeline_digest(random_program(seed), rate, seed).encode())
    return h.hexdigest()


@pytest.mark.parametrize("rate", sorted(PINNED))
def test_random_programs_match_pinned_digest(rate):
    assert program_digest(rate) == PINNED[rate]


def test_chaos_programs_cover_retries_stalls_and_escapes():
    """The 0.05 digest covers retried, abandoned and escaped commands."""
    tags, escaped = [], 0
    for seed in SEEDS:
        try:
            tl = SimEngine(DEVICE, faults=chaos_injector(seed, 0.05)).run(
                random_program(seed))
        except FaultError:
            escaped += 1
            continue
        tags.extend(e.tag for e in tl.events)
    assert escaped
    assert any(t.startswith("fault.stall.") for t in tags)
    assert any(t.startswith("fault.") and not t.startswith("fault.stall.")
               for t in tags)


def test_signal_releases_waiter_while_kernel_fills_the_sms():
    """In one pass a signal releases a waiting stream and a kernel takes
    every free SM.  The released stream's wait completes on the next pass;
    its kernel cannot dispatch until the SMs free up."""
    waiter = SimStream(stream_id=0)
    waiter.wait_event(7, tag="wait")             # lowest seq: skipped first
    waiter.kernel(_kernel("after_wait", 10**6, 112), tag="after_wait")
    signaler = SimStream(stream_id=1).signal(7, tag="signal")
    filler = SimStream(stream_id=2).kernel(_kernel("fill", 4 * 10**6, 112),
                                           tag="fill")
    tl = SimEngine(DEVICE, faults=FaultInjector(FaultPlan.off())).run(
        [waiter, signaler, filler])
    ev = {e.tag: e for e in tl.events}
    assert ev["signal"].start == ev["wait"].start == ev["fill"].start == 0.0
    assert ev["fill"].sms == DEVICE.num_sms
    assert ev["after_wait"].start == ev["fill"].end
    assert [e.tag for e in tl.events if e.kind is EventKind.SYNC] == [
        "signal", "wait"]
    assert events_digest(tl) == PINNED_HANDOFF
