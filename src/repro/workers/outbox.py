"""Idempotent dispatch keys and the result outbox.

Every dispatch the pool routes is identified by a :class:`DispatchKey` --
``(seed, tenant, query_fingerprint, sequence)`` -- and its outcome is
recorded in a :class:`ResultOutbox` before the serve loop ever sees it.
The outbox is the pool's source of truth for exactly-once semantics:

* a **duplicate** dispatch (same key sent again, e.g. a retry after a
  suspected-lost reply) returns the recorded result and bumps the entry's
  hit counter -- the simulation never re-executes;
* an **acknowledgement** (the serve loop finished processing the
  completion) marks the entry acked; the pool-level sanitizer
  (:mod:`repro.validate.workers`) requires every recorded entry to be
  acked *exactly once*;
* after a worker crash, the parent **replays** its entries into the
  fresh process: acked entries are restored verbatim (no re-execution),
  unacked entries are re-dispatched -- dispatch purity
  (:mod:`repro.serve.dispatch`) guarantees the re-run returns the same
  bytes.

Conservation invariant (checked by the sanitizer): every routed dispatch
attempt either recorded a new entry or hit an existing one --
``attempts == recorded + hits`` -- and nothing is ever dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class DispatchKey:
    """Identity of one dispatch, stable across retries and replays.

    ``seed`` scopes keys to one serve run; ``tenant`` is the routing
    tenant (the batch head's); ``query_fingerprint`` content-hashes the
    batch's plans and row stats (:func:`repro.serve.dispatch
    .batch_fingerprint`); ``sequence`` is the serve loop's batch index,
    which makes two content-identical batches at different points of the
    run distinct dispatches.
    """

    seed: int
    tenant: str
    query_fingerprint: str
    sequence: int

    @property
    def token(self) -> str:
        """Human-readable rendering (full fingerprint kept: truncating it
        would manufacture the collisions SRV602 exists to catch)."""
        return (f"{self.seed}:{self.tenant}:{self.query_fingerprint}"
                f":{self.sequence}")


@dataclass
class OutboxEntry:
    """One recorded dispatch outcome and its delivery state."""

    key: DispatchKey
    result: Any
    #: worker that executed (or most recently restored) the entry
    worker: int
    #: duplicate dispatches served from this entry instead of re-executing
    hits: int = 0
    #: times the entry was acknowledged (the sanitizer wants exactly 1)
    ack_count: int = 0
    #: completion payload attached at ack time: (t_end, completions)
    ack_payload: Any = None
    #: times the entry was replayed into a respawned worker
    replays: int = 0

    @property
    def acked(self) -> bool:
        return self.ack_count > 0


@dataclass
class ResultOutbox:
    """Parent-side record of every dispatch outcome, keyed for idempotency."""

    entries: dict[DispatchKey, OutboxEntry] = field(default_factory=dict)
    #: dispatch attempts routed through the outbox (records + hits)
    attempts: int = 0

    # -- the idempotent path ------------------------------------------------
    def lookup(self, key: DispatchKey) -> OutboxEntry | None:
        """One dispatch attempt: the recorded entry (hit counted) or None
        (caller must execute and :meth:`record`)."""
        self.attempts += 1
        entry = self.entries.get(key)
        if entry is not None:
            entry.hits += 1
        return entry

    def record(self, key: DispatchKey, result: Any, worker: int
               ) -> OutboxEntry:
        if key in self.entries:
            raise ValueError(f"outbox entry already recorded: {key.token}")
        entry = OutboxEntry(key=key, result=result, worker=worker)
        self.entries[key] = entry
        return entry

    def ack(self, key: DispatchKey, payload: Any) -> OutboxEntry:
        """Mark `key` acknowledged.  Double-acks are *counted*, not raised:
        the pool sanitizer reports them as violations post-run."""
        entry = self.entries[key]
        entry.ack_count += 1
        if entry.ack_payload is None:
            entry.ack_payload = payload
        return entry

    def note_replay(self, key: DispatchKey, worker: int) -> None:
        entry = self.entries[key]
        entry.replays += 1
        entry.worker = worker

    # -- queries ------------------------------------------------------------
    def for_worker(self, worker: int) -> Iterator[OutboxEntry]:
        """Entries currently owned by `worker`, in recording order (dicts
        preserve insertion order, and recording order is dispatch order)."""
        for entry in self.entries.values():
            if entry.worker == worker:
                yield entry

    def unacked(self) -> list[OutboxEntry]:
        return [e for e in self.entries.values() if not e.acked]

    @property
    def recorded(self) -> int:
        return len(self.entries)

    @property
    def hits(self) -> int:
        return sum(e.hits for e in self.entries.values())

    @property
    def acked(self) -> int:
        return sum(1 for e in self.entries.values() if e.acked)

    @property
    def replays(self) -> int:
        return sum(e.replays for e in self.entries.values())

    def counters(self) -> dict[str, int]:
        """Flat conservation counters for reports and the sanitizer."""
        return {
            "outbox.attempts": self.attempts,
            "outbox.recorded": self.recorded,
            "outbox.hits": self.hits,
            "outbox.acked": self.acked,
            "outbox.replays": self.replays,
        }


__all__ = ["DispatchKey", "OutboxEntry", "ResultOutbox"]
