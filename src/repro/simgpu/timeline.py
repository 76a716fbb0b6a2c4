"""Simulated-time event log.

Every strategy run produces a :class:`Timeline`; the breakdown figures
(Fig 9, Fig 10) are computed from these events rather than from ad-hoc
arithmetic, so the accounting is consistent across strategies.

A finished timeline can be frozen (:meth:`Timeline.freeze`): its events
become a tuple of frozen :class:`TimelineEvent` records, and ``add``,
``extend`` into it and every attribute write raise.  The serve
dispatcher freezes every outcome it returns, so a timeline held by the
plan cache and replayed on every hit cannot change, and a value derived
from it -- the cache's canonical rendering -- is computed once and kept
(:meth:`Timeline.memo`).
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Sequence


class EventKind(enum.Enum):
    H2D = "h2d"
    D2H = "d2h"
    KERNEL = "kernel"
    HOST = "host"
    SYNC = "sync"


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One simulated interval.  Slotted: serve-scale runs log hundreds of
    thousands of these, and a per-event ``__dict__`` was the single
    biggest allocation churn in the DES hot loop (BENCH_workers.json
    tracks the resulting events/sec)."""

    start: float
    end: float
    kind: EventKind
    tag: str
    stream: int = 0
    nbytes: float = 0.0
    #: SMs granted to this event while it ran (KERNEL events only; 0 when
    #: unknown, e.g. hand-built timelines)
    sms: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merged_busy(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    ordered = sorted(intervals)
    busy = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for s, e in ordered:
        if cur_start is None:
            cur_start, cur_end = s, e
        elif s <= cur_end:
            cur_end = max(cur_end, e)
        else:
            busy += cur_end - cur_start
            cur_start, cur_end = s, e
    if cur_start is not None:
        busy += cur_end - cur_start
    return busy


@dataclass(eq=False)
class Timeline:
    #: a list while the timeline is built; a tuple once it is frozen
    events: Sequence[TimelineEvent] = field(default_factory=list)

    #: values derived from a frozen timeline, keyed by the function that
    #: derived them; ``None`` until :meth:`freeze`, so it is also the flag
    _memos: ClassVar[dict | None] = None

    def freeze(self) -> "Timeline":
        """Make the timeline immutable and return it (idempotent)."""
        if self._memos is None:
            object.__setattr__(self, "events", tuple(self.events))
            object.__setattr__(self, "_memos", {})
        return self

    @property
    def frozen(self) -> bool:
        return self._memos is not None

    def memo(self, derive: Callable[["Timeline"], Any]) -> Any:
        """``derive(self)``, computed once per frozen timeline; an unfrozen
        timeline can still change, so it is derived afresh on every call."""
        memos = self._memos
        if memos is None:
            return derive(self)
        if derive not in memos:
            memos[derive] = derive(self)
        return memos[derive]

    def __setattr__(self, name: str, value: Any) -> None:
        if self._memos is not None:
            raise FrozenInstanceError(f"cannot assign {name!r}: Timeline is frozen")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._memos is not None:
            raise FrozenInstanceError(f"cannot delete {name!r}: Timeline is frozen")
        object.__delattr__(self, name)

    def __eq__(self, other: object) -> bool:
        # a frozen timeline (tuple events) equals an unfrozen twin (list)
        if not isinstance(other, Timeline):
            return NotImplemented
        return tuple(self.events) == tuple(other.events)

    def __reduce__(self):
        # memos stay in their process: the unpickled copy derives afresh
        if self._memos is None:
            return (Timeline, (self.events,))
        return (_frozen_timeline, (self.events,))

    def add(
        self,
        start: float,
        end: float,
        kind: EventKind,
        tag: str,
        stream: int = 0,
        nbytes: float = 0.0,
        sms: int = 0,
    ) -> TimelineEvent:
        if end < start:
            raise ValueError(f"event ends before it starts: {tag}")
        ev = TimelineEvent(start, end, kind, tag, stream, nbytes, sms)
        try:  # free on the DES hot path; a frozen timeline's tuple fails
            self.events.append(ev)
        except AttributeError:
            raise FrozenInstanceError("cannot add: Timeline is frozen") from None
        return ev

    def extend(self, other: "Timeline", offset: float = 0.0) -> None:
        if self._memos is not None:
            raise FrozenInstanceError("cannot extend: Timeline is frozen")
        for ev in other.events:
            self.events.append(
                TimelineEvent(
                    ev.start + offset, ev.end + offset, ev.kind, ev.tag,
                    ev.stream, ev.nbytes, ev.sms,
                )
            )

    # -- queries ------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """End-to-end simulated time."""
        if not self.events:
            return 0.0
        lo = hi = None
        for e in self.events:
            if lo is None or e.start < lo:
                lo = e.start
            if hi is None or e.end > hi:
                hi = e.end
        return hi - lo

    @property
    def end_time(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def filter(self, kind: EventKind | None = None, tag_prefix: str | None = None):
        evs = self.events
        if kind is not None:
            evs = [e for e in evs if e.kind is kind]
        if tag_prefix is not None:
            evs = [e for e in evs if e.tag.startswith(tag_prefix)]
        return evs

    def busy_time(self, kind: EventKind | None = None, tag_prefix: str | None = None) -> float:
        """Union-of-intervals time spent in matching events (overlap-aware)."""
        return _merged_busy(
            (e.start, e.end) for e in self.filter(kind, tag_prefix)
        )

    def total_time(self, kind: EventKind | None = None, tag_prefix: str | None = None) -> float:
        """Sum of durations of matching events (double-counts overlap)."""
        return sum(e.duration for e in self.filter(kind, tag_prefix))

    def bytes_moved(self, kind: EventKind) -> float:
        return sum(e.nbytes for e in self.filter(kind))

    def breakdown(self) -> dict[str, float]:
        """Serial-time breakdown by event kind (sum of durations)."""
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.kind.value] = out.get(ev.kind.value, 0.0) + ev.duration
        return out

    def tag_breakdown(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.tag] = out.get(ev.tag, 0.0) + ev.duration
        return out


def _frozen_timeline(events: tuple[TimelineEvent, ...]) -> Timeline:
    return Timeline(events).freeze()
