"""Tests for the simulated-time event log."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.simgpu import EventKind, Timeline


def tl_with(*events):
    tl = Timeline()
    for start, end, kind, tag in events:
        tl.add(start, end, kind, tag)
    return tl


class TestBasics:
    def test_empty(self):
        tl = Timeline()
        assert tl.makespan == 0.0
        assert tl.end_time == 0.0
        assert tl.breakdown() == {}

    def test_add_and_makespan(self):
        tl = tl_with((1.0, 2.0, EventKind.KERNEL, "k"),
                     (2.0, 5.0, EventKind.D2H, "d"))
        assert tl.makespan == 4.0
        assert tl.end_time == 5.0

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.add(2.0, 1.0, EventKind.KERNEL, "bad")

    def test_event_duration(self):
        tl = tl_with((0.0, 2.5, EventKind.H2D, "x"))
        assert tl.events[0].duration == 2.5


class TestQueries:
    def test_filter_by_kind(self):
        tl = tl_with((0, 1, EventKind.H2D, "a"), (1, 2, EventKind.KERNEL, "b"))
        assert len(tl.filter(EventKind.H2D)) == 1

    def test_filter_by_tag_prefix(self):
        tl = tl_with((0, 1, EventKind.H2D, "input.x"),
                     (1, 2, EventKind.H2D, "roundtrip.x"))
        assert len(tl.filter(tag_prefix="input")) == 1

    def test_total_time_double_counts_overlap(self):
        tl = tl_with((0, 2, EventKind.KERNEL, "a"), (1, 3, EventKind.KERNEL, "b"))
        assert tl.total_time(EventKind.KERNEL) == 4.0

    def test_busy_time_merges_overlap(self):
        tl = tl_with((0, 2, EventKind.KERNEL, "a"), (1, 3, EventKind.KERNEL, "b"))
        assert tl.busy_time(EventKind.KERNEL) == 3.0

    def test_busy_time_disjoint(self):
        tl = tl_with((0, 1, EventKind.KERNEL, "a"), (5, 7, EventKind.KERNEL, "b"))
        assert tl.busy_time(EventKind.KERNEL) == 3.0

    def test_busy_time_nested(self):
        tl = tl_with((0, 10, EventKind.KERNEL, "a"), (2, 3, EventKind.KERNEL, "b"))
        assert tl.busy_time(EventKind.KERNEL) == 10.0

    def test_bytes_moved(self):
        tl = Timeline()
        tl.add(0, 1, EventKind.H2D, "a", nbytes=100)
        tl.add(1, 2, EventKind.H2D, "b", nbytes=50)
        tl.add(2, 3, EventKind.D2H, "c", nbytes=7)
        assert tl.bytes_moved(EventKind.H2D) == 150
        assert tl.bytes_moved(EventKind.D2H) == 7

    def test_breakdown_by_kind(self):
        tl = tl_with((0, 1, EventKind.H2D, "a"), (1, 3, EventKind.KERNEL, "k"),
                     (3, 4, EventKind.KERNEL, "k2"))
        assert tl.breakdown() == {"h2d": 1.0, "kernel": 3.0}

    def test_tag_breakdown(self):
        tl = tl_with((0, 1, EventKind.KERNEL, "k"), (1, 3, EventKind.KERNEL, "k"))
        assert tl.tag_breakdown() == {"k": 3.0}


class TestExtend:
    def test_extend_with_offset(self):
        a = tl_with((0, 1, EventKind.KERNEL, "a"))
        b = tl_with((0, 2, EventKind.KERNEL, "b"))
        a.extend(b, offset=5.0)
        assert a.end_time == 7.0
        assert a.events[1].start == 5.0

    def test_extend_preserves_metadata(self):
        a = Timeline()
        b = Timeline()
        b.add(0, 1, EventKind.D2H, "x", stream=3, nbytes=42)
        a.extend(b, offset=1.0)
        ev = a.events[0]
        assert (ev.stream, ev.nbytes) == (3, 42)


class TestFreeze:
    def test_freeze_returns_self_and_is_idempotent(self):
        tl = tl_with((0, 1, EventKind.KERNEL, "a"))
        assert not tl.frozen
        assert tl.freeze() is tl
        events = tl.events
        assert tl.frozen and isinstance(events, tuple)
        assert tl.freeze() is tl
        assert tl.events is events

    def test_frozen_equals_unfrozen_twin(self):
        spec = ((0, 1, EventKind.H2D, "a"), (1, 3, EventKind.KERNEL, "b"))
        frozen, twin = tl_with(*spec).freeze(), tl_with(*spec)
        assert frozen == twin and twin == frozen
        assert frozen != tl_with(*spec[:1])
        assert frozen.makespan == twin.makespan == 3.0

    @pytest.mark.parametrize("mutate", [
        lambda tl: tl.add(1, 2, EventKind.KERNEL, "late"),
        lambda tl: tl.extend(tl_with((0, 1, EventKind.KERNEL, "b"))),
        lambda tl: setattr(tl, "events", []),
        lambda tl: delattr(tl, "events"),
        lambda tl: setattr(tl, "note", 1),
    ], ids=["add", "extend", "assign", "delete", "new_attribute"])
    def test_writes_raise_after_freeze(self, mutate):
        tl = tl_with((0, 1, EventKind.KERNEL, "a")).freeze()
        before = tl.events
        with pytest.raises(FrozenInstanceError):
            mutate(tl)
        assert tl.events is before

    def test_frozen_timeline_extends_into_an_unfrozen_one(self):
        src = tl_with((0, 1, EventKind.KERNEL, "a")).freeze()
        dst = Timeline()
        dst.extend(src, offset=2.0)
        assert dst.events[0].start == 2.0
        assert len(src.events) == 1

    def test_memo_derives_once_only_when_frozen(self):
        calls = []

        def derive(tl):
            calls.append(tl)
            return len(tl.events)

        tl = tl_with((0, 1, EventKind.KERNEL, "a"))
        assert tl.memo(derive) == 1
        tl.add(1, 2, EventKind.KERNEL, "b")
        assert tl.memo(derive) == 2          # unfrozen: derived afresh
        tl.freeze()
        assert tl.memo(derive) == tl.memo(derive) == 2
        assert len(calls) == 3

    def test_pickle_round_trip_stays_frozen(self):
        tl = tl_with((0, 1, EventKind.KERNEL, "a")).freeze()
        tl.memo(repr)
        back = pickle.loads(pickle.dumps(tl))
        assert back.frozen and back == tl
        assert isinstance(back.events, tuple)
        with pytest.raises(FrozenInstanceError):
            back.add(1, 2, EventKind.KERNEL, "late")
        # the memo stays behind: the copy derives its own
        assert pickle.dumps(tl) == pickle.dumps(tl_with(
            (0, 1, EventKind.KERNEL, "a")).freeze())

    def test_pickle_round_trip_of_an_unfrozen_timeline(self):
        tl = tl_with((0, 1, EventKind.KERNEL, "a"))
        back = pickle.loads(pickle.dumps(tl))
        assert not back.frozen and back == tl
        back.add(1, 2, EventKind.KERNEL, "b")
        assert len(back.events) == 2
