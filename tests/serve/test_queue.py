"""Tests for the bounded priority/deadline queue."""

import random

import pytest

from repro.errors import SchedulingError
from repro.serve import BoundedPriorityQueue, QueryRequest


def req(req_id, priority=1, deadline=1.0, arrival=0.0):
    return QueryRequest(req_id=req_id, tenant="t", kind="q6",
                        arrival_s=arrival, priority=priority,
                        deadline_s=deadline, elements=1000)


class TestBoundedPriorityQueue:
    def test_priority_order(self):
        q = BoundedPriorityQueue(8)
        q.push(req(0, priority=2))
        q.push(req(1, priority=0))
        q.push(req(2, priority=1))
        assert [q.pop().req_id for _ in range(3)] == [1, 2, 0]

    def test_deadline_breaks_priority_ties(self):
        q = BoundedPriorityQueue(8)
        q.push(req(0, deadline=3.0))
        q.push(req(1, deadline=1.0))
        q.push(req(2, deadline=2.0))
        assert [q.pop().req_id for _ in range(3)] == [1, 2, 0]

    def test_fifo_breaks_remaining_ties(self):
        q = BoundedPriorityQueue(8)
        for i in range(4):
            q.push(req(i))
        assert [q.pop().req_id for _ in range(4)] == [0, 1, 2, 3]

    def test_capacity_bound(self):
        q = BoundedPriorityQueue(2)
        assert q.push(req(0)) and q.push(req(1))
        assert q.full
        assert not q.push(req(2))
        assert len(q) == 2

    def test_pop_empty_returns_none(self):
        q = BoundedPriorityQueue(2)
        assert q.pop() is None
        assert q.peek() is None

    def test_remove_mid_queue(self):
        q = BoundedPriorityQueue(8)
        rs = [req(i) for i in range(3)]
        for r in rs:
            q.push(r)
        q.remove(rs[1])
        assert len(q) == 2
        assert [q.pop().req_id for _ in range(2)] == [0, 2]
        assert q.pop() is None

    def test_remove_frees_capacity(self):
        q = BoundedPriorityQueue(2)
        a, b = req(0), req(1)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert not q.full
        assert q.push(req(2))

    def test_snapshot_is_priority_ordered_and_nondestructive(self):
        q = BoundedPriorityQueue(8)
        q.push(req(0, priority=2))
        q.push(req(1, priority=0))
        snap = q.snapshot()
        assert [r.req_id for r in snap] == [1, 0]
        assert len(q) == 2

    def test_drop_expired(self):
        q = BoundedPriorityQueue(8)
        q.push(req(0, deadline=0.5))
        q.push(req(1, deadline=2.0))
        expired = q.drop_expired(1.0)
        assert [r.req_id for r in expired] == [0]
        assert len(q) == 1
        assert q.pop().req_id == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(SchedulingError):
            BoundedPriorityQueue(0)


@pytest.mark.parametrize("seed", range(25))
def test_drop_expired_matches_snapshot_definition(seed):
    """Property: drop_expired returns exactly the snapshot's expired
    requests, in snapshot order, and leaves the rest queued -- across
    pushes, pops and lazy mid-queue removals (whose heap entries linger
    until compacted)."""
    rng = random.Random(seed)
    q = BoundedPriorityQueue(64)
    next_id = 0
    for _ in range(300):
        op = rng.random()
        if op < 0.5:
            # coarse deadlines and few priorities: ties fall to req_id
            q.push(req(next_id, priority=rng.randrange(3),
                       deadline=rng.randrange(12) / 4))
            next_id += 1
        elif op < 0.7 and len(q):
            q.remove(rng.choice(q.snapshot()))
        elif op < 0.8:
            q.pop()
        else:
            now = rng.randrange(14) / 4
            before = q.snapshot()
            want = [r for r in before if r.deadline_s < now]
            got = q.drop_expired(now)
            assert got == want
            assert q.snapshot() == [r for r in before if r.deadline_s >= now]
            assert len(q) == len(before) - len(want)
