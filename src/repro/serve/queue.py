"""A bounded priority queue of admitted queries.

Ordering is ``(priority, absolute deadline, arrival sequence)`` -- urgent
tenants first, then earliest deadline, then FIFO -- implemented on a heap
with lazy deletion so the batch scheduler can pull arbitrary same-table
requests out of the middle without re-heapifying.
"""

from __future__ import annotations

import heapq

from ..errors import SchedulingError
from .arrivals import QueryRequest


class BoundedPriorityQueue:
    """Priority/deadline queue with a hard capacity bound."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise SchedulingError("queue capacity must be at least 1")
        self.capacity = capacity
        self._heap: list[tuple[int, float, int, QueryRequest]] = []
        self._removed: set[int] = set()
        self._live = 0

    @staticmethod
    def _key(req: QueryRequest) -> tuple[int, float, int]:
        return (req.priority, req.deadline_s, req.req_id)

    def __len__(self) -> int:
        return self._live

    @property
    def full(self) -> bool:
        return self._live >= self.capacity

    def push(self, req: QueryRequest) -> bool:
        """Enqueue; False (and no change) when the queue is at capacity."""
        if self.full:
            return False
        heapq.heappush(self._heap, (*self._key(req), req))
        self._live += 1
        return True

    def _compact(self) -> None:
        while self._heap and self._heap[0][3].req_id in self._removed:
            _, _, _, req = heapq.heappop(self._heap)
            self._removed.discard(req.req_id)

    def peek(self) -> QueryRequest | None:
        self._compact()
        return self._heap[0][3] if self._heap else None

    def pop(self) -> QueryRequest | None:
        self._compact()
        if not self._heap:
            return None
        req = heapq.heappop(self._heap)[3]
        self._live -= 1
        return req

    def remove(self, req: QueryRequest) -> None:
        """Lazy removal of a specific queued request (used when the batch
        scheduler co-schedules it out of priority order)."""
        self._removed.add(req.req_id)
        self._live -= 1

    def snapshot(self) -> list[QueryRequest]:
        """Live requests in priority order (cheap: sorts a copy)."""
        live = [entry[3] for entry in self._heap
                if entry[3].req_id not in self._removed]
        live.sort(key=self._key)
        return live

    def drop_expired(self, now: float) -> list[QueryRequest]:
        """Remove and return every queued request whose deadline passed,
        in priority order (sorting only the expired ones)."""
        expired = [entry[3] for entry in self._heap
                   if entry[1] < now and entry[3].req_id not in self._removed]
        expired.sort(key=self._key)
        for req in expired:
            self.remove(req)
        return expired
