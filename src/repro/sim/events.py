"""Heap-based event queue with deterministic tie-breaking."""

from __future__ import annotations

import heapq
import itertools
from typing import Any

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled occurrence: ``(time, seq, payload)``.

    ``seq`` is a monotonically increasing insertion counter so simultaneous
    events pop in insertion order — determinism does not depend on payload
    comparability.
    """

    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: Any):
        self.time = time
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Event(t={self.time:.3f}, seq={self.seq}, {self.payload!r})"


class EventQueue:
    """Priority queue over virtual time.

    The queue also owns the simulation clock: ``now`` advances to each
    popped event's timestamp and never runs backwards. Scheduling an event
    in the past raises — a real causality bug would otherwise silently
    reorder history.
    """

    def __init__(self):
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def schedule(self, delay: float, payload: Any) -> Event:
        """Schedule ``payload`` at ``now + delay`` (delay must be ≥ 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self.now + delay, next(self._counter), payload)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, payload: Any) -> Event:
        """Schedule ``payload`` at absolute virtual time ``time`` ≥ now."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        ev = Event(time, next(self._counter), payload)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        ev = heapq.heappop(self._heap)
        self.now = ev.time
        return ev

    def peek(self) -> Event:
        """The earliest event, left in the queue."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0]
