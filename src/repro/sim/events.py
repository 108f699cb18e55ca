"""Heap-based event queue with deterministic tie-breaking."""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
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

    Events whose payload has a true ``reads`` attribute (they read a
    result when handled) are also kept in pop order in a side index, so
    :meth:`reads_after` and :meth:`reads_before` cost O(read events
    queued), however many other events wait. The index is rebuilt on
    unpickling, not stored, and so is :attr:`read_delay`, which restarts
    at +∞.
    """

    def __init__(self):
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._reads: list[Event] = []
        #: The shortest delay, from ``now``, any read event has been queued
        #: with; +∞ until one is.
        self.read_delay = math.inf

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_reads", "read_delay")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reads = sorted(ev for ev in self._heap if getattr(ev.payload, "reads", False))
        self.read_delay = math.inf

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def schedule_at(self, time: float, payload: Any) -> Event:
        """Schedule ``payload`` at absolute virtual time ``time`` ≥ now."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        ev = Event(time, next(self._counter), payload)
        heapq.heappush(self._heap, ev)
        if getattr(payload, "reads", False):
            bisect.insort(self._reads, ev)
            self.read_delay = min(self.read_delay, time - self.now)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        ev = heapq.heappop(self._heap)
        if self._reads and self._reads[0] is ev:
            del self._reads[0]
        self.now = ev.time
        return ev

    def peek(self) -> Event:
        """The earliest event, left in the queue."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0]

    def reads_after(self, n: int) -> list:
        """Payloads of the queued read events with at least ``n`` read
        events ahead of them, in pop order."""
        return [ev.payload for ev in self._reads[n:]]

    def reads_before(self, n: int, time: float) -> list:
        """Payloads of the queued read events with fewer than ``n`` read
        events ahead of them that are due before ``time``, in pop order."""
        return [
            ev.payload for ev in itertools.takewhile(lambda ev: ev.time < time, self._reads[:n])
        ]
