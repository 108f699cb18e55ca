"""The supervision state machine the cross-process executor runs on.

A cohort is cut into contiguous chunks (:func:`chunk_tasks`) and a chunk is
never *given* to a worker — it is **leased**: ``(dispatch, chunk, attempt)``
plus an optional wall-clock deadline. The lease, not the worker, is the
unit of recovery. :class:`Dispatch` holds one dispatch's leases, chunks and
results, and every way an attempt can end is one of its transitions: a
result arrives (crc32-verified under a fault plan; a mismatch requeues), the
worker reports an error, the holder dies or drops, the deadline passes.
Every requeue costs *that chunk* one attempt of its retry budget and
nothing else — its siblings' leases, workers and budgets are untouched, so
how a fault schedule is recovered depends on the schedule, not on what else
was in flight when a failure was noticed. A chunk out of budget fails;
:class:`~repro.exec.dist.DistExecutor` then degrades it in-process or raises
:class:`~repro.exec.faults.ExecutorFaultError`. Chunk work is deterministic,
so duplicate attempts are harmless and the first verified result wins.

The socket scheduler (:mod:`repro.exec.dist.scheduler`) turns frames, EOFs
and heartbeat timers into those transitions, in passes that the executor
drives on its own thread until the dispatch resolves. Nothing ticks: each
pass sleeps in one ``select`` — over the worker sockets and the local
workers' process sentinels — until an event or the earliest armed deadline
(:func:`wait_budget`).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exec.base import CohortTask
from repro.exec.faults import chunk_checksum

__all__ = [
    "wait_budget",
    "chunk_tasks",
    "Lease",
    "Dispatch",
    "worker_context",
]

#: Shortest sleep :func:`wait_budget` grants for an armed deadline. The
#: scheduler fires a deadline on a strict ``now > deadline``, so a wake-up
#: that lands exactly on it fires nothing; one millisecond later (the
#: granularity of ``poll``/``epoll`` timeouts anyway) it does, without a
#: zero-timeout spin in between.
_MIN_WAIT = 1e-3


def wait_budget(deadlines: Iterable[float | None], now: float) -> float | None:
    """How long a supervisor may block before its next timer is due.

    ``deadlines`` are monotonic instants, ``None`` for a timer that is not
    armed. Returns the distance from ``now`` to the earliest one — the
    ``timeout`` for ``select`` — or ``None`` when nothing is armed: block
    until an event.
    """
    armed = [d for d in deadlines if d is not None]
    if not armed:
        return None
    return max(min(armed) - now, _MIN_WAIT)


def worker_context():
    """The ``multiprocessing`` context worker processes are started from.

    fork shares the parent's address space (cheap replica setup) but is only
    reliably safe on Linux: macOS lists "fork" yet forking after
    NumPy/Accelerate initialization can crash or deadlock workers (which is
    why its platform default is spawn). Elsewhere use the platform default;
    results are identical either way since workers get the same init state.
    """
    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


# --------------------------------------------------------------------- #
# Chunks and leases
# --------------------------------------------------------------------- #
def chunk_tasks(tasks: Sequence, n: int) -> list[list]:
    """Contiguous near-even split preserving task order.

    Chunk boundaries are part of the deterministic fault-key space, so a
    cohort is cut here and nowhere else.
    """
    n = min(n, len(tasks))
    bounds = np.linspace(0, len(tasks), n + 1).astype(int)
    return [list(tasks[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


@dataclass
class Lease:
    """One chunk's live assignment state within a dispatch."""

    chunk: int
    attempts: int = 0  # attempts handed out so far
    worker: str | None = None  # worker_id currently holding the lease
    deadline: float | None = None  # monotonic expiry of the active attempt
    #: worker_id of the previous attempt — a different next assignee is a
    #: "steal" (the telemetry distinguishing rebalance from plain retry).
    last_worker: str | None = None
    done: bool = False
    failed_reason: str | None = None
    #: ``(attempt, worker, outcome)`` per ended attempt; a failed chunk's
    #: warning or error quotes it, so a failure says where each try went.
    history: list = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        return self.done or self.failed_reason is not None


class Dispatch:
    """One dispatch: chunks in, per-chunk results (or failures) out.

    Life cycle per chunk: pending -> leased -> (done | requeued -> pending
    | failed). ``failed`` chunks exhausted their attempts; the executor
    decides whether they degrade in-process or abort the run.

    The transitions below are the only code that verifies a result or spends
    retry budget, and each counts what it did in ``counters`` (the
    executor's ``fault_counters``). ``worker`` names who an event came from:
    only the lease's *current* holder can requeue it — a late error, EOF or
    corrupt frame from a superseded attempt must not clobber the live
    reassignment. A lease handed out by :meth:`assign` has the fault key
    ``(seq, lease.chunk, lease.attempts - 1)``.
    """

    def __init__(
        self,
        seq: int,
        chunks: list[list[CohortTask]],
        *,
        retry_budget: int,
        timeout: float | None,
        counters: dict[str, int],
    ):
        if not chunks:
            raise ValueError("a dispatch needs at least one chunk")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.seq = seq
        self.chunks = chunks
        self.budget = 1 + retry_budget
        self.timeout = timeout
        self.counters = counters
        self.leases = [Lease(chunk=i) for i in range(len(chunks))]
        self.results: list = [None] * len(chunks)
        self._pending = list(range(len(chunks)))  # FIFO of assignable chunks

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_pending(self) -> bool:
        return bool(self._pending)

    def outstanding(self) -> list[Lease]:
        """Leases currently held by a worker (assigned, not resolved)."""
        return [lease for lease in self.leases if lease.worker is not None and not lease.resolved]

    def finished(self) -> bool:
        """Every chunk either completed or exhausted its budget."""
        return all(lease.resolved for lease in self.leases)

    def failures(self) -> list[Lease]:
        return [lease for lease in self.leases if lease.failed_reason is not None]

    def accepts(self, chunk: int) -> bool:
        """Whether a result for ``chunk`` is still wanted.

        Any attempt's result is acceptable until the chunk is done: chunk
        execution is deterministic, so a stale attempt that beats its
        replacement home carries the identical bytes (checksum-verified by
        the caller) — taking it is pure recovery speed, and it can still
        rescue a chunk that has meanwhile run out of attempts.
        """
        return 0 <= chunk < len(self.leases) and not self.leases[chunk].done

    def expired(self, now: float) -> list[Lease]:
        """Outstanding leases whose deadline has passed."""
        return [
            lease
            for lease in self.outstanding()
            if lease.deadline is not None and now > lease.deadline
        ]

    def next_deadline(self) -> float | None:
        """Earliest deadline among outstanding leases; None when none is armed.

        The instant after which :meth:`expired` first has something to
        report — what the supervisor sleeps until. Resolved and requeued
        leases carry no deadline, so a lease that expired and was requeued
        no longer counts.
        """
        return min(
            (lease.deadline for lease in self.outstanding() if lease.deadline is not None),
            default=None,
        )

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def assign(self, worker_id: str, *, now: float | None = None) -> Lease | None:
        """Hand the next pending chunk to ``worker_id``; None when drained.

        Returns the lease with its attempt already counted, so the caller
        keys fault draws off ``attempts - 1`` (attempt indices are 0-based).
        """
        if not self._pending:
            return None
        lease = self.leases[self._pending.pop(0)]
        lease.worker = worker_id
        lease.attempts += 1
        if self.timeout is not None:
            lease.deadline = (time.monotonic() if now is None else now) + self.timeout
        return lease

    def stolen(self, lease: Lease) -> bool:
        """Whether the active assignment moved to a different worker."""
        return lease.last_worker is not None and lease.worker != lease.last_worker

    def _release(self, lease: Lease, outcome: str) -> None:
        lease.history.append((lease.attempts - 1, lease.worker, outcome))
        lease.last_worker = lease.worker
        lease.worker = None
        lease.deadline = None

    def complete(self, chunk: int) -> Lease:
        lease = self.leases[chunk]
        lease.done = True
        # A stale attempt's result can land while the chunk waits to be
        # retried, or after it ran out of attempts: done wins either way.
        lease.failed_reason = None
        if chunk in self._pending:
            self._pending.remove(chunk)
        self._release(lease, "done")
        return lease

    def requeue(self, chunk: int, reason: str) -> bool:
        """Return the lease to the pending queue, or fail it on exhaustion.

        Returns True when the chunk will be retried, False when its budget
        is spent (``failed_reason`` records why).
        """
        lease = self.leases[chunk]
        if lease.resolved:
            return False
        self._release(lease, reason)
        if lease.attempts >= self.budget:
            lease.failed_reason = reason
            return False
        self._pending.append(lease.chunk)
        self.counters["retries"] += 1
        return True

    def fail_pending(self, reason: str) -> list[Lease]:
        """Fail every unassigned pending chunk outright (no workers left)."""
        failed = [self.leases[chunk] for chunk in self._pending]
        for lease in failed:
            lease.failed_reason = reason
            lease.history.append((max(lease.attempts - 1, 0), None, reason))
        self._pending.clear()
        return failed

    def _held_by(self, chunk: int, worker: str) -> bool:
        return self.accepts(chunk) and self.leases[chunk].worker == worker

    def result(self, chunk: int, worker: str, results: list, checksum: int | None) -> None:
        """Verify and take a chunk's results, from any attempt still wanted."""
        if not self.accepts(chunk):
            return
        if checksum is not None and chunk_checksum(results) != checksum:
            self.counters["corrupt_detected"] += 1
            if self._held_by(chunk, worker):
                self.requeue(chunk, "result checksum mismatch")
            return
        self.results[chunk] = results
        self.complete(chunk)

    def error(self, chunk: int, worker: str, reason: str) -> None:
        """``worker`` answered its lease with an exception instead of results."""
        if self._held_by(chunk, worker):
            self.counters["worker_errors"] += 1
            self.requeue(chunk, reason)

    def lost(self, chunk: int, worker: str, reason: str) -> None:
        """``worker`` is gone (died, dropped, went quiet) with ``chunk`` in hand."""
        if self._held_by(chunk, worker):
            self.requeue(chunk, reason)

    def expire(self, now: float) -> list[Lease]:
        """Requeue every lease past its deadline; returns them. Each holder
        is presumed wedged, and what becomes of it is the scheduler's call."""
        expired = self.expired(now)
        for lease in expired:
            self.counters["timeouts"] += 1
            self.requeue(lease.chunk, "lease deadline expired")
        return expired
