"""Lease bookkeeping for one distributed dispatch.

A chunk of cohort tasks is never *given* to a worker — it is **leased**:
``(dispatch, chunk, attempt)`` plus an optional wall-clock deadline. The
lease, not the worker, is the unit of recovery: a missed heartbeat, a
dropped connection, a checksum mismatch, or an expired deadline all
*requeue* the lease (burning one unit of the chunk's retry budget), and
whichever idle worker asks next picks it up — work stealing falls out of
the same queue. Chunk work is deterministic, so duplicate attempts are
harmless and the first verified result wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Lease", "LeaseTable"]


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
    history: list = field(default_factory=list)  # (attempt, worker, outcome)


class LeaseTable:
    """State machine over the chunks of one dispatch.

    Life cycle per chunk: pending -> leased -> (done | requeued -> pending
    | failed). ``failed`` chunks exhausted ``1 + chunk_retries`` attempts;
    the executor decides whether they degrade in-process or abort the run.
    """

    def __init__(self, num_chunks: int, *, retry_budget: int, timeout: float | None):
        if num_chunks < 1:
            raise ValueError("a dispatch needs at least one chunk")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.budget = 1 + retry_budget
        self.timeout = timeout
        self.leases = [Lease(chunk=i) for i in range(num_chunks)]
        self._pending = list(range(num_chunks))  # FIFO of assignable chunks

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_pending(self) -> bool:
        return bool(self._pending)

    def outstanding(self) -> list[Lease]:
        """Leases currently held by a worker (assigned, not resolved)."""
        return [
            lease
            for lease in self.leases
            if lease.worker is not None and not lease.done and lease.failed_reason is None
        ]

    def finished(self) -> bool:
        """Every chunk either completed or exhausted its budget."""
        return all(lease.done or lease.failed_reason is not None for lease in self.leases)

    def failures(self) -> list[Lease]:
        return [lease for lease in self.leases if lease.failed_reason is not None]

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def assign(self, worker_id: str, *, now: float | None = None) -> Lease | None:
        """Hand the next pending chunk to ``worker_id``; None when drained.

        Returns the lease with its attempt already counted, so the caller
        can key fault draws and result validation off ``attempts - 1``
        (attempt indices are 0-based, matching the pool supervisor).
        """
        if not self._pending:
            return None
        chunk = self._pending.pop(0)
        lease = self.leases[chunk]
        lease.worker = worker_id
        lease.attempts += 1
        if self.timeout is not None:
            lease.deadline = (now if now is not None else time.monotonic()) + self.timeout
        else:
            lease.deadline = None
        return lease

    def stolen(self, lease: Lease) -> bool:
        """Whether the active assignment moved to a different worker."""
        return lease.last_worker is not None and lease.worker != lease.last_worker

    def complete(self, chunk: int) -> Lease:
        lease = self.leases[chunk]
        lease.done = True
        lease.history.append((lease.attempts - 1, lease.worker, "done"))
        lease.last_worker = lease.worker
        lease.worker = None
        lease.deadline = None
        return lease

    def requeue(self, chunk: int, reason: str) -> bool:
        """Return the lease to the pending queue, or fail it on exhaustion.

        Returns True when the chunk will be retried, False when its budget
        is spent (``failed_reason`` records why).
        """
        lease = self.leases[chunk]
        if lease.done or lease.failed_reason is not None:
            return False
        lease.history.append((lease.attempts - 1, lease.worker, reason))
        lease.last_worker = lease.worker
        lease.worker = None
        lease.deadline = None
        if lease.attempts >= self.budget:
            lease.failed_reason = reason
            return False
        self._pending.append(lease.chunk)
        return True

    def fail_pending(self, reason: str) -> list[Lease]:
        """Fail every unassigned pending chunk outright (no workers left)."""
        failed = []
        for chunk in list(self._pending):
            lease = self.leases[chunk]
            lease.failed_reason = reason
            lease.history.append((max(lease.attempts - 1, 0), None, reason))
            failed.append(lease)
        self._pending.clear()
        return failed

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

    def held_by(self, worker_id: str) -> list[Lease]:
        return [lease for lease in self.outstanding() if lease.worker == worker_id]

    def accepts(self, chunk: int) -> bool:
        """Whether a result for ``chunk`` is still wanted.

        Any attempt's result is acceptable while the chunk is unresolved:
        chunk execution is deterministic, so a stale attempt that beats its
        replacement home carries the identical bytes (checksum-verified by
        the caller) — taking it is pure recovery speed.
        """
        if not 0 <= chunk < len(self.leases):
            return False
        return not self.leases[chunk].done

    def summary(self) -> dict:
        return {
            "chunks": len(self.leases),
            "attempts": [lease.attempts for lease in self.leases],
            "failed": [lease.chunk for lease in self.failures()],
        }


def chunk_tasks(tasks: Sequence, n: int) -> list[list]:
    """Contiguous near-even split preserving task order.

    Mirrors ``ParallelExecutor._chunk`` exactly — chunk boundaries are part
    of the deterministic fault-key space, so both executors must cut the
    same cohort the same way.
    """
    import numpy as np

    n = min(n, len(tasks))
    bounds = np.linspace(0, len(tasks), n + 1).astype(int)
    return [list(tasks[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
