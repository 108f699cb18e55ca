"""Deterministic fault injection for the client-execution layer.

The executor is the one component whose failures are *infrastructure*, not
simulation: a worker process can crash, hang, or hand back a corrupted
chunk of results. This module makes those failures first-class and — like
the scenario engine — bit-reproducible: a :class:`FaultPlan` derives every
injection decision from a seeded, name-keyed substream, so a chaos run
with ``faults="crash:0.2+corrupt:0.1"`` schedules the *same* faults on
every execution, regardless of wall-clock timing or retry interleaving.

Grammar (mirrors the scenario grammar)::

    spec     := atom ("+" atom)*
    atom     := family ":" probability        # probability in [0, 1]
    family   := "crash" | "hang" | "corrupt" | "drop" | "delay"

- ``crash:<p>`` — with probability ``p`` per dispatched chunk, the worker
  process dies mid-chunk (``os._exit``), simulating an OOM-kill or
  segfault. The executor loses the chunk *and* a worker.
- ``hang:<p>`` — the worker sleeps past any reasonable deadline,
  simulating a wedged process; only a per-chunk timeout recovers this.
- ``corrupt:<p>`` — the chunk's result weights are corrupted after the
  integrity checksum is taken, simulating bit-rot in transit; the parent
  detects the mismatch and redispatches.
- ``drop:<p>`` — the worker abruptly severs its scheduler connection on
  receipt of the lease (a network partition / dropped TCP session), then
  reconnects and re-registers; the scheduler requeues the lease.
- ``delay:<p>`` — the worker stalls for ``delay_seconds`` before sending
  its result frame (a congested or flapping link); recovery is either
  patience or, past the lease deadline, a redispatch.

Decisions are keyed by ``(dispatch, chunk, attempt)``: the first attempt
of a chunk may draw a fault while its redispatch draws fresh — so capped
retries make progress, and the schedule is independent of execution order
(two chunks' draws never share a stream).
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.sim.client import LocalTrainingResult

__all__ = [
    "FAULT_FAMILIES",
    "FaultSpec",
    "FaultPlan",
    "ExecutorFaultError",
    "parse_faults",
    "chunk_checksum",
    "corrupt_results",
    "run_attempt",
]

FAULT_FAMILIES = ("crash", "hang", "corrupt", "drop", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """Per-family injection probabilities (0 disables a family)."""

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    drop: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        for family in FAULT_FAMILIES:
            p = getattr(self, family)
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"fault probability must be in [0, 1], got {family}:{p}"
                )


def parse_faults(text: str | None) -> FaultSpec | None:
    """Parse a fault spec string (``None``/``"none"``/``""`` → no plan).

    >>> parse_faults("crash:0.2+corrupt:0.1")
    FaultSpec(crash=0.2, hang=0.0, corrupt=0.1, drop=0.0, delay=0.0)
    """
    if text is None:
        return None
    text = text.strip()
    if text in ("", "none", "off"):
        return None
    probs: dict[str, float] = {}
    for atom in text.split("+"):
        atom = atom.strip()
        if not atom:
            raise ValueError(f"empty atom in fault spec {text!r}")
        family, sep, arg = atom.partition(":")
        if family not in FAULT_FAMILIES:
            raise ValueError(
                f"unknown fault family {family!r} in {text!r}; "
                f"options: {', '.join(FAULT_FAMILIES)}"
            )
        if not sep or not arg:
            raise ValueError(
                f"fault atom {atom!r} needs a probability, e.g. {family}:0.2"
            )
        try:
            p = float(arg)
        except ValueError:
            raise ValueError(f"bad fault probability {arg!r} in {atom!r}") from None
        if family in probs:
            raise ValueError(f"fault family {family!r} given twice in {text!r}")
        probs[family] = p
    return FaultSpec(**probs)


class FaultPlan:
    """Seeded, order-independent fault schedule over dispatched chunks.

    Picklable pure data: the plan travels to workers in the init
    payload, and both sides (worker executing a fault, parent metering
    it) derive identical decisions from the same key.
    """

    def __init__(
        self,
        spec: FaultSpec,
        *,
        seed: int = 0,
        hang_seconds: float = 3600.0,
        delay_seconds: float = 0.25,
    ):
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if delay_seconds <= 0:
            raise ValueError("delay_seconds must be positive")
        self.spec = spec
        self.seed = int(seed)
        #: How long an injected hang sleeps; recovery must come from the
        #: executor's per-chunk timeout, never from the sleep expiring.
        self.hang_seconds = float(hang_seconds)
        #: How long an injected ``delay`` stalls the result frame: long
        #: enough to reorder arrivals, short enough to resolve by patience
        #: (no lease deadline required).
        self.delay_seconds = float(delay_seconds)

    def _draw(self, family: str, dispatch: int, chunk: int, attempt: int) -> bool:
        p = getattr(self.spec, family)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        # Same keying discipline as SeedSequenceFactory: a sha256 of the
        # stream name mixed with the run seed, so the decision for one
        # (dispatch, chunk, attempt) never depends on any other draw.
        name = f"faults/{family}/{dispatch}/{chunk}/{attempt}"
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, *key]))
        return bool(rng.random() < p)

    def chunk_faults(self, dispatch: int, chunk: int, attempt: int) -> tuple[str, ...]:
        """Families injected into one dispatched chunk attempt."""
        return tuple(
            f for f in FAULT_FAMILIES if self._draw(f, dispatch, chunk, attempt)
        )


class ExecutorFaultError(RuntimeError):
    """A chunk exhausted its retry budget and degradation is disabled.

    Replaces the raw ``BrokenProcessPool``-style traceback with everything
    an operator needs: which executor, which chunk, how big the pool is,
    and how many recovery attempts were spent.
    """

    def __init__(
        self,
        *,
        executor: str,
        chunk: int,
        chunk_size: int,
        num_workers: int,
        attempts: int,
        retry_budget: int,
        counters: dict | None = None,
        reason: str = "",
    ):
        self.executor = executor
        self.chunk = chunk
        self.chunk_size = chunk_size
        self.num_workers = num_workers
        self.attempts = attempts
        self.retry_budget = retry_budget
        self.counters = dict(counters or {})
        detail = f" ({reason})" if reason else ""
        stats = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        super().__init__(
            f"executor {executor!r}: chunk {chunk} ({chunk_size} tasks) failed "
            f"{attempts} attempts across a {num_workers}-worker pool and the "
            f"retry budget ({retry_budget}) is exhausted{detail}. "
            f"Recovery counters: {stats or 'none'}. "
            "Raise chunk_retries, set a (larger) chunk_timeout, or enable "
            "fault_degrade to finish the cohort in-process."
        )


# --------------------------------------------------------------------- #
# Result integrity
# --------------------------------------------------------------------- #
def chunk_checksum(results: "Sequence[LocalTrainingResult]") -> int:
    """CRC32 over a chunk's result payloads.

    Computed by the worker *before* any injected corruption (simulating a
    sender-side checksum) and verified by the parent on receipt; float bit
    patterns are hashed, so any single-bit flip is detected.
    """
    crc = 0
    for r in results:
        head = np.array(
            [float(r.client_id), float(r.n_samples), r.train_loss, r.latency],
            dtype=np.float64,
        )
        crc = zlib.crc32(head.tobytes(), crc)
        crc = zlib.crc32(np.ascontiguousarray(r.weights).tobytes(), crc)
    return crc


def corrupt_results(results: "Sequence[LocalTrainingResult]") -> None:
    """Deterministically damage a chunk's result weights in place.

    NaN-poisons a stride of each weight vector — the corruption the
    checksum (and, if it ever slipped through, the UpdateGuard) must catch.
    """
    for r in results:
        w = np.array(r.weights, dtype=r.weights.dtype, copy=True)
        w[:: max(1, w.size // 7)] = np.nan
        r.weights = w


# --------------------------------------------------------------------- #
# The worker side of one attempt
# --------------------------------------------------------------------- #
def run_attempt(executor, plan: FaultPlan | None, key: tuple[int, int, int], weights, tasks):
    """Run one leased attempt in a worker: ``(results, checksum)``.

    ``key`` is the attempt's ``(dispatch, chunk, attempt)``. Injected faults
    are drawn from it and fire here, in the worker, exactly where the real
    failure would happen; the checksum (taken only under an active fault
    plan, ``None`` otherwise) lets the parent verify integrity. An injected
    ``drop`` raises ``ConnectionAbortedError``: the caller severs its link.
    """
    injected = plan.chunk_faults(*key) if plan is not None else ()
    if "crash" in injected:
        # Die the way an OOM-killed / segfaulted worker dies: no exception
        # back to the parent, no goodbye frame, no cleanup, just a corpse.
        os._exit(3)
    if "drop" in injected:
        # Before doing any work: the supervisor sees the link go down and
        # requeues the lease.
        raise ConnectionAbortedError(f"injected drop on attempt {key}")
    results = executor.run_cohort(weights, tasks)
    checksum = chunk_checksum(results) if plan is not None else None
    if "corrupt" in injected:
        # Damage the payload *after* the checksum, modelling in-transit
        # corruption: the parent's verify catches it and redispatches.
        corrupt_results(results)
    if "delay" in injected:
        time.sleep(plan.delay_seconds)
    if "hang" in injected:
        # Only the lease deadline recovers this (a dist worker's heartbeat
        # thread lives on, so its connection looks healthy throughout).
        time.sleep(plan.hang_seconds)
    return results, checksum
