"""Round-granular in-run checkpointing for single experiments.

The run store already gives a sweep cell-level bit-identical crash-resume:
a killed grid restarts and recomputes only unfinished *cells*. This module
extends that contract down into one cell — a killed paper-scale run
resumes mid-run from its last round boundary and finishes with a history
byte-identical to the uninterrupted run (wall-clock diagnostics such as
``phase_seconds`` and executor fault counters excepted; see
:data:`VOLATILE_META_KEYS`).

What a checkpoint holds: every piece of *simulation* state the system
mutates after construction — global weights + version, RNG generators
(NumPy Generators pickle with their exact stream position), epoch
cursors, meters, history, tiering/server/tracker state, and the live
:class:`~repro.sim.events.EventQueue` with its in-flight completion
events. What it deliberately omits: everything ``__init__`` reconstructs
deterministically from the config (population, scenario engine, failure
policy, model, executor), which keeps checkpoints at roughly the size of
the in-flight results instead of the dataset.

Writes are atomic (tmp file + ``os.replace``), so a crash mid-write
leaves the previous checkpoint intact — the same discipline as the run
store's files.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

__all__ = ["RunCheckpointer", "VOLATILE_META_KEYS", "strip_volatile_meta"]

#: 2: tiered systems carry a ``TierIndex`` (and ``Tiering`` a dense tier
#: vector) where format 1 pickled an enrolled-id list and sorted-id arrays.
#: 3: every method checkpoints its event queue, and the events carry the
#: shared payloads of ``repro.core.base`` (``RoundDone``, ``Wake``,
#: ``ClientJoin``, ``ClientDone``) instead of per-method classes.
CHECKPOINT_FORMAT = 3

#: History meta keys that legitimately differ between an uninterrupted run
#: and a resumed one: wall-clock phase timers reset at process start, and
#: the executor's fault-recovery counters depend on OS scheduling races
#: (which chunk a dying worker held, how many peers a respawn aborted).
#: Everything else — records, meters, traces, guard counters — must match
#: byte for byte.
VOLATILE_META_KEYS = ("phase_seconds", "faults")


def strip_volatile_meta(history_dict: dict) -> dict:
    """Canonicalize a ``RunHistory.to_dict()`` for resume comparisons."""
    out = dict(history_dict)
    out["meta"] = {
        k: v for k, v in history_dict.get("meta", {}).items()
        if k not in VOLATILE_META_KEYS
    }
    return out


class RunCheckpointer:
    """Owns one run's checkpoint file; systems call :meth:`maybe_save`.

    ``every`` throttles persistence to every N-th global round — the write
    itself is cheap (one pickle of O(model + in-flight results)), but
    paper-scale cells with sub-second rounds shouldn't hit the disk on
    each one.
    """

    def __init__(self, directory: str | Path, key: str, *, every: int = 1):
        if every < 1:
            raise ValueError(f"checkpoint every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.key = key
        self.every = every
        self.path = self.directory / f"run_{key}.ckpt"
        self._last_saved_round: int | None = None
        self.saves = 0

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, system, queue=None) -> None:
        """Persist the system's mutable state (and event queue) atomically."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "method": system.name,
            "round": system.round,
            # The budget its skipped launches were skipped under.
            "max_rounds": system.config.max_rounds,
            "max_time": system.config.max_time,
            "state": system.state_dict(),
            "queue": queue,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._last_saved_round = system.round
        self.saves += 1

    def maybe_save(self, system, queue=None) -> bool:
        """Save at round boundaries: when the round counter has crossed an
        ``every`` multiple since the last persisted state."""
        if system.round == self._last_saved_round:
            return False
        if system.round % self.every != 0 and self._last_saved_round is not None:
            return False
        self.save(system, queue)
        return True

    def load(self) -> dict | None:
        """Read the persisted payload, or None when no checkpoint exists."""
        if not self.path.exists():
            return None
        try:
            with open(self.path, "rb") as fh:
                payload = pickle.load(fh)
        except (AttributeError, ImportError) as exc:
            # An older format may pickle classes this build no longer has.
            raise ValueError(
                f"checkpoint {self.path} was written by an older format, "
                f"this build reads {CHECKPOINT_FORMAT}: {exc}"
            ) from exc
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint {self.path} has format {fmt!r}, "
                f"this build reads {CHECKPOINT_FORMAT}"
            )
        return payload

    def clear(self) -> None:
        """Remove the checkpoint file (after a completed run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
