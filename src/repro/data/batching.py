"""Fixed pseudo-random mini-batch schedules.

Paper §6: "each client, once selected, would follow a fixed, pseudo-random
mini-batch schedule" so that every FL method sees identical batch orderings —
fairness across compared methods. The schedule is a deterministic function of
``(seed, client_id, epoch_index)``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedSequenceFactory

__all__ = ["FixedBatchSchedule"]


class FixedBatchSchedule:
    """Deterministic epoch-wise batch index generator for one client."""

    def __init__(self, n_samples: int, batch_size: int, client_id: int, seed: int):
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n = n_samples
        self.batch_size = min(batch_size, n_samples)
        self.client_id = client_id
        self._factory = SeedSequenceFactory(seed)
        self._epoch = 0

    @property
    def epochs_consumed(self) -> int:
        return self._epoch

    def reset(self) -> None:
        """Rewind to epoch 0 (schedules replay identically after reset)."""
        self._epoch = 0

    def advance_to(self, epoch: int) -> None:
        """Jump the cursor to ``epoch`` (cheap: orders are pure functions).

        The executor layer owns per-client epoch cursors so cohorts can be
        trained out of process; after every round the client fast-forwards
        the schedule so :attr:`epochs_consumed` stays coherent for callers
        that train without an explicit cursor.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self._epoch = epoch

    def epochs(self, start_epoch: int, count: int):
        """Yield batch index arrays for ``count`` epochs from ``start_epoch``.

        Stateless: the batches depend only on ``(seed, client_id,
        epoch_index)``, so serial and parallel executors replay identical
        schedules from an explicit cursor.
        """
        for e in range(start_epoch, start_epoch + count):
            order = self.epoch_order(e)
            for start in range(0, self.n, self.batch_size):
                yield order[start : start + self.batch_size]

    def epoch_order(self, epoch: int) -> np.ndarray:
        """The fixed permutation for a given epoch index."""
        rng = self._factory.rng(f"client/{self.client_id}/epoch/{epoch}")
        return rng.permutation(self.n)

    def mask_rng(self, start_epoch: int) -> np.random.Generator:
        """The dropout-mask generator of the round that starts at
        ``start_epoch``: like the batches, a pure function of ``(seed,
        client_id, epoch_index)``, so a round draws the same masks on any
        executor, in any cohort, before or after a resume."""
        return self._factory.rng(f"client/{self.client_id}/masks/{start_epoch}")

    def batches_per_epoch(self) -> int:
        return -(-self.n // self.batch_size)
