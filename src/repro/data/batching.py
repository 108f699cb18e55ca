"""Fixed pseudo-random mini-batch schedules.

Paper §6: "each client, once selected, would follow a fixed, pseudo-random
mini-batch schedule" so that every FL method sees identical batch orderings —
fairness across compared methods. The schedule is a deterministic function of
``(seed, client_id, epoch_index)``: epoch e's order is a permutation drawn
from the named stream ``client/{id}/epoch/{e}``, a round's dropout masks from
``client/{id}/masks/{start_epoch}``.

NumPy's ``SeedSequence`` path (:meth:`SeedSequenceFactory.rng`) is the
reference for both: :meth:`FixedBatchSchedule.epoch_order` and
:meth:`FixedBatchSchedule.mask_rng` take it for one stream, and
:func:`cohort_streams` derives a whole cohort's streams in one batched pass
(:meth:`SeedSequenceFactory.rngs`) that ``tests/utils/test_rng.py`` checks
against it, generator state for generator state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import SeedSequenceFactory

__all__ = ["FixedBatchSchedule", "cohort_streams"]


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
        epoch_index)``, so serial and dist executors replay identical
        schedules from an explicit cursor.
        """
        for e in range(start_epoch, start_epoch + count):
            order = self.epoch_order(e)
            for start in range(0, self.n, self.batch_size):
                yield order[start : start + self.batch_size]

    def epoch_order(self, epoch: int) -> np.ndarray:
        """The fixed permutation for a given epoch index."""
        return self._factory.rng(self._order_stream(epoch)).permutation(self.n)

    def mask_rng(self, start_epoch: int) -> np.random.Generator:
        """The dropout-mask generator of the round that starts at
        ``start_epoch``: like the batches, a pure function of ``(seed,
        client_id, epoch_index)``, so a round draws the same masks on any
        executor, in any cohort, before or after a resume."""
        return self._factory.rng(self._mask_stream(start_epoch))

    def batches_per_epoch(self) -> int:
        return -(-self.n // self.batch_size)

    def _order_stream(self, epoch: int) -> str:
        return f"client/{self.client_id}/epoch/{epoch}"

    def _mask_stream(self, start_epoch: int) -> str:
        return f"client/{self.client_id}/masks/{start_epoch}"


def cohort_streams(
    rounds: Sequence[tuple[FixedBatchSchedule, int, int]], *, masks: bool = False
) -> tuple[list[np.ndarray], list[np.random.Generator] | None]:
    """Every round's batch order, and with ``masks`` its dropout generator.

    A round is ``(schedule, start_epoch, epochs)``; its order is its epochs'
    :meth:`~FixedBatchSchedule.epoch_order` permutations end to end, so its
    batches are consecutive ``batch_size`` slices of it, each epoch's last
    one ragged. The generators are :meth:`~FixedBatchSchedule.mask_rng`'s.
    All streams of one seed are derived in one
    :meth:`~repro.utils.rng.SeedSequenceFactory.rngs` pass.
    """
    names: dict[int, list[str]] = {}
    for schedule, start, epochs in rounds:
        batch = names.setdefault(schedule._factory.seed, [])
        batch.extend(schedule._order_stream(e) for e in range(start, start + epochs))
        if masks:
            batch.append(schedule._mask_stream(start))
    streams = {seed: iter(SeedSequenceFactory(seed).rngs(batch)) for seed, batch in names.items()}
    # Each epoch's permutation is its generator's shuffle of arange(n), the
    # way Generator.permutation(n) makes it, in place in one array.
    sizes = [schedule.n for schedule, _, epochs in rounds for _ in range(epochs)]
    aranges = {n: np.arange(n) for n in set(sizes)}
    flat = np.concatenate([aranges[n] for n in sizes]) if sizes else np.arange(0)
    orders, generators, o = [], [] if masks else None, 0
    for schedule, _, epochs in rounds:
        stream, first = streams[schedule._factory.seed], o
        for _ in range(epochs):
            next(stream).shuffle(flat[o : o + schedule.n])
            o += schedule.n
        orders.append(flat[first:o])
        if masks:
            generators.append(next(stream))
    return orders, generators
