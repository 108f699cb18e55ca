"""Simulated FL client: one client's data and its local training.

A client carries data only — its shard, batch size and fixed batch
schedule. How long its round takes is the population's to answer
(:meth:`~repro.population.base.Population.sample_round_latency`), so the
same client object serves the system, the serial executor and every
worker process. Clients do not own model instances either: the execution
layer (``repro.exec``) passes in whichever worker model should run the
round. Training is a pure function of ``(start weights, batch schedule
cursor, epochs, λ)``, so every executor produces identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.batching import FixedBatchSchedule
from repro.data.federated import ClientData
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer
from repro.nn.plan import CohortMember

__all__ = ["SimClient", "LocalTrainingResult"]


@dataclass
class LocalTrainingResult:
    """Output of one client round."""

    client_id: int
    weights: np.ndarray  # flat vector after local training
    n_samples: int  # n_k, the FedAvg aggregation weight
    train_loss: float  # mean batch loss over the round
    latency: float  # sampled response latency (virtual seconds)


class SimClient:
    """One federated client with paper-faithful local training semantics.

    - local solver: any :class:`Optimizer` built fresh per round (the paper
      uses Adam; optimizer state does not persist across rounds);
    - E epochs over the client's fixed pseudo-random mini-batch schedule
      (§6: the schedule is deterministic per client so every compared FL
      method sees identical batches);
    - optional FedProx/FedAT proximal term pulling updates toward the global
      model snapshot.
    """

    def __init__(
        self,
        data: ClientData,
        latency_model=None,
        *,
        batch_size: int = 10,
        seed: int = 0,
    ):
        # ``latency_model`` is ignored: the ledger's cells still pass None
        # in its place (ROADMAP item 17(c) drops it with them).
        self.data = data
        self.client_id = data.client_id
        self.batch_size = batch_size
        self.schedule = FixedBatchSchedule(
            data.num_train, batch_size, data.client_id, seed
        )

    @property
    def n_train(self) -> int:
        return self.data.num_train

    def member(
        self, epochs: int, lam: float = 0.0, start_epoch: int = 0, row: int = 0
    ) -> CohortMember:
        """This client's round as one member of a cohort
        (:meth:`~repro.nn.plan.TrainingPlan.run_cohort`): its training rows
        and fixed batch schedule, ``epochs`` epochs from ``start_epoch``,
        departing from row ``row`` of the cohort's start weights."""
        return CohortMember(
            self.data.x_train, self.data.y_train, self.schedule, start_epoch, epochs, lam, row
        )

    def local_train(
        self,
        worker: Sequential,
        global_flat: np.ndarray,
        *,
        epochs: int,
        loss: Loss,
        optimizer_factory: Callable[[], Optimizer],
        lam: float = 0.0,
        latency: float,
        start_epoch: int | None = None,
    ) -> LocalTrainingResult:
        """Run E local epochs starting from ``global_flat``.

        With ``start_epoch`` the mini-batch schedule is replayed statelessly
        from that cursor (batches are pure functions of the epoch index), so
        the round is a deterministic function of its inputs — the property the
        dist executor relies on for bit-identical histories. Without it,
        the round starts at the client's own schedule cursor; either way the
        cursor ends just past the epochs trained.

        The round is a cohort of one through the model's compiled
        :class:`~repro.nn.plan.TrainingPlan` — the loop executors hand whole
        cohorts to, so one client trains exactly as it would among others.

        ``latency`` is the round's response latency, drawn by whoever
        launched it; it is returned as is.

        Returns the new flat weights; the worker model is left holding them
        (callers must not rely on worker state across clients).
        """
        first = self.schedule.epochs_consumed if start_epoch is None else start_epoch
        ((weights, mean_loss),) = worker.training_plan(loss).run_cohort(
            global_flat, [self.member(epochs, lam, first)], optimizer_factory()
        )
        self.schedule.advance_to(first + epochs)
        return LocalTrainingResult(
            client_id=self.client_id,
            weights=weights,
            n_samples=self.n_train,
            train_loss=mean_loss,
            latency=float(latency),
        )
