"""Simulated FL client: local training + latency sampling.

Clients do not own model instances: the execution layer (``repro.exec``)
passes in whichever worker model should run the round — the single shared
instance under the serial executor, or a per-process replica under the
parallel executor. Training is a pure function of ``(start weights, batch
schedule cursor, epochs, λ)``, so both modes produce identical results.
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
from repro.sim.latency import ResponseLatencyModel

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
        latency_model: ResponseLatencyModel | None,
        *,
        batch_size: int = 10,
        seed: int = 0,
    ):
        self.data = data
        self.client_id = data.client_id
        self.latency_model = latency_model
        self.batch_size = batch_size
        self.seed = seed
        self.schedule = FixedBatchSchedule(
            data.num_train, batch_size, data.client_id, seed
        )

    def replica(self) -> "SimClient":
        """A latency-model-free copy safe to ship to worker processes.

        Replicas share the immutable training data and rebuild a fresh batch
        schedule; they train as cohort members (or :meth:`local_train` with
        an explicit ``start_epoch`` + ``latency``) with everything supplied
        by the executor, and never sample latencies.
        """
        return SimClient(self.data, None, batch_size=self.batch_size, seed=self.seed)

    @property
    def n_train(self) -> int:
        return self.data.num_train

    def sample_latency(
        self, epochs: int, rng: np.random.Generator, *, payload_bytes: int = 0
    ) -> float:
        """Draw this round's response latency."""
        if self.latency_model is None:
            raise RuntimeError(
                f"client {self.client_id} is a worker replica without a "
                "latency model; latencies are sampled in the main process"
            )
        return self.latency_model.round_latency(
            self.client_id, self.n_train, epochs, rng, payload_bytes=payload_bytes
        )

    def expected_latency(self, epochs: int) -> float:
        return self.latency_model.expected_latency(self.client_id, self.n_train, epochs)

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
        latency: float | None = None,
        rng: np.random.Generator | None = None,
        start_epoch: int | None = None,
    ) -> LocalTrainingResult:
        """Run E local epochs starting from ``global_flat``.

        With ``start_epoch`` the mini-batch schedule is replayed statelessly
        from that cursor (batches are pure functions of the epoch index), so
        the round is a deterministic function of its inputs — the property the
        parallel executor relies on for bit-identical histories. Without it,
        the round starts at the client's own schedule cursor; either way the
        cursor ends just past the epochs trained.

        The round is a cohort of one through the model's compiled
        :class:`~repro.nn.plan.TrainingPlan` — the loop executors hand whole
        cohorts to, so one client trains exactly as it would among others.

        Returns the new flat weights; the worker model is left holding them
        (callers must not rely on worker state across clients).
        """
        if latency is None and rng is None:
            raise ValueError("provide either latency or rng")
        first = self.schedule.epochs_consumed if start_epoch is None else start_epoch
        ((weights, mean_loss),) = worker.training_plan(loss).run_cohort(
            global_flat, [self.member(epochs, lam, first)], optimizer_factory()
        )
        self.schedule.advance_to(first + epochs)
        if latency is None:
            latency = self.sample_latency(epochs, rng)
        return LocalTrainingResult(
            client_id=self.client_id,
            weights=weights,
            n_samples=self.n_train,
            train_loss=mean_loss,
            latency=float(latency),
        )
