"""Serial backend: the original shared-worker-model execution path."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.base import ClientExecutor, CohortTask, OptimizerSpec
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.sim.client import LocalTrainingResult, SimClient

__all__ = ["SerialExecutor"]


class SerialExecutor(ClientExecutor):
    """Train the cohort in order through one shared worker model.

    Keeps 100–500-client simulations cheap (no per-client model instances)
    at the cost of serializing local training — the ceiling
    :class:`~repro.exec.parallel.ParallelExecutor` lifts.

    The fused :class:`~repro.nn.plan.TrainingPlan` for ``(model, loss)`` is
    compiled eagerly at construction, so every backend replica — this
    executor is also the per-process worker core of the parallel backend —
    pays compilation once, not on its first cohort.
    """

    name = "serial"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
    ):
        self.model = model
        self.clients = clients
        self.loss = loss
        self.optimizer = optimizer
        model.training_plan(loss)  # cached; local_train reuses it

    def run_cohort(
        self, start_weights: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        return [
            self.clients[t.client_id].local_train(
                self.model,
                start_weights,
                epochs=t.epochs,
                loss=self.loss,
                optimizer_factory=self.optimizer.build,
                lam=t.lam,
                latency=t.latency,
                start_epoch=t.start_epoch,
            )
            for t in tasks
        ]
