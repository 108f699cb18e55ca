"""Serial backend: the original shared-worker-model execution path."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.exec.base import ClientExecutor, CohortTask, OptimizerSpec
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.sim.client import LocalTrainingResult, SimClient

__all__ = ["SerialExecutor"]


class SerialExecutor(ClientExecutor):
    """Train the cohort through one shared worker model, as one call.

    The whole cohort goes to the model's compiled
    :class:`~repro.nn.plan.TrainingPlan` at once
    (:meth:`~repro.nn.plan.TrainingPlan.run_cohort`), which trains clients
    that share batch shapes in lockstep — one chain of kernel calls per
    group of clients, each client from its own row of the start stack.
    No per-client model instance exists, which keeps 100–500-client
    simulations cheap; the ceiling left is one process, which
    :class:`~repro.exec.dist.DistExecutor` lifts.

    The plan for ``(model, loss)`` is compiled eagerly at construction, so
    every worker replica — this executor is also the core of each worker
    process, which hands it its chunk — pays compilation once, not on its
    first cohort.
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
        model.training_plan(loss)  # cached; run_cohort reuses it

    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        ids = [t.client_id for t in tasks]
        if isinstance(self.clients, (Sequence, Mapping)):  # eager clients
            clients = [self.clients[cid] for cid in ids]
        else:  # a virtual population derives the ones it lacks in one pass
            clients = self.clients[ids]
        trained = self.model.training_plan(self.loss).run_cohort(
            starts,
            [c.member(t.epochs, t.lam, t.start_epoch, t.row) for c, t in zip(clients, tasks)],
            self.optimizer.build(),
        )
        return [
            LocalTrainingResult(c.client_id, weights, c.n_train, mean_loss, float(t.latency))
            for c, t, (weights, mean_loss) in zip(clients, tasks, trained)
        ]
