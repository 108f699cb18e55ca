"""FedAsync (Xie et al., 2019) — fully asynchronous FL.

Every alive client trains continuously: download the current global model,
train locally, upload, repeat. On each upload the server mixes
``w ← (1 − α_t) w + α_t w_k`` with ``α_t = α · s(staleness)`` where
staleness is the number of server versions that elapsed while the client
trained. Because *all* clients talk to the server all the time, uplink
traffic is enormous — the communication bottleneck FedAT is designed to
avoid (Table 2 / Fig 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import FLSystem, RelaunchClient
from repro.core.staleness import StalenessPolicy
from repro.metrics.history import RunHistory
from repro.sim.events import EventQueue

__all__ = ["FedAsync"]


@dataclass
class _ClientDone:
    client_id: int
    start_version: int
    weights: np.ndarray  # post-training local weights (already "uploaded")
    n_samples: int
    uplink_bytes: int


class FedAsync(FLSystem):
    name = "fedasync"

    def __init__(self, population, model_builder, config, *, delay_model=None):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        self.staleness_policy = StalenessPolicy.parse(config.staleness) or (
            StalenessPolicy("constant")
        )

    def _mix(self, local: np.ndarray, staleness: int) -> None:
        cfg = self.config
        alpha = cfg.fedasync_alpha * self.staleness_policy.factor(float(staleness))
        with self.timers.phase("aggregate"):
            self.global_weights = (1.0 - alpha) * self.global_weights + alpha * local

    def _launch(self, client_id: int, queue: EventQueue) -> None:
        """Start one client cycle: download, train, schedule the upload."""
        self._launch_cohort([client_id], queue)

    def _launch_cohort(self, client_ids: list[int], queue: EventQueue) -> None:
        """Start cycles for clients that all depart from the current model.

        At steady state cohorts are singletons (each upload immediately
        relaunches that one client), but the initial mass launch trains the
        whole alive population from ``w0`` — a genuine cohort the executor
        can fan out. Clients lost to a churn window are re-launched when
        they rejoin (permanent dropouts stay gone).
        """
        cohort, deferred = self.train_departing_cohort(client_ids, queue.now, lam=0.0)
        self.schedule_relaunches(queue, deferred)
        nbytes = self.uplink_roundtrip([res for res, _ in cohort])
        for (res, finish), nb in zip(cohort, nbytes):
            queue.schedule_at(
                finish,
                _ClientDone(
                    client_id=res.client_id,
                    start_version=self.round,
                    weights=res.weights,
                    n_samples=res.n_samples,
                    uplink_bytes=nb,
                ),
            )

    def _run(self) -> RunHistory:
        if self._resumed:
            # Checkpointed queue carries every in-flight client cycle.
            queue: EventQueue = self._resume_queue
        else:
            queue = EventQueue()
            self.record_eval()
            self._launch_cohort(self.alive(range(self.num_clients), 0.0), queue)
            # Late arrivals enter the same continuous-training loop on arrival.
            self.schedule_arrival_launches(queue)
        while not queue.empty and not self.budget_exhausted():
            self._maybe_checkpoint(queue)
            ev = queue.pop()
            self.now = ev.time
            if isinstance(ev.payload, RelaunchClient):
                self._launch(ev.payload.client_id, queue)
                continue
            done: _ClientDone = ev.payload
            self.meter.record_upload(done.uplink_bytes)
            staleness = self.round - done.start_version
            self._mix(done.weights, staleness)
            self.round += 1
            if self._eval_due():
                self.record_eval()
            # Client immediately begins its next cycle from the new model.
            self._launch(done.client_id, queue)
        if not self.history.records or self.history.records[-1].round != self.round:
            self.record_eval()
        return self.history
