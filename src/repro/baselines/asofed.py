"""ASO-Fed (Chen, Ning, Rangwala, 2019) — asynchronous online FL.

Like FedAsync, every client trains continuously; unlike FedAsync, the
server keeps a *per-client copy* of the last weights received from each
client and publishes the average of all copies as the global model. A
client's stale contribution therefore persists (dampening oscillation) but
is bounded to its 1/K share. Clients use a local constraint term, per the
original paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import AsyncFLSystem
from repro.core.params import ProximalParams

__all__ = ["ASOFed"]


class ASOFed(AsyncFLSystem):
    name = "asofed"

    @dataclass(frozen=True)
    class Params(AsyncFLSystem.Params, ProximalParams):
        pass

    def __init__(self, population, model_builder, config, *, delay_model=None):
        super().__init__(population, model_builder, config, delay_model=delay_model)
        k = self.num_clients
        # Server-side copies, all initialized to w0. Copies are materialized
        # lazily (a client with no upload yet implicitly holds w0), so
        # server memory is O(clients that ever reported), and the running
        # sum keeps the global recompute O(d) instead of O(K·d).
        self._copies: dict[int, np.ndarray] = {}
        self._copy_sum = self.initial_flat * k
        self._k = k

    def apply_update(self, result, staleness: int) -> None:
        self._install_copy(result.client_id, result.weights, staleness)

    def _install_copy(
        self, client_id: int, weights: np.ndarray, staleness: int
    ) -> None:
        with self.timers.phase("aggregate"):
            old = self._copies.get(client_id, self.initial_flat)
            s = self.staleness_policy.factor(float(staleness))
            if s != 1.0:
                # Damp a stale contribution toward the copy it replaces.
                weights = old + s * (weights - old)
            self._copy_sum += weights - old
            self._copies[client_id] = weights
            self.global_weights = self._copy_sum / self._k
