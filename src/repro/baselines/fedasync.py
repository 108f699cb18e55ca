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

from repro.core.base import AsyncFLSystem

__all__ = ["FedAsync"]


class FedAsync(AsyncFLSystem):
    name = "fedasync"

    @dataclass(frozen=True)
    class Params(AsyncFLSystem.Params):
        # The paper's FedAsync baseline mixes ``w ← (1 − α) w + α w_k`` with
        # no staleness adaptation, and observes the resulting oscillation
        # under non-IID data; the FedAsync paper's adaptive variants are
        # ``staleness="poly:a"`` / ``"hinge:a:b"``.
        fedasync_alpha: float = 0.6

        def __post_init__(self):
            super().__post_init__()
            if not 0.0 < self.fedasync_alpha <= 1.0:
                raise ValueError(
                    "fedasync_alpha must be in (0, 1]: above 1 diverges, 0 never mixes"
                )

    def apply_update(self, result, staleness: int) -> None:
        self._mix(result.weights, staleness)

    def _mix(self, local: np.ndarray, staleness: int) -> None:
        alpha = self.params.fedasync_alpha * self.staleness_policy.factor(float(staleness))
        with self.timers.phase("aggregate"):
            self.global_weights = (1.0 - alpha) * self.global_weights + alpha * local
