"""FedProx (Li et al., 2018).

Tackles system heterogeneity with (a) a proximal term ``λ/2 ‖w_k − w‖²``
on every client and (b) *variable local work*: clients may run fewer local
epochs than the target ``E`` (the paper's framing: "distinct local epoch
numbers for clients"). Epoch counts are drawn per (client, round) from
``{1, …, E}``, slower clients getting fewer epochs with higher probability.
"""

from __future__ import annotations

from repro.core.base import SyncFLSystem
from repro.core.params import ProximalParams

__all__ = ["FedProx"]


class FedProx(SyncFLSystem):
    name = "fedprox"
    Params = ProximalParams

    def __init__(self, dataset, model_builder, config, *, delay_model=None):
        super().__init__(dataset, model_builder, config, delay_model=delay_model)
        self._epoch_rng = self.factory.rng("algo/fedprox/epochs")

    def client_epochs(self, client_id: int) -> int:
        """γ-inexact local work: slow-part clients do fewer epochs."""
        e_max = self.config.local_epochs
        if e_max == 1:
            return 1
        # Probability of truncation grows with the client's delay part.
        part = self.delay_model.part_of(client_id)
        p_trunc = 0.2 + 0.6 * part / max(self.delay_model.num_parts - 1, 1)
        if self._epoch_rng.random() < p_trunc:
            return int(self._epoch_rng.integers(1, e_max))
        return e_max
