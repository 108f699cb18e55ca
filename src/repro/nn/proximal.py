"""Proximal (local-constraint) term for FedProx / FedAT local training.

Paper §4.1: clients minimize the surrogate
``h_k(w_k) = F_k(w_k) + λ/2 ‖w_k − w‖²`` where ``w`` is the global model
snapshot received at the start of the round. The gradient contribution is
``λ (w_k − w)``, injected after backprop through the ``grad_hook`` of
``TrainingPlan.run_epochs`` / ``Sequential.train_on_batch``. With ``λ = 0`` local training reduces exactly to FedAvg.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter

__all__ = ["ProximalTerm"]


class ProximalTerm:
    """Callable gradient hook adding ``λ (w − w_ref)`` to the gradients.

    The reference is one flat snapshot of a model's
    :class:`~repro.nn.store.FlatParameterStore`, and the hook is one
    whole-buffer elementwise operation on the store backing the parameters
    it is called with.
    """

    def __init__(self, lam: float):
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam}")
        self.lam = lam
        self._ref: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def set_reference(self, store: FlatParameterStore) -> None:
        """Snapshot the global model the local updates are constrained to
        (one memcpy of the store's flat buffer)."""
        self._ref = store.data.copy()
        self._scratch = np.empty_like(self._ref)

    def _difference(self, params: list[Parameter]) -> tuple[FlatParameterStore, np.ndarray]:
        """``w − w_ref`` over the store backing ``params``, in the scratch buffer."""
        store = FlatParameterStore.of(params)
        if store.total != self._ref.size:
            raise ValueError("reference weights do not match parameter list")
        return store, np.subtract(store.data, self._ref, out=self._scratch)

    def penalty(self, params: list[Parameter]) -> float:
        """Value of ``λ/2 ‖w − w_ref‖²`` (for loss reporting/tests)."""
        if self.lam == 0.0 or self._ref is None:
            return 0.0
        _, diff = self._difference(params)
        return 0.5 * self.lam * float(np.dot(diff, diff))

    def __call__(self, params: list[Parameter]) -> None:
        if self.lam == 0.0 or self._ref is None:
            return
        store, s = self._difference(params)
        np.multiply(s, self.lam, out=s)
        store.grad += s
