"""Proximal (local-constraint) term for FedProx / FedAT local training.

Paper §4.1: clients minimize the surrogate
``h_k(w_k) = F_k(w_k) + λ/2 ‖w_k − w‖²`` where ``w`` is the global model
snapshot received at the start of the round. The gradient contribution is
``λ (w_k − w)``, added after backprop: by :func:`add_proximal_grad` over
a cohort's weight rows in ``TrainingPlan.run_cohort``, and through the
``grad_hook`` of ``Sequential.train_on_batch`` as a :class:`ProximalTerm`.
With ``λ = 0`` local training reduces exactly to FedAvg. The pull covers
the trainable entries only (``FlatParameterStore.trainable``, the prefix of
the flat vector): batch-norm's running statistics are not pulled.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter

__all__ = ["ProximalTerm", "add_proximal_grad"]


def add_proximal_grad(data, grad, reference, lam, out) -> None:
    """``grad += λ (data − reference)``, with ``out`` as the scratch.

    One formula for one client's flat buffers and for ``(G, P)`` rows of
    G clients in a cohort: ``reference`` is one row broadcast over the
    rows or a ``(G, P)`` row per client, and ``lam`` is a scalar or a
    ``(G, 1)`` column in the weights' dtype (a Python float multiplies as
    that dtype, so both give the same bits).
    """
    np.subtract(data, reference, out=out)
    np.multiply(out, lam, out=out)
    grad += out


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

    def _store(self, params: list[Parameter]) -> FlatParameterStore:
        """The store backing ``params``, checked against the reference."""
        store = FlatParameterStore.of(params)
        if store.total != self._ref.size:
            raise ValueError("reference weights do not match parameter list")
        return store

    def penalty(self, params: list[Parameter]) -> float:
        """Value of ``λ/2 ‖w − w_ref‖²`` (for loss reporting/tests)."""
        if self.lam == 0.0 or self._ref is None:
            return 0.0
        store = self._store(params)
        t = store.trainable
        diff = np.subtract(store.data[:t], self._ref[:t], out=self._scratch[:t])
        return 0.5 * self.lam * float(np.dot(diff, diff))

    def __call__(self, params: list[Parameter]) -> None:
        if self.lam == 0.0 or self._ref is None:
            return
        store = self._store(params)
        t = store.trainable
        add_proximal_grad(
            store.data[:t], store.grad[:t], self._ref[:t], self.lam, self._scratch[:t]
        )
