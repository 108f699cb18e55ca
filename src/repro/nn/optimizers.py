"""First-order optimizers operating on lists of Parameters.

The paper uses Adam as the local solver (§6 Hyperparameters); plain SGD is
the gradient step of the paper's convergence analysis (§5).

Parameters are always backed by a :class:`~repro.nn.store.FlatParameterStore`
(every :class:`~repro.nn.model.Sequential` owns one), so
:meth:`Optimizer.step` applies the update as whole-buffer operations on the
store's flat data/grad arrays: O(1) large NumPy calls per step however many
parameter tensors the model has. Every update rule here is elementwise, so
the result equals updating each parameter on its own. A step covers the
store's trainable prefix only (``store.trainable``): non-trainable entries
never move.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer. Subclasses implement :meth:`_update` over a store
    and :meth:`apply`, the planned update over whole buffers.

    An instance is also the *recipe* a cohort plan
    (:meth:`~repro.nn.plan.TrainingPlan.run_cohort`) reads: it keeps every
    client's state in ``state_slots`` slabs of its own and steps them
    through :meth:`apply`, leaving the instance's own state untouched.
    """

    #: Per-weight state arrays an update reads and writes (Adam's moments).
    state_slots = 0

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self, params: list[Parameter], store: FlatParameterStore | None = None) -> None:
        """Apply one update using each parameter's accumulated gradient, then
        clear the gradients.

        ``params`` must be exactly the parameters of one store — ``store``
        when given, else the one they are views of; models pass
        ``store.params`` itself, which makes the check one identity test.
        """
        if store is None:
            store = FlatParameterStore.of(params)
        elif not store.covers(params):
            raise ValueError(
                "store does not cover exactly the given parameters (a subset, "
                "a reordering, or parameters of another model)"
            )
        t = store.trainable
        self._update(store.data[:t], store.grad[:t])
        store.zero_grad()

    def _update(self, data: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def apply(self, data: np.ndarray, grad: np.ndarray, state: tuple, t: int, scratch) -> None:
        """One update of ``data`` in place, written into ``scratch`` buffers.

        ``state`` holds ``state_slots`` arrays shaped like ``data``; ``t``
        is the 1-based step count. Every rule is elementwise, so ``(G, P)``
        rows of G clients update exactly as each ``(P,)`` buffer would.
        """
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient descent: ``w -= lr · g``."""

    def __init__(self, lr: float = 0.01):
        super().__init__(lr)

    def _update(self, data, grad) -> None:
        data -= self.lr * grad

    def apply(self, data, grad, state, t, scratch) -> None:
        s = scratch("sgd_s", grad.shape, grad.dtype)
        np.multiply(grad, self.lr, out=s)
        data -= s


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    state_slots = 2

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(lr)
        for name, b in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: list[Parameter], store: FlatParameterStore | None = None) -> None:
        self._t += 1
        super().step(params, store=store)

    def _update(self, data, grad) -> None:
        if self._m is None:
            self._m = np.zeros_like(data)
            self._v = np.zeros_like(data)
        self._adam_step(data, grad, self._m, self._v)

    def apply(self, data, grad, state, t, scratch) -> None:
        # The allocation-free form of _adam_step: the identical elementwise
        # op chain written into two arena scratch buffers, so each of the
        # ~6 whole-buffer temporaries the expression form materializes per
        # step becomes a reused write. Bit-identical by elementwiseness.
        m, v = state
        s1 = scratch("adam_s1", data.shape, data.dtype)
        s2 = scratch("adam_s2", data.shape, data.dtype)
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s2)
        np.multiply(s2, grad, out=s2)
        v += s2
        np.divide(m, 1 - self.beta1**t, out=s1)  # mhat
        np.divide(v, 1 - self.beta2**t, out=s2)  # vhat
        np.multiply(s1, self.lr, out=s1)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        data -= s1

    def _adam_step(
        self, data: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray
    ) -> None:
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        mhat = m / (1 - self.beta1**self._t)
        vhat = v / (1 - self.beta2**self._t)
        data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
