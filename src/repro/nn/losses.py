"""Loss functions with fused backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import softmax

__all__ = ["Loss", "SoftmaxCrossEntropy", "LOG_EPS"]

#: Clamp added inside log() to avoid -inf on zero probabilities. The chunked
#: evaluator (repro.metrics.evaluation) reproduces the fused loss per sample
#: and must use the same constant to stay bit-identical.
LOG_EPS = 1e-12


class Loss:
    """Base loss: ``forward(pred, target) -> float``; ``backward() -> dpred``.

    A loss a :class:`~repro.nn.plan.TrainingPlan` trains with also takes
    the fused-plan kernel protocol (see :mod:`repro.nn.plan`): optional
    ``scratch`` parameters writing into arena buffers, and ``clients`` for
    G clients' stacked batches, on which forward returns the G per-client
    means. :attr:`_cache_attrs` names state cached between forward and
    backward, dropped by :meth:`release_caches`.
    """

    _cache_attrs: tuple[str, ...] = ()

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def release_caches(self) -> None:
        """Drop forward caches held for backward."""
        for name in self._cache_attrs:
            if hasattr(self, name):
                delattr(self, name)


class SoftmaxCrossEntropy(Loss):
    """Mean cross-entropy over integer class labels, fused with softmax.

    The fused formulation gives the numerically exact gradient
    ``(p - onehot(y)) / N`` without materializing log-probabilities twice.
    The planned path (``scratch``) runs the identical softmax op chain —
    max, subtract, exp, sum, divide — as ``out=`` writes into arena
    buffers, so it is bit-identical to the allocating form.

    With ``clients=G`` the rows are G clients' equal-size batches,
    client-major: forward returns the G per-client mean losses (the
    ``add.reduce`` + ``true_divide`` that ``ndarray.mean`` runs) and
    backward divides each client's gradient by its own row count.
    """

    _cache_attrs = ("_probs", "_labels", "_rows")

    def forward(
        self, logits: np.ndarray, labels: np.ndarray, *, scratch=None, clients=None
    ) -> float | np.ndarray:
        labels = np.asarray(labels).reshape(-1)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (N, C), got shape {logits.shape}")
        if labels.shape[0] != logits.shape[0]:
            raise ValueError("batch size mismatch between logits and labels")
        n = logits.shape[0]
        if scratch is None:
            probs = softmax(logits)
            rows = np.arange(n)
        else:
            # np.max/np.sum delegate to maximum.reduce/add.reduce; calling
            # the ufunc methods directly skips the dispatch wrappers
            # (identical reductions, identical bits).
            m = scratch("max", (n, 1), logits.dtype)
            np.maximum.reduce(logits, axis=-1, keepdims=True, out=m)
            probs = scratch("probs", logits.shape, logits.dtype)
            np.subtract(logits, m, out=probs)
            np.exp(probs, out=probs)
            s = scratch("sum", (n, 1), logits.dtype)
            np.add.reduce(probs, axis=-1, keepdims=True, out=s)
            np.divide(probs, s, out=probs)
            rows = self._row_index(n, scratch)
        self._probs = probs
        self._labels = labels
        if scratch is None:
            nll = -np.log(probs[rows, labels] + LOG_EPS)
        else:  # the same three ufuncs, in place over the one gathered copy
            nll = probs[rows, labels]
            np.negative(np.log(np.add(nll, LOG_EPS, out=nll), out=nll), out=nll)
        if clients is None:
            self._rows = n
            return float(nll.mean())
        self._rows = n // clients
        means = scratch("means", (clients,), nll.dtype)
        np.add.reduce(nll.reshape(clients, -1), axis=1, out=means)
        return np.true_divide(means, np.intp(self._rows), out=means, casting="unsafe")

    @staticmethod
    def _row_index(n: int, scratch) -> np.ndarray:
        """Arena-cached ``arange(n)`` (prefix views of a grown buffer stay
        valid because arange prefixes are arange)."""
        rows = scratch("rows", (n,), np.intp)
        if n and rows[-1] != n - 1:
            rows[:] = np.arange(n)
        return rows

    def backward(self, *, out=None, scratch=None) -> np.ndarray:
        n = self._probs.shape[0]
        if out is None and scratch is not None:
            out = scratch("grad", self._probs.shape, self._probs.dtype)
        if out is None:
            grad = self._probs.copy()
            grad[np.arange(n), self._labels] -= 1.0
            return grad / n
        rows = np.arange(n) if scratch is None else self._row_index(n, scratch)
        np.copyto(out, self._probs)
        out[rows, self._labels] -= 1.0
        np.divide(out, self._rows, out=out)
        return out
