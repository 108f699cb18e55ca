"""The ReLU layer and the activation functions the other layers share.

ReLU implements the fused-plan kernel protocol (optional ``out``/``scratch``
parameters, see :mod:`repro.nn.plan`): every planned operation is the
``out=`` form of exactly the legacy expression, so the two paths are
bit-identical, and being elementwise it runs a cohort's stacked batch
unchanged. :func:`sigmoid` is the LSTM's gate function and :func:`softmax`
the one the fused loss and the evaluator share; neither is a layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["ReLU", "sigmoid", "softmax"]


def sigmoid(
    x: np.ndarray, out: np.ndarray | None = None, work: tuple | None = None
) -> np.ndarray:
    """Numerically stable logistic sigmoid (optionally into ``out``).

    ``1 / (1 + exp(-x))`` where ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    below, without branching on the data: ``e = exp(-|x|)`` is the
    exponential either side needs, so both are ``numerator / (1 + e)`` with
    numerator ``1`` or ``e`` — element by element the same operations on the
    same operands as the two-sided form, hence the same bits.

    ``out`` may be ``x`` itself. ``work`` is an optional ``(float, bool)``
    pair of C-contiguous buffers of ``x``'s shape; without it they are
    allocated. ``exp`` always runs over the contiguous float buffer, never
    over a strided ``x``.
    """
    if work is None:
        e = np.empty(x.shape, dtype=x.dtype)
        nonneg = np.empty(x.shape, dtype=np.bool_)
    else:
        e, nonneg = work
    if out is None:
        out = np.empty_like(x)
    np.copysign(x, -1.0, out=e)  # -|x|
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=nonneg)  # last read of x: out may alias it
    np.add(e, 1.0, out=out)
    np.putmask(e, nonneg, 1.0)
    np.divide(e, out, out=out)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


class ReLU(Layer):
    """Rectified linear unit."""

    plan_inplace = True
    _cache_attrs = ("_mask",)

    def forward(
        self, x: np.ndarray, training: bool = False, *, out=None, scratch=None
    ) -> np.ndarray:
        if scratch is None and out is None:
            self._mask = x > 0
            return x * self._mask
        if scratch is not None:
            mask = scratch("mask", x.shape, np.bool_)
            np.greater(x, 0, out=mask)
            if out is None:
                out = scratch("y", x.shape, x.dtype)
        else:
            mask = x > 0
        self._mask = mask
        np.multiply(x, mask, out=out)
        return out

    def backward(
        self, grad: np.ndarray, *, out=None, scratch=None, input_grad: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        if out is None and scratch is not None:
            out = grad  # planned backward: the upstream grad buffer is dead
        if out is None:
            return grad * self._mask
        np.multiply(grad, self._mask, out=out)
        return out
