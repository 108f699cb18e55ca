"""Pooling layers (NHWC)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["MaxPool2D"]


class MaxPool2D(Layer):
    """Non-overlapping max pooling with window == stride.

    Inputs whose spatial size is not a multiple of the window are cropped at
    the bottom/right edge, matching TensorFlow's 'valid' pooling.

    Windows are per row, so a cohort's stacked batch pools as its clients'
    batches would; the tie test in backward is global over the batch, but
    both of its branches give the same bits when nothing ties.
    """

    _cache_attrs = ("_x_shape", "_mask", "_windows_shape")

    def __init__(self, pool_size: int = 2):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.k = int(pool_size)

    def forward(
        self, x: np.ndarray, training: bool = False, *, out=None, scratch=None
    ) -> np.ndarray:
        k = self.k
        n, h, w, c = x.shape
        oh, ow = h // k, w // k
        if oh == 0 or ow == 0:
            raise ValueError(f"pool window {k} larger than input {h}x{w}")
        self._x_shape = x.shape
        xc = x[:, : oh * k, : ow * k, :]
        windows = xc.reshape(n, oh, k, ow, k, c)
        self._windows_shape = windows.shape
        if scratch is None and out is None:
            out = windows.max(axis=(2, 4))
            # Cache argmax mask for the backward scatter.
            self._mask = windows == out[:, :, None, :, None, :]
            # Break ties the way a true argmax would: keep only the first max.
            # (Ties are measure-zero with float inputs; cheap guard for tests
            # with integer-valued arrays.)
            return out
        if out is None:
            out = scratch("y", (n, oh, ow, c), x.dtype)
        # Running elementwise maximum over the k*k window cells. Max is
        # exact (no rounding), so any association order gives bitwise the
        # same result as the multi-axis reduction — and the per-cell slices
        # iterate far fewer, larger contiguous blocks.
        np.copyto(out, windows[:, :, 0, :, 0, :])
        for i in range(k):
            for j in range(k):
                if i or j:
                    np.maximum(out, windows[:, :, i, :, j, :], out=out)
        if scratch is None:
            self._mask = windows == out[:, :, None, :, None, :]
        elif not training:
            # Inference never runs backward; skip building the argmax mask
            # (the chunked evaluator's forwards are half mask construction).
            self._mask = None
        else:
            mask = scratch("mask", windows.shape, np.bool_)
            np.equal(windows, out[:, :, None, :, None, :], out=mask)
            self._mask = mask
        return out

    def backward(
        self, grad: np.ndarray, *, out=None, scratch=None, input_grad: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        n, oh, ow, c = grad.shape
        k = self.k
        if scratch is None:
            g6 = grad[:, :, None, :, None, :] * self._mask
            # Distribute gradient among tied maxima equally (exact when no ties).
            counts = self._mask.sum(axis=(2, 4), keepdims=True)
            g6 = g6 / counts
        else:
            # "~g6" is arena-wide shared: dead before the next pool's
            # backward runs (the conv between them consumes it first).
            g6 = scratch("~g6", self._windows_shape, grad.dtype)
            # With no ties every window has exactly one True, the total
            # mask count equals the output size, and dividing by 1 is the
            # identity — so the count/divide pair can be skipped outright.
            # (Pools after a ReLU tie constantly — shared exact zeros —
            # so the tied branch is the common one there.)
            if np.count_nonzero(self._mask) == n * oh * ow * c:
                np.multiply(grad[:, :, None, :, None, :], self._mask, out=g6)
            else:
                # Tie counts are integer sums — exact in any association
                # order (and in any integer width holding k*k), so the
                # two-stage uint8 reduction over the mask's uint8 view is
                # bitwise the legacy multi-axis int64 count; uint8 skips
                # the bool->int64 cast buffering. Dividing the
                # *output-sized* gradient before the mask multiply instead
                # of the window-sized product after it is bit-identical
                # too: the mask is 0/1 (zero sign included) and the
                # divisor value is the same positive integer either way,
                # so each element rounds once through the identical
                # division.
                cdtype = np.uint8 if k * k < 256 else np.intp
                ci = scratch("~ci", (n, oh, ow, k, c), cdtype)
                np.add.reduce(self._mask.view(np.uint8), axis=2, dtype=cdtype, out=ci)
                co = scratch("~co", (n, oh, ow, c), cdtype)
                np.add.reduce(ci, axis=3, out=co)
                q = scratch("~pq", (n, oh, ow, c), grad.dtype)
                np.divide(grad, co, out=q)
                np.multiply(q[:, :, None, :, None, :], self._mask, out=g6)
        dx_cropped = g6.reshape(n, oh * k, ow * k, c)
        nh, hh, ww, cc = self._x_shape
        if (oh * k, ow * k) == (hh, ww):
            return dx_cropped
        if scratch is None:
            dx = np.zeros(self._x_shape, dtype=grad.dtype)
        else:
            dx = scratch("dx", (n,) + self._x_shape[1:], grad.dtype)
            dx.fill(0.0)
        dx[:, : oh * k, : ow * k, :] = dx_cropped
        return dx
