"""2-D convolution via im2col (vectorized — no Python loops over pixels).

The im2col transform turns convolution into a single large matrix multiply,
the standard CPU-friendly formulation. Stride-tricks views keep the patch
extraction allocation-free until the contiguous copy needed by BLAS.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import initializers
from repro.nn.layers import Layer, client_major, per_client
from repro.nn.tensor import Parameter

__all__ = ["Conv2D", "im2col", "col2im"]


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Extract sliding patches from NHWC input.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(N * oh * ow, kh * kw * C)``.
    """
    n, h, w, c = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
        )
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    sn, sh, sw, sc = x.strides
    patches = as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return np.ascontiguousarray(patches).reshape(n * oh * ow, kh * kw * c), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Scatter-add column gradients back to the padded input (im2col adjoint)."""
    n, h, w, c = x_shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, kh, kw, c)
    # Loop over the (small) kernel window, vectorized over batch and space.
    for i in range(kh):
        for j in range(kw):
            dx[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += cols6[
                :, :, :, i, j, :
            ]
    if pad:
        return dx[:, pad : pad + h, pad : pad + w, :]
    return dx


@functools.lru_cache(maxsize=64)  # one entry per input geometry in use
def _scatter_pairs(h: int, w: int, oh: int, ow: int, kh: int, kw: int, stride: int, pad: int):
    """``(input index, column index)`` of each kernel position's slice of
    the col2im scatter, clipped to the unpadded interior (see
    :meth:`Conv2D.backward`). Pure in the geometry, so computed once."""

    def clip(offset: int, limit: int, count: int) -> tuple[int, int, int]:
        """First source index, first interior index, and run length of
        the scatter positions ``offset + r*stride`` inside [0, limit)."""
        s0 = 0 if offset >= 0 else (-offset + stride - 1) // stride
        d0 = offset + s0 * stride
        if d0 >= limit:
            return s0, d0, 0
        return s0, d0, min((limit - 1 - d0) // stride + 1, count - s0)

    pairs = []
    for i in range(kh):
        for j in range(kw):
            ri, di, nr = clip(i - pad, h, oh)
            rj, dj, nc = clip(j - pad, w, ow)
            if nr > 0 and nc > 0:
                dst = (slice(None), slice(di, di + nr * stride, stride))
                dst += (slice(dj, dj + nc * stride, stride),)
                src = (slice(None), i, j, slice(ri, ri + nr), slice(rj, rj + nc))
                pairs.append((dst, src))
    return tuple(pairs)


class Conv2D(Layer):
    """2-D convolution, NHWC layout, with 'same' or 'valid' padding.

    The planned path (``scratch``, see :mod:`repro.nn.plan`) reuses arena
    buffers for the padded input frame, the im2col column block, and every
    gradient scatter — each op the ``out=`` form of exactly the legacy op,
    so both paths are bit-identical. Patches are rows, so a cohort's
    stacked batch needs per-client weights only in the three GEMMs and the
    bias sum.
    """

    _cache_attrs = ("_x_shape", "_cols")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        *,
        stride: int = 1,
        padding: str = "same",
        rng: np.random.Generator,
        name: str = "conv",
    ):
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        if padding == "same" and stride != 1:
            raise ValueError("'same' padding requires stride=1 in this implementation")
        self.kh = self.kw = int(kernel_size)
        self.stride = stride
        self.pad = (self.kh - 1) // 2 if padding == "same" else 0
        fan_in = self.kh * self.kw * in_channels
        fan_out = self.kh * self.kw * out_channels
        w = initializers.glorot_uniform(
            rng, (self.kh * self.kw * in_channels, out_channels), fan_in, fan_out
        )
        self.w = Parameter(w, f"{name}.w")
        self.b = Parameter(initializers.zeros((out_channels,)), f"{name}.b")
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(
        self, x: np.ndarray, training: bool = False, *, out=None, scratch=None, stack=None
    ) -> np.ndarray:
        self._x_shape = x.shape
        if scratch is None:
            cols, (oh, ow) = im2col(x, self.kh, self.kw, self.stride, self.pad)
        else:
            cols, (oh, ow) = self._im2col_arena(x, scratch)
        self._cols = cols
        n = x.shape[0]
        if out is None and scratch is None:
            out = cols @ self.w.data + self.b.data
            return out.reshape(n, oh, ow, self.out_channels)
        (w, _), (b, _) = stack or self.own_stack()
        if out is None:
            out = scratch(
                "y", (n * oh * ow, self.out_channels), np.result_type(cols.dtype, w.dtype)
            )
        cs, ys = cols, out.reshape(n * oh * ow, self.out_channels)
        if w.ndim > 2:  # G clients' kernels: one GEMM each (see Dense.forward)
            cs, ys = client_major(cols, len(w)), out.reshape(len(w), -1, self.out_channels)
            b = per_client(b, ys.ndim)
        np.matmul(cs, w, out=ys)
        np.add(ys, b, out=ys)
        return out.reshape(n, oh, ow, self.out_channels)

    def _im2col_arena(self, x, scratch):
        """im2col into a reusable column buffer (+ padded frame buffer).

        Arena buffers are zero-filled on allocation, so the frame around a
        padded input's interior stays zero across reuse — only the interior
        is rewritten per batch, matching ``np.pad``'s zeros exactly.
        """
        n, h, w, c = x.shape
        kh, kw, stride, pad = self.kh, self.kw, self.stride, self.pad
        oh = _out_size(h, kh, stride, pad)
        ow = _out_size(w, kw, stride, pad)
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
            )
        if pad:
            padded = scratch("pad", (n, h + 2 * pad, w + 2 * pad, c), x.dtype)
            padded[:, pad : pad + h, pad : pad + w, :] = x
            x = padded
        sn, sh, sw, sc = x.strides
        shape = (n, oh, ow, kh, kw, c)
        strides = (sn, sh * stride, sw * stride, sh, sw, sc)
        if x.flags["C_CONTIGUOUS"]:
            # The raw constructor is ~4x cheaper per batch than the
            # as_strided wrapper; same view, same bytes.
            patches = np.ndarray(shape, dtype=x.dtype, buffer=x, strides=strides)
        else:
            patches = as_strided(x, shape=shape, strides=strides, writeable=False)
        cols = scratch("cols", (n * oh * ow, kh * kw * c), x.dtype)
        np.copyto(cols.reshape(n, oh, ow, kh, kw, c), patches)
        return cols, (oh, ow)

    def backward(
        self,
        grad: np.ndarray,
        *,
        out=None,
        scratch=None,
        input_grad: bool = True,
        stack=None,
    ) -> np.ndarray | None:
        n, oh, ow, oc = grad.shape
        gflat = grad.reshape(n * oh * ow, oc)
        if scratch is None:
            self.w.grad += self._cols.T @ gflat
            self.b.grad += gflat.sum(axis=0)
            if not input_grad:
                return None
            dcols = gflat @ self.w.data.T
            return col2im(dcols, self._x_shape, self.kh, self.kw, self.stride, self.pad)
        (kernel, w_grad), (_, b_grad) = stack or self.own_stack()
        cs, gs = self._cols, gflat
        if kernel.ndim > 2:  # G clients' kernels: per-client row blocks
            cs, gs = client_major(cs, len(kernel)), client_major(gs, len(kernel))
        # "~"-named scratch is arena-wide shared across layers: everything
        # taken here is dead before any other layer's backward runs.
        gw = scratch("~gw", kernel.shape, w_grad.dtype)
        np.matmul(cs.swapaxes(-1, -2), gs, out=gw)
        w_grad += gw
        gb = scratch("~gb", b_grad.shape, b_grad.dtype)
        # np.sum delegates to add.reduce; calling it directly skips the
        # dispatch wrapper (identical reduction, identical bits).
        np.add.reduce(gs, axis=-2, out=gb)
        b_grad += gb
        if not input_grad:
            return None
        dcols = scratch("~dcols", self._cols.shape, grad.dtype)
        np.matmul(gs, kernel.swapaxes(-1, -2), out=dcols.reshape(cs.shape))
        # col2im into a reused (re-zeroed) scatter buffer. Two exact-value
        # restructurings of the legacy scatter: (a) the column block is
        # re-laid-out kernel-position-major, so each (i, j) slice is one
        # large near-contiguous block instead of a c-wide sliver; (b) the
        # scatter is clipped to the unpadded interior — the frame cells
        # legacy col2im accumulates are sliced away before returning, so
        # never computing them changes nothing. Every surviving cell still
        # accumulates the same contributions in the same (i, j) order, so
        # the sums are bit-identical to the legacy col2im.
        nh, h, w, c = self._x_shape
        pad, stride, kh, kw = self.pad, self.stride, self.kh, self.kw
        dct = scratch("~dct", (n, kh, kw, oh, ow, c), grad.dtype)
        np.copyto(dct, dcols.reshape(n, oh, ow, kh, kw, c).transpose(0, 3, 4, 1, 2, 5))
        dx = scratch("~dx", (n, h, w, c), grad.dtype)
        dx.fill(0.0)
        for dst, src in _scatter_pairs(h, w, oh, ow, kh, kw, stride, pad):
            dst = dx[dst]
            np.add(dst, dct[src], out=dst)
        return dx

    @property
    def params(self) -> list[Parameter]:
        return [self.w, self.b]
