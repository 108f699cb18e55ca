"""Embedding and LSTM layers with full backpropagation through time.

Used by the Reddit-analogue model (paper §6: embedding → LSTM → batch-norm
→ dense softmax head), which reads the LSTM's final hidden state.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from repro.nn import initializers
from repro.nn.activations import sigmoid
from repro.nn.layers import Layer, client_major
from repro.nn.model import WeightSpec
from repro.nn.tensor import Parameter

__all__ = ["Embedding", "LSTM"]


class Embedding(Layer):
    """Token-id lookup table: (N, T) int -> (N, T, D) float.

    Stacked, G clients' tables are a ``(G, vocab, D)`` view: each client's
    rows gather from its own table, and the gradient scatter is one
    ``np.add.at`` indexed by ``(client, id)``, which adds each client's
    rows in the order its own scatter would.
    """

    _cache_attrs = ("_ids",)

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        *,
        rng: np.random.Generator,
        name: str = "embed",
    ):
        if vocab_size <= 0 or embed_dim <= 0:
            raise ValueError("vocab_size and embed_dim must be positive")
        self.vocab_size = vocab_size
        self.w = Parameter(initializers.normal(rng, (vocab_size, embed_dim)), f"{name}.w")

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None, stack=None
    ) -> np.ndarray:
        ids = np.asarray(x)
        low, high = ids.min(), ids.max()
        if low < 0 or high >= self.vocab_size:
            raise ValueError(
                f"token id {low if low < 0 else high} out of range for an embedding "
                f"table of vocab_size {self.vocab_size}"
            )
        self._ids = ids
        if scratch is None:
            return self.w.data[ids]
        ((w, _),) = stack or self.own_stack()
        tables = w if w.ndim == 3 else w[None]  # one client is G = 1
        out = scratch("y", ids.shape + w.shape[-1:], w.dtype)
        # Ids are in range (checked above), so "clip" never clips; the
        # default mode would gather into a temporary and copy it to ``out``.
        g = len(tables)
        for table, rows, dest in zip(tables, client_major(ids, g), client_major(out, g)):
            np.take(table, rows, axis=0, out=dest, mode="clip")
        return out

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True, stack=None
    ) -> np.ndarray | None:
        # Scatter-add gradients for repeated token ids.
        if scratch is None:
            np.add.at(self.w.grad, self._ids.reshape(-1), grad.reshape(-1, grad.shape[-1]))
        else:
            ((_, w_grad),) = stack or self.own_stack()
            tables = w_grad if w_grad.ndim == 3 else w_grad[None]  # one client is G = 1
            g = len(tables)
            np.add.at(
                tables,
                (np.arange(g)[:, None], self._ids.reshape(g, -1)),
                grad.reshape(g, -1, grad.shape[-1]),
            )
        if not input_grad:
            return None
        return np.zeros(self._ids.shape)  # no gradient w.r.t. integer ids

    @property
    def params(self) -> list[Parameter]:
        return [self.w]


def _slab_shapes(n: int, t: int, d: int, h: int, training: bool) -> tuple:
    """What the planned LSTM carves, in order, from its flat slab for an
    ``(n, t, d)`` input (a :class:`WeightSpec` does the carving).

    Every shape is linear in ``n``, so the slab is ``n`` rows of
    :func:`_slab_row` elements and a smaller batch is a prefix of a larger
    one's. Time-major: what a timestep touches is contiguous. Gate-major
    within a step (``[i, f, o, g, tanh(c)]`` as five ``(n, h)`` planes), so
    each gate, and the ``[i, f, o]`` block the one sigmoid runs over, is
    contiguous too.
    """
    forward = (
        (n * t, 4 * h),  # xp: input projection, all steps in one GEMM
        (n, 4 * h),  # z: h_{t-1} @ Wh, row-major as BLAS writes it
        (3, n, h),  # e: the sigmoid's float work buffer
        (n, h),  # tmp: i * g
        (4, n, h),  # bias: b spread over the rows, so adding it needs no broadcast
    )
    if not training:
        # No BPTT history: h, c and the gates roll over one step's worth
        # of memory.
        return forward + (
            (2, n, h),  # hc0: h_0 and the rolling c, zeroed together
            (5, n, h),  # s: one step's gates and tanh(c)
        )
    return forward + (
        (t + 1, 2, n, h),  # hc: (h_t, c_t) for t = 0..T
        (t, 5, n, h),  # s: gates and tanh(c) per step
        (t, 5, n, h),  # om: 1 - [i f o], 1 - [g tanh(c)]**2
        (t, n, 4 * h),  # dz: row-major per step, for dz @ Wh.T
        (n * t, 4 * h),  # dzf: batch-major, for the parameter GEMMs
        (n * t, h),  # hp: h_{t-1}, batch-major
        (n * t, d),  # dx
        (3, n, h),  # zero: dh of a step with no output, dh_next, dc_next
        (n, h),  # dh
        (n, h),  # dc
        (3, n, h),  # dg: d[i f o] before the sigmoid derivative
        (4, n, h),  # dzg: dz of one step, gate-major
    )


@functools.lru_cache(maxsize=64)
def _slab_row(t: int, d: int, h: int, training: bool) -> int:
    return WeightSpec(_slab_shapes(1, t, d, h, training)).total


class LSTM(Layer):
    """Single-layer LSTM over (N, T, D) inputs, emitting the final hidden
    state ``(N, H)``.

    Gate order in the fused kernel is ``[i, f, o, g]`` (input, forget,
    output, candidate). Forget-gate bias is initialized to 1, the standard
    trick for gradient flow early in training.

    With ``scratch`` (the fused-plan protocol, :mod:`repro.nn.plan`) both
    passes run over one arena slab per layer whose per-timestep views are
    bound once per input shape: the same ufuncs and BLAS calls on the same
    operands in the same order as the allocating bodies below, which stay
    as the reference the planned kernels are tested against.

    The planned kernels take G clients' batches client-major (one client
    is G = 1): the slab's rows are theirs, the GEMMs against ``Wx`` and
    ``Wh`` are stacked ``(G, ·, ·)`` matmuls, the parameter GEMMs and the
    bias sum run per client over ``(G, rows·T, ·)``, and every other step
    is elementwise over all G·rows rows.
    """

    #: The output is a view of the slab backward reads its hidden states
    #: from, so the next layer must not overwrite it in place.
    plan_backward_needs_output = True
    _cache_attrs = ("_x", "_hs", "_cs", "_gates", "_bound")

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        *,
        rng: np.random.Generator,
        name: str = "lstm",
    ):
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("input_dim and hidden_dim must be positive")
        h = hidden_dim
        self.hidden_dim = h
        self.wx = Parameter(
            initializers.glorot_uniform(rng, (input_dim, 4 * h), input_dim, 4 * h),
            f"{name}.wx",
        )
        wh = np.concatenate(
            [initializers.orthogonal(rng, (h, h)) for _ in range(4)], axis=1
        )
        self.wh = Parameter(wh, f"{name}.wh")
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget-gate bias
        self.b = Parameter(b, f"{name}.b")

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None, stack=None
    ) -> np.ndarray:
        # The slab has one dtype; mixed dtypes promote mid-sequence, which
        # only the allocating body reproduces.
        if scratch is not None and x.dtype == self.wx.data.dtype:
            return self._forward_planned(x, training, scratch, stack)
        n, t, d = x.shape
        h = self.hidden_dim
        self._x = x
        self._bound = None
        # Scratch in the input dtype so a float32 parameter store is not
        # silently promoted back to float64 mid-sequence.
        hs = np.zeros((t + 1, n, h), dtype=x.dtype)
        cs = np.zeros((t + 1, n, h), dtype=x.dtype)
        gates = np.zeros((t, n, 4 * h), dtype=x.dtype)
        # Precompute the input projection for all steps in one GEMM.
        xproj = x.reshape(n * t, d) @ self.wx.data  # (N*T, 4H)
        xproj = xproj.reshape(n, t, 4 * h).transpose(1, 0, 2)  # (T, N, 4H)
        for step in range(t):
            z = xproj[step] + hs[step] @ self.wh.data + self.b.data
            i = sigmoid(z[:, :h])
            f = sigmoid(z[:, h : 2 * h])
            o = sigmoid(z[:, 2 * h : 3 * h])
            g = np.tanh(z[:, 3 * h :])
            cs[step + 1] = f * cs[step] + i * g
            hs[step + 1] = o * np.tanh(cs[step + 1])
            gates[step] = np.concatenate([i, f, o, g], axis=1)
        self._hs, self._cs, self._gates = hs, cs, gates
        return hs[-1]

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True, stack=None
    ) -> np.ndarray | None:
        if self._bound is not None:
            return self._backward_planned(grad, scratch, input_grad, stack)
        x, hs, cs, gates = self._x, self._hs, self._cs, self._gates
        n, t, d = x.shape
        h = self.hidden_dim
        dh_seq = np.zeros((t, n, h), dtype=x.dtype)
        dh_seq[-1] = grad
        dh_next = np.zeros((n, h), dtype=x.dtype)
        dc_next = np.zeros((n, h), dtype=x.dtype)
        dz_all = np.zeros((t, n, 4 * h), dtype=x.dtype)
        for step in range(t - 1, -1, -1):
            dh = dh_seq[step] + dh_next
            i = gates[step][:, :h]
            f = gates[step][:, h : 2 * h]
            o = gates[step][:, 2 * h : 3 * h]
            g = gates[step][:, 3 * h :]
            c = cs[step + 1]
            tanh_c = np.tanh(c)
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * cs[step]
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    do * o * (1 - o),
                    dg * (1 - g**2),
                ],
                axis=1,
            )
            dz_all[step] = dz
            dh_next = dz @ self.wh.data.T
            dc_next = dc * f
        # Parameter gradients in two fused GEMMs.
        dz_flat = dz_all.transpose(1, 0, 2).reshape(n * t, 4 * h)
        self.wx.grad += x.reshape(n * t, d).T @ dz_flat
        h_prev = hs[:-1].transpose(1, 0, 2).reshape(n * t, h)
        self.wh.grad += h_prev.T @ dz_flat
        self.b.grad += dz_flat.sum(axis=0)
        if not input_grad:
            return None
        return (dz_flat @ self.wx.data.T).reshape(n, t, d)

    # ------------------------------------------------------------------ #
    # Planned kernels
    # ------------------------------------------------------------------ #
    def _bind(self, n: int, t: int, d: int, training: bool, slab: np.ndarray):
        """Slice ``slab`` into everything the loops index, once per shape."""
        h = self.hidden_dim
        views = WeightSpec(_slab_shapes(n, t, d, h, training)).split(slab.reshape(-1))
        b = SimpleNamespace()
        b.xp, b.z, b.e, b.tmp, b.bias = views[:5]
        xp = b.xp.reshape(n, t, 4, h)
        b.z4 = b.z.reshape(n, 4, h)
        if training:
            hc, s = views[5:7]
            b.hc0 = hc[0]
            states = [(hc[k, 0], hc[k, 1]) for k in range(t + 1)]
            gates = list(s)
            b.out = hc[t, 0]
        else:
            b.hc0, s = views[5:7]
            h0, c = b.hc0
            # h and c roll over h_0's and c_0's rows.
            states = [(h0, c)] * (t + 1)
            gates = [s] * t
            b.out = h0
        #: h_{t-1} per step: the recurrent GEMM's input.
        b.h_prev = [states[k][0] for k in range(t)]
        #: Per step, in the order the forward loop uses them.
        b.fwd = [
            (
                xp[:, k],  # this step's input projection, (n, 4, h)
                gk[:4].transpose(1, 0, 2),  # the gate planes seen row-major
                gk[:4],
                gk[:3],  # [i f o]: one sigmoid
                gk[3],  # g
                gk[1],  # f
                states[k][1],  # c_{t-1}
                states[k + 1][1],  # c_t
                gk[0],  # i
                gk[4],  # tanh(c_t)
                gk[2],  # o
                states[k + 1][0],  # h_t
            )
            for k, gk in enumerate(gates)
        ]
        if not training:
            return b
        (b.om, b.dz, b.dzf, b.hp, dx, b.zero, b.dh, b.dc, b.dg, b.dzg) = views[7:]
        b.s3, b.s2, b.om3, b.om2 = s[:, :3], s[:, 3:], b.om[:, :3], b.om[:, 3:]
        b.dzf_from = (b.dzf.reshape(n, t, 4 * h), b.dz.transpose(1, 0, 2))
        b.hp_from = (b.hp.reshape(n, t, h), hc[:-1, 0].transpose(1, 0, 2))
        b.dx2d, b.dx = dx, dx.reshape(n, t, d)
        b.dzg_rows = b.dzg.transpose(1, 0, 2)
        #: dz per step, last step first: the input of dz @ Wh.T.
        b.dz_rows = [b.dz[k] for k in range(t - 1, -1, -1)]
        #: Per step, last step first.
        b.bwd = [
            (
                s[k, 4],  # tanh(c_t)
                s[k, 2],  # o
                b.om[k, 4],  # 1 - tanh(c_t)**2
                s[k, 3],  # g
                hc[k, 1],  # c_{t-1}
                s[k, 0],  # i
                b.om[k, 3],  # 1 - g**2
                s[k, :3],
                b.om[k, :3],
                b.dz[k].reshape(n, 4, h),
                s[k, 1],  # f
            )
            for k in range(t - 1, -1, -1)
        ]
        return b

    def _forward_planned(self, x: np.ndarray, training: bool, scratch, stack) -> np.ndarray:
        (wx, _), (wh, _), (bias, _) = stack or self.own_stack()
        n, t, d = x.shape
        h = self.hidden_dim
        b = scratch(
            "bptt" if training else "fwd",
            (n, _slab_row(t, d, h, training)),
            x.dtype,
            bind=functools.partial(self._bind, n, t, d, training),
        )
        self._x = x
        self._bound = b
        # Input shapes share the slab's memory, so h_0 = c_0 = 0 is
        # re-established on every call.
        b.hc0.fill(0.0)
        # G > 1 clients' GEMMs take (G, rows, ·) views, one client's its rows.
        lead, h_prevs = wx.shape[:-2], b.h_prev
        if lead:
            h_prevs = [h_prev.reshape(lead + (-1, h)) for h_prev in h_prevs]
        np.matmul(x.reshape(lead + (-1, d)), wx, out=b.xp.reshape(lead + (-1, 4 * h)))
        np.copyto(
            b.bias.reshape((4,) + lead + (-1, h)), bias.reshape(lead + (4, 1, h)).swapaxes(0, -3)
        )
        work = (b.e, scratch("nonneg", (n, 3 * h), np.bool_).reshape(3, n, h))
        z, z4, tmp, bias = b.z.reshape(lead + (-1, 4 * h)), b.z4, b.tmp, b.bias
        for h_prev, (xp, rows, gates, ifo, g, f, c_prev, c, i, tanh_c, o, h_out) in zip(
            h_prevs, b.fwd
        ):
            # z = (xproj[t] + h @ Wh) + b, landing gate-major.
            np.matmul(h_prev, wh, out=z)
            np.add(xp, z4, out=rows)
            np.add(gates, bias, out=gates)
            sigmoid(ifo, out=ifo, work=work)
            np.tanh(g, out=g)
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=tmp)
            np.add(c, tmp, out=c)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h_out)
        return b.out

    def _backward_planned(self, grad: np.ndarray, scratch, input_grad: bool, stack):
        b, x = self._bound, self._x
        if not hasattr(b, "bwd"):
            raise RuntimeError(
                "planned LSTM backward needs a training=True forward: the "
                "inference kernel keeps no BPTT history"
            )
        (wx, wx_grad), (wh, wh_grad), (_, b_grad) = stack or self.own_stack()
        t, d, h = x.shape[1], x.shape[2], self.hidden_dim
        # Everything the recurrence does not feed: one whole-slab op each.
        np.subtract(1, b.s3, out=b.om3)
        np.square(b.s2, out=b.om2)
        np.subtract(1, b.om2, out=b.om2)
        b.zero.fill(0.0)
        no_dh, dh_next, dc_next = b.zero
        dh_seq = [grad] + [no_dh] * (t - 1)
        # G > 1 clients' GEMMs take (G, rows, ·) views, one client's its rows.
        lead, dzs, dh_next_c = wx.shape[:-2], b.dz_rows, dh_next
        if lead:
            dzs = [dz.reshape(lead + (-1, 4 * h)) for dz in dzs]
            dh_next_c = dh_next.reshape(lead + (-1, h))
        wh_t = wh.swapaxes(-1, -2)
        dh, dc, dg, dzg, dzg_rows = b.dh, b.dc, b.dg, b.dzg, b.dzg_rows
        d_i, d_f, d_o = dg
        dz_ifo, dz_g = dzg[:3], dzg[3]
        for dh_out, dz, (tanh_c, o, om_tanh_c, g, c_prev, i, om_g, ifo, om_ifo, dz4, f) in zip(
            dh_seq, dzs, b.bwd
        ):
            np.add(dh_out, dh_next, out=dh)
            np.multiply(dh, tanh_c, out=d_o)
            np.multiply(dh, o, out=dc)
            np.multiply(dc, om_tanh_c, out=dc)
            np.add(dc, dc_next, out=dc)
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, c_prev, out=d_f)
            np.multiply(dc, i, out=dz_g)
            np.multiply(dz_g, om_g, out=dz_g)
            np.multiply(dg, ifo, out=dg)
            np.multiply(dg, om_ifo, out=dz_ifo)
            np.copyto(dz4, dzg_rows)
            np.matmul(dz, wh_t, out=dh_next_c)
            np.multiply(dc, f, out=dc_next)
        # Parameter gradients in two fused GEMMs per client, batch-major
        # like the reference's.
        np.copyto(*b.dzf_from)
        np.copyto(*b.hp_from)
        dzf = b.dzf.reshape(lead + (-1, 4 * h))
        gw = scratch("~gw", wx_grad.shape, wx_grad.dtype)
        np.matmul(x.reshape(lead + (-1, d)).swapaxes(-1, -2), dzf, out=gw)
        wx_grad += gw
        gw = scratch("~gw", wh_grad.shape, wh_grad.dtype)
        np.matmul(b.hp.reshape(lead + (-1, h)).swapaxes(-1, -2), dzf, out=gw)
        wh_grad += gw
        gb = scratch("~gb", b_grad.shape, b_grad.dtype)
        np.add.reduce(dzf, axis=-2, out=gb)
        b_grad += gb
        if not input_grad:
            return None
        np.matmul(dzf, wx.swapaxes(-1, -2), out=b.dx2d.reshape(lead + (-1, d)))
        return b.dx

    @property
    def params(self) -> list[Parameter]:
        return [self.wx, self.wh, self.b]
