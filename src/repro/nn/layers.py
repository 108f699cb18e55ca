"""Core layers: base class, Dense, Flatten, Dropout, BatchNorm."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.tensor import Parameter

__all__ = ["Layer", "Dense", "Flatten", "Dropout", "BatchNorm", "client_major", "per_client"]


def client_major(a: np.ndarray, clients: int) -> np.ndarray:
    """``a``'s rows as ``clients`` equal, consecutive batches: a
    ``(clients, rows, ...)`` view of a cohort plan's stacked batch."""
    return a.reshape((clients, -1) + a.shape[1:])


def per_client(param: np.ndarray, ndim: int) -> np.ndarray:
    """A stacked ``(G, *shape)`` parameter broadcast against an ``ndim``-D
    client-major operand: bias ``(G, N)`` becomes ``(G, 1, N)`` for
    ``(G, rows, N)``, and weights gain the batch axes a time-distributed
    input loops over (``(G, 1, in, out)`` for ``(G, rows, T, in)``)."""
    if param.ndim == ndim:
        return param
    return param.reshape(param.shape[:1] + (1,) * (ndim - param.ndim) + param.shape[1:])


class Layer:
    """Base class for all layers.

    Contract:

    - ``forward(x, training)`` caches whatever the backward pass needs and
      returns the output.
    - ``backward(grad)`` receives ``dL/d(output)``, **accumulates** parameter
      gradients into ``param.grad``, and returns ``dL/d(input)``.
    - :attr:`params` lists trainable parameters in a fixed order; this order
      defines the layout of the model's flat weight vector, so it must be
      stable across calls.

    Layers that additionally implement the fused-plan kernel protocol
    (optional ``out=``/``scratch=`` keyword parameters writing results into
    arena-provided buffers, see :mod:`repro.nn.plan`) set
    :attr:`plan_aware` to True; every planned operation must be the
    ``out=`` form of exactly the legacy operation so both paths stay
    bit-identical. :attr:`_cache_attrs` names the attributes forward caches
    for backward; :meth:`release_caches` drops them so long-lived replicas
    stop pinning last-batch activations between rounds.

    :attr:`plan_stackable` layers can train a cohort in one call: their
    input holds G clients' equal-size batches client-major, and a layer
    with parameters takes a ``stack`` of per-client ``(data, grad)``
    views, each ``(G, *shape)``, in :attr:`params` order (or its own
    parameters as they are, for one client).
    """

    #: True when forward/backward accept ``out``/``scratch`` kwargs.
    plan_aware = False
    #: True when G clients' stacked batches train as if one at a time:
    #: row-wise or elementwise work, no hidden state, and any parameters
    #: taken from a ``stack`` (see :func:`client_major`).
    plan_stackable = False
    #: True when backward reads the layer's own *output* values (e.g.
    #: Tanh/Sigmoid cache their output for the derivative), or the output
    #: can be the layer's input handed through (Dropout at inference). The
    #: plan must not let the next layer overwrite such a layer's output
    #: buffer.
    plan_backward_needs_output = False
    #: Attributes set by forward and consumed by backward.
    _cache_attrs: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def release_caches(self) -> None:
        """Drop forward caches (activations, masks) held for backward."""
        for name in self._cache_attrs:
            if hasattr(self, name):
                delattr(self, name)

    @property
    def params(self) -> list[Parameter]:
        return []

    def own_stack(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """This layer's own parameters in ``stack`` form: one client's,
        without the client axis (kernels tell a cohort's by its extra axis)."""
        return [(p.data, p.grad) for p in self.params]

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Accepts input of shape ``(N, in_features)`` or ``(N, T, in_features)``
    (the time-distributed case used by the language model head).
    """

    plan_aware = True
    plan_stackable = True
    _cache_attrs = ("_x",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
        name: str = "dense",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        w = initializers.glorot_uniform(
            rng, (in_features, out_features), in_features, out_features
        )
        self.w = Parameter(w, f"{name}.w")
        self.b = Parameter(initializers.zeros((out_features,)), f"{name}.b")

    def forward(
        self, x: np.ndarray, training: bool = False, *, out=None, scratch=None, stack=None
    ) -> np.ndarray:
        self._x = x
        if out is None and scratch is None:
            return x @ self.w.data + self.b.data
        (w, _), (b, _) = stack or self.own_stack()
        if out is None:
            out = scratch("y", x.shape[:-1] + (w.shape[-1],), np.result_type(x.dtype, w.dtype))
        xs, ys = x, out
        if w.ndim > 2:
            # G clients' weights: one GEMM each, the call each client trained
            # alone makes (tests/nn/test_cohort.py pins the bits).
            xs, ys = client_major(x, len(w)), client_major(out, len(w))
            w, b = per_client(w, xs.ndim), per_client(b, ys.ndim)
        np.matmul(xs, w, out=ys)
        np.add(ys, b, out=ys)
        return out

    def backward(
        self,
        grad: np.ndarray,
        *,
        out=None,
        scratch=None,
        input_grad: bool = True,
        stack=None,
    ) -> np.ndarray | None:
        x = self._x
        if scratch is None:
            if x.ndim == 2:
                flat_x, flat_g = x, grad
            else:  # time-distributed: collapse leading axes
                flat_x = x.reshape(-1, x.shape[-1])
                flat_g = grad.reshape(-1, grad.shape[-1])
            self.w.grad += flat_x.T @ flat_g
            self.b.grad += flat_g.sum(axis=0)
            if not input_grad:
                return None
            if out is None:
                return grad @ self.w.data.T
            np.matmul(grad, self.w.data.T, out=out)
            return out
        (w, w_grad), (_, b_grad) = stack or self.own_stack()
        # Time-distributed leading axes collapse into rows (per client).
        lead = (len(w), -1) if w.ndim > 2 else (-1,)
        flat_x = x.reshape(lead + x.shape[-1:])
        flat_g = grad.reshape(lead + grad.shape[-1:])
        # "~"-named scratch is arena-wide shared (dead within this step);
        # gx stays per-layer — it is live until the next backward consumes it.
        gw = scratch("~gw", w.shape, w_grad.dtype)
        np.matmul(flat_x.swapaxes(-1, -2), flat_g, out=gw)
        w_grad += gw
        gb = scratch("~gb", b_grad.shape, b_grad.dtype)
        # np.sum delegates to add.reduce; calling it directly skips the
        # dispatch wrapper (identical reduction, identical bits).
        np.add.reduce(flat_g, axis=-2, out=gb)
        b_grad += gb
        if not input_grad:
            return None
        if out is None:
            out = scratch("gx", x.shape, grad.dtype)
        gs, ys = grad, out
        if w.ndim > 2:
            gs, ys = client_major(grad, len(w)), client_major(out, len(w))
            w = per_client(w, gs.ndim)
        np.matmul(gs, w.swapaxes(-1, -2), out=ys)
        return out

    @property
    def params(self) -> list[Parameter]:
        return [self.w, self.b]


class Flatten(Layer):
    """Collapse all axes after the batch axis."""

    plan_stackable = True
    _cache_attrs = ("_shape",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    A dedicated RNG stream keeps the dropout mask sequence reproducible and
    independent of other stochastic components.
    """

    plan_aware = True
    #: At inference (and at rate 0) the output *is* the input buffer —
    #: caller data, or a buffer the previous layer's backward reads — so
    #: the next layer must not overwrite it in place.
    plan_backward_needs_output = True
    _cache_attrs = ("_mask",)

    def __init__(self, rate: float, *, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    @property
    def replica_safe(self) -> bool:
        # The mask RNG is consumed in training-call order, so independent
        # copies draw different masks than one shared instance would.
        return self.rate == 0.0

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None
    ) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        if scratch is None:
            # Mask in the input dtype so reduced-precision stores stay put
            # (a no-op cast at the float64 default).
            self._mask = ((self._rng.random(x.shape) < keep) / keep).astype(
                x.dtype, copy=False
            )
            return x * self._mask
        # random(out=) fills the buffer from the stream exactly as
        # random(shape) fills a fresh one: same draws, same order. The
        # draws become the 0/1 keep flags and then, divided in float64 and
        # cast on the way out like the reference's astype, the mask.
        u = scratch("u", x.shape, np.float64)
        self._rng.random(out=u)
        np.less(u, keep, out=u)
        self._mask = u if x.dtype == u.dtype else scratch("mask", x.shape, x.dtype)
        np.divide(u, keep, out=self._mask)
        out = scratch("y", x.shape, x.dtype)
        np.multiply(x, self._mask, out=out)
        return out

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        if self._mask is None:
            return grad
        if scratch is None:
            return grad * self._mask
        np.multiply(grad, self._mask, out=grad)  # the upstream grad buffer is dead
        return grad


class BatchNorm(Layer):
    """Batch normalization over the feature (last) axis for 2-D inputs.

    Running statistics use exponential moving averages with the conventional
    momentum formulation; they are *not* trainable parameters and therefore
    do not appear in the flat weight vector (matching how FL systems treat
    BN statistics as local state unless explicitly aggregated).
    """

    def __init__(
        self, num_features: int, *, momentum: float = 0.9, eps: float = 1e-5, name: str = "bn"
    ):
        self.gamma = Parameter(np.ones(num_features), f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features), f"{name}.beta")
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    #: Running statistics accumulate across training calls, so replicas
    #: diverge from a shared instance (classic FL BN-state caveat).
    replica_safe = False
    plan_aware = True
    _cache_attrs = ("_std", "_xhat")

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None
    ) -> np.ndarray:
        if scratch is not None:
            return self._forward_planned(x, training, scratch)
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mean) / self._std
        return self.gamma.data * self._xhat + self.beta.data

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True
    ) -> np.ndarray | None:
        if scratch is not None:
            return self._backward_planned(grad, scratch, input_grad)
        xhat = self._xhat
        self.gamma.grad += np.sum(grad * xhat, axis=0)
        self.beta.grad += grad.sum(axis=0)
        if not input_grad:
            return None
        dxhat = grad * self.gamma.data
        # Standard batch-norm backward (training-mode statistics).
        return (
            dxhat - dxhat.mean(axis=0) - xhat * np.mean(dxhat * xhat, axis=0)
        ) / self._std

    # ------------------------------------------------------------------ #
    # Planned kernels. ``mean``/``var`` below are the ufunc calls
    # ``ndarray.mean``/``var`` make (``numpy/_core/_methods.py``): add.reduce,
    # then true_divide by the row count as an ``intp``; ``var`` squares
    # ``x - mean`` — which normalization needs anyway — and repeats that.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mean0(a: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.add.reduce(a, axis=0, out=out)
        return np.true_divide(out, np.intp(a.shape[0]), out=out, casting="unsafe")

    def _forward_planned(self, x: np.ndarray, training: bool, scratch) -> np.ndarray:
        stat_shape, dt = x.shape[1:], x.dtype
        xhat = scratch("xhat", x.shape, dt)
        std = scratch("std", stat_shape, dt)
        if training:
            mean = self._mean0(x, scratch("mean", stat_shape, dt))
            np.subtract(x, mean, out=xhat)
            sq = scratch("~sq", x.shape, dt)
            np.square(xhat, out=sq)
            var = self._mean0(sq, std)
            # Running statistics move in place; (1 - momentum) * stat may
            # clobber the batch mean, which is dead, but not var (= std).
            np.multiply(self.running_mean, self.momentum, out=self.running_mean)
            np.multiply(mean, 1 - self.momentum, out=mean)
            np.add(self.running_mean, mean, out=self.running_mean)
            np.multiply(self.running_var, self.momentum, out=self.running_var)
            np.multiply(var, 1 - self.momentum, out=mean)
            np.add(self.running_var, mean, out=self.running_var)
        else:
            np.subtract(x, self.running_mean, out=xhat)
            var = self.running_var
        np.add(var, self.eps, out=std)
        np.sqrt(std, out=std)
        np.divide(xhat, std, out=xhat)
        self._std, self._xhat = std, xhat
        out = scratch("y", x.shape, dt)
        np.multiply(self.gamma.data, xhat, out=out)
        np.add(out, self.beta.data, out=out)
        return out

    def _backward_planned(self, grad: np.ndarray, scratch, input_grad: bool):
        xhat = self._xhat
        prod = scratch("~sq", grad.shape, grad.dtype)
        stat = scratch("~gb", self.gamma.data.shape, self.gamma.grad.dtype)
        np.multiply(grad, xhat, out=prod)
        np.add.reduce(prod, axis=0, out=stat)
        self.gamma.grad += stat
        np.add.reduce(grad, axis=0, out=stat)
        self.beta.grad += stat
        if not input_grad:
            return None
        dxhat = scratch("gx", grad.shape, grad.dtype)
        np.multiply(grad, self.gamma.data, out=dxhat)
        np.multiply(dxhat, xhat, out=prod)
        # dxhat - mean(dxhat) - xhat * mean(dxhat * xhat), left to right.
        np.subtract(dxhat, self._mean0(dxhat, stat), out=dxhat)
        np.multiply(xhat, self._mean0(prod, stat), out=prod)
        np.subtract(dxhat, prod, out=dxhat)
        np.divide(dxhat, self._std, out=dxhat)
        return dxhat

    @property
    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]
