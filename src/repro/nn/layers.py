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
    ``(G, rows, N)``."""
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
    - :attr:`params` lists the layer's entries of the model's flat weight
      vector in a fixed order, which must be stable across calls: the
      trainable ones in this order, then any ``trainable=False`` ones (see
      :class:`~repro.nn.tensor.Parameter`), which the flat vector keeps
      after every trainable entry of the model.

    A layer a :class:`~repro.nn.plan.TrainingPlan` runs also implements the
    fused-plan kernel protocol (see :mod:`repro.nn.plan`):
    ``forward(x, training, *, scratch=None)`` and
    ``backward(grad, *, scratch=None, input_grad=True)``, writing results
    into the arena buffers ``scratch`` provides. Every planned operation
    must be the ``out=`` form of exactly the ``scratch=None`` operation, so
    both stay bit-identical. The signature is the protocol: the plan
    refuses, by class name, a layer whose forward takes no ``scratch``.
    :attr:`_cache_attrs` names the attributes forward caches for backward;
    :meth:`release_caches` drops them so long-lived replicas stop pinning
    last-batch activations between rounds.

    Planned kernels train a cohort in one call, as if its clients trained
    one at a time: their input holds G clients' equal-size batches
    client-major (see :func:`client_major`), the work is row-wise or
    elementwise, and a layer with parameters takes a ``stack`` of
    per-client ``(data, grad)`` views, each ``(G, *shape)``, in
    :attr:`params` order (or its own parameters as they are, for one
    client). Nothing carries over from one client to the next: what a
    layer updates besides weights lives in its non-trainable entries, and
    what it draws comes from each client's own generator (:attr:`draws`).
    """

    #: True when a training forward draws at random: it takes ``rngs``, one
    #: generator per client of the batch, in client-major order — each
    #: client round's own (``FixedBatchSchedule.mask_rng``).
    draws = False
    #: True when backward reads the layer's own *output* values (the LSTM's
    #: output is a view of the slab its backward reads), or the output can
    #: be the layer's input handed through (Flatten's view; Dropout at
    #: inference). The plan must not let the next layer overwrite such a
    #: layer's output buffer.
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


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` over ``(N, in_features)``
    inputs."""

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
            self.w.grad += x.T @ grad
            self.b.grad += grad.sum(axis=0)
            if not input_grad:
                return None
            if out is None:
                return grad @ self.w.data.T
            np.matmul(grad, self.w.data.T, out=out)
            return out
        (w, w_grad), (_, b_grad) = stack or self.own_stack()
        # G clients' rows as (G, rows, ·), one client's as they are.
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
    """Collapse all axes after the batch axis: a reshape view, planned or not."""

    #: The output is a view of the input — caller data, or a buffer the
    #: layer before reads in its backward — so the next layer must not
    #: overwrite it in place.
    plan_backward_needs_output = True
    _cache_attrs = ("_shape",)

    def forward(self, x: np.ndarray, training: bool = False, *, scratch=None) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True
    ) -> np.ndarray | None:
        return grad.reshape(self._shape) if input_grad else None


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    A training forward draws its masks from the generator of the client
    round it trains (``rngs``, one per client of the batch; see
    :attr:`Layer.draws`), so a round's masks depend on that round alone,
    however the cohort around it is stacked. Without ``rngs`` — a lone
    ``Sequential.forward`` — they come from a generator seeded 0.
    """

    draws = True
    #: At inference (and at rate 0) the output *is* the input buffer —
    #: caller data, or a buffer the previous layer's backward reads — so
    #: the next layer must not overwrite it in place.
    plan_backward_needs_output = True
    _cache_attrs = ("_mask",)

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None, rngs=None
    ) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        rngs = rngs or (np.random.default_rng(0),)
        keep = 1.0 - self.rate
        if scratch is None:
            (rng,) = rngs
            # Mask in the input dtype so reduced-precision stores stay put
            # (a no-op cast at the float64 default).
            self._mask = ((rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
            return x * self._mask
        # random(out=) fills each client's rows from its stream exactly as
        # random(shape) fills a fresh array: same draws, same order. The
        # draws become the 0/1 keep flags and then, divided in float64 and
        # cast on the way out like the reference's astype, the mask.
        u = scratch("u", x.shape, np.float64)
        for rows, rng in zip(client_major(u, len(rngs)), rngs):
            rng.random(out=rows)
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
    momentum formulation. They are non-trainable entries of the flat weight
    vector (``running_mean`` / ``running_var``, after every trainable
    entry): they travel with the model, each client's training batches
    update its own copy, and the server aggregates them like any weight.

    Stacked, each client normalizes by the statistics of its own rows and
    folds them into its own ``(G, F)`` rows of the running statistics.
    """

    def __init__(
        self, num_features: int, *, momentum: float = 0.9, eps: float = 1e-5, name: str = "bn"
    ):
        self.gamma = Parameter(np.ones(num_features), f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features), f"{name}.beta")
        self.momentum = momentum
        self.eps = eps
        self.running_mean = Parameter(
            np.zeros(num_features), f"{name}.running_mean", trainable=False
        )
        self.running_var = Parameter(np.ones(num_features), f"{name}.running_var", trainable=False)

    _cache_attrs = ("_std", "_xhat")

    def forward(
        self, x: np.ndarray, training: bool = False, *, scratch=None, stack=None
    ) -> np.ndarray:
        if scratch is not None:
            return self._forward_planned(x, training, scratch, stack)
        running_mean, running_var = self.running_mean.data, self.running_var.data
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            running_mean[...] = self.momentum * running_mean + (1 - self.momentum) * mean
            running_var[...] = self.momentum * running_var + (1 - self.momentum) * var
        else:
            mean, var = running_mean, running_var
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mean) / self._std
        return self.gamma.data * self._xhat + self.beta.data

    def backward(
        self, grad: np.ndarray, *, scratch=None, input_grad: bool = True, stack=None
    ) -> np.ndarray | None:
        if scratch is not None:
            return self._backward_planned(grad, scratch, input_grad, stack)
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
    # Planned kernels: G > 1 clients' rows as ``(G, rows, F)`` with
    # statistics ``(G, 1, F)``, one client's as they are with ``(1, F)``.
    # ``mean``/``var`` below are the ufunc calls ``ndarray.mean``/``var``
    # make (``numpy/_core/_methods.py``): add.reduce over the rows, then
    # true_divide by the row count as an ``intp``; ``var`` squares
    # ``x - mean`` — which normalization needs anyway — and repeats that.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mean_rows(a: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.add.reduce(a, axis=-2, keepdims=True, out=out)
        return np.true_divide(out, np.intp(a.shape[-2]), out=out, casting="unsafe")

    def _forward_planned(self, x: np.ndarray, training: bool, scratch, stack):
        (gamma, _), (beta, _), (running_mean, _), (running_var, _) = stack or self.own_stack()
        clients, features, dt = len(gamma) if gamma.ndim > 1 else 1, x.shape[-1], x.dtype
        rows, stat_shape = x.shape, (1, features)
        if clients > 1:
            rows, stat_shape = (clients, -1, features), (clients, 1, features)
        xs = x.reshape(rows)
        xhat = scratch("xhat", x.shape, dt).reshape(rows)
        std = scratch("std", (clients, features), dt).reshape(stat_shape)
        if training:
            mean = self._mean_rows(xs, scratch("mean", (clients, features), dt).reshape(stat_shape))
            np.subtract(xs, mean, out=xhat)
            sq = scratch("~sq", x.shape, dt).reshape(rows)
            np.square(xhat, out=sq)
            var = self._mean_rows(sq, std)
            # Each client's own running statistics, elementwise; ``mean``
            # is dead now, so it takes the products.
            m, mean = self.momentum, mean.reshape(running_mean.shape)
            np.multiply(running_mean, m, out=running_mean)
            np.multiply(mean, 1 - m, out=mean)
            np.add(running_mean, mean, out=running_mean)
            np.multiply(running_var, m, out=running_var)
            np.multiply(var.reshape(running_var.shape), 1 - m, out=mean)
            np.add(running_var, mean, out=running_var)
        else:
            np.subtract(xs, running_mean, out=xhat)
            var = running_var
        np.add(var, self.eps, out=std)
        np.sqrt(std, out=std)
        np.divide(xhat, std, out=xhat)
        self._std, self._xhat = std, xhat
        out = scratch("y", x.shape, dt)
        ys = out.reshape(rows)
        np.multiply(gamma.reshape(stat_shape), xhat, out=ys)
        np.add(ys, beta.reshape(stat_shape), out=ys)
        return out

    def _backward_planned(self, grad: np.ndarray, scratch, input_grad: bool, stack):
        (gamma, gamma_grad), (_, beta_grad), *_ = stack or self.own_stack()
        xhat, stat_shape = self._xhat, self._std.shape
        gs = grad.reshape(xhat.shape)
        prod = scratch("~sq", grad.shape, grad.dtype).reshape(xhat.shape)
        stat = scratch("~gb", gamma_grad.shape, gamma_grad.dtype)
        np.multiply(gs, xhat, out=prod)
        np.add.reduce(prod, axis=-2, out=stat)
        gamma_grad += stat
        np.add.reduce(gs, axis=-2, out=stat)
        beta_grad += stat
        if not input_grad:
            return None
        out = scratch("gx", grad.shape, grad.dtype)
        dxhat, stat = out.reshape(xhat.shape), stat.reshape(stat_shape)
        np.multiply(gs, gamma.reshape(stat_shape), out=dxhat)
        np.multiply(dxhat, xhat, out=prod)
        # dxhat - mean(dxhat) - xhat * mean(dxhat * xhat), left to right.
        np.subtract(dxhat, self._mean_rows(dxhat, stat), out=dxhat)
        np.multiply(xhat, self._mean_rows(prod, stat), out=prod)
        np.subtract(dxhat, prod, out=dxhat)
        np.divide(dxhat, self._std, out=dxhat)
        return out

    @property
    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta, self.running_mean, self.running_var]
