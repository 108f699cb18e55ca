"""Numerical-gradient checking utilities and the small MLP shared across
nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import Dense, Layer
from repro.nn.model import Sequential
from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter


def adopted(*arrays) -> list[Parameter]:
    """One ``Parameter`` per array, adopted into a shared
    :class:`FlatParameterStore` — what ``Sequential`` does for a model's
    parameters, and what optimizers require before they will step."""
    params = [Parameter(np.asarray(a, dtype=np.float64)) for a in arrays]
    FlatParameterStore(params)
    return params


def build_mlp(
    input_dim: int,
    num_classes: int,
    *,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (64,),
) -> Sequential:
    """A small MLP: dense + ReLU stacks, then a dense head (non-convex, fast)."""
    layers: list = []
    prev = input_dim
    for i, width in enumerate(hidden):
        layers.append(Dense(prev, width, rng=rng, name=f"fc{i + 1}"))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, num_classes, rng=rng, name="head"))
    return Sequential(layers, name="mlp")


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_layer_gradients(
    layer: Layer,
    x: np.ndarray,
    *,
    rng: np.random.Generator,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    training: bool = True,
    check_input_grad: bool = True,
) -> None:
    """Verify a layer's backward pass against finite differences.

    Uses the scalar objective ``sum(out * r)`` for a fixed random ``r`` so
    the analytic upstream gradient is exactly ``r``.
    """
    out = layer.forward(x, training=training)
    r = rng.normal(size=out.shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x, training=training) * r))

    # Analytic gradients.
    for p in layer.params:
        p.grad.fill(0.0)
    layer.forward(x, training=training)
    dx = layer.backward(r)

    if check_input_grad and np.issubdtype(x.dtype, np.floating):
        num_dx = numeric_grad(objective, x)
        np.testing.assert_allclose(dx, num_dx, atol=atol, rtol=rtol)

    for p in layer.params:
        num = numeric_grad(objective, p.data)
        np.testing.assert_allclose(
            p.grad, num, atol=atol, rtol=rtol, err_msg=f"param {p.name}"
        )


def check_model_loss_gradients(
    model: Sequential,
    loss,
    x: np.ndarray,
    y: np.ndarray,
    *,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Verify end-to-end dLoss/dParams for a full model."""

    def objective() -> float:
        return loss.forward(model.forward(x, training=False), y)

    model.store.zero_grad()
    value = loss.forward(model.forward(x, training=False), y)
    assert np.isfinite(value)
    model.backward(loss.backward())
    for p in model.params:
        num = numeric_grad(objective, p.data)
        np.testing.assert_allclose(
            p.grad, num, atol=atol, rtol=rtol, err_msg=f"param {p.name}"
        )
