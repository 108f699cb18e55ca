"""FedProx/FedAT proximal term tests."""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.proximal import ProximalTerm
from repro.nn.zoo import build_mlp


def test_zero_lambda_is_noop(rng):
    prox = ProximalTerm(0.0)
    m = build_mlp(4, 2, rng=rng)
    prox.set_reference(m.store)
    m.store.data += 1.0
    for p in m.params:
        p.grad[...] = 1.0
    prox(m.params)
    for p in m.params:
        np.testing.assert_array_equal(p.grad, 1.0)


def test_gradient_direction_points_to_reference(rng):
    prox = ProximalTerm(2.0)
    m = build_mlp(4, 2, rng=rng)
    prox.set_reference(m.store)
    m.store.data -= 1.0  # reference above current weights
    prox(m.params)
    for p in m.params:
        # grad += λ (w − ref) = 2 · (−1) = −2
        np.testing.assert_allclose(p.grad, -2.0)


def test_penalty_value(rng):
    prox = ProximalTerm(0.4)
    m = build_mlp(3, 2, rng=rng)
    prox.set_reference(m.store)
    m.store.data += 0.5
    n = m.num_params
    np.testing.assert_allclose(prox.penalty(m.params), 0.5 * 0.4 * 0.25 * n, rtol=1e-9)


def test_penalty_zero_without_reference(rng):
    m = build_mlp(3, 2, rng=rng)
    assert ProximalTerm(0.4).penalty(m.params) == 0.0


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        ProximalTerm(-0.1)


def test_mismatched_reference_rejected(rng):
    prox = ProximalTerm(1.0)
    m = build_mlp(3, 2, rng=rng)
    prox.set_reference(build_mlp(4, 2, rng=rng).store)
    with pytest.raises(ValueError, match="do not match"):
        prox(m.params)


def test_partial_parameter_list_rejected(rng):
    """The hook is one whole-buffer op: a subset of a model's parameters
    cannot be constrained on its own."""
    prox = ProximalTerm(1.0)
    m = build_mlp(3, 2, rng=rng)
    prox.set_reference(m.store)
    with pytest.raises(ValueError, match="FlatParameterStore"):
        prox(m.params[:1])


def test_reference_is_a_snapshot(rng):
    """Later weight updates must not move the reference."""
    prox = ProximalTerm(1.0)
    m = build_mlp(3, 2, rng=rng)
    prox.set_reference(m.store)
    m.store.data[:] = 0.0
    assert prox.penalty(m.params) > 0.0


def test_constraint_keeps_weights_near_global(rng):
    """Training with a large λ must stay closer to the reference than λ=0."""
    x = rng.normal(size=(30, 6))
    y = rng.integers(0, 3, size=30)
    loss = SoftmaxCrossEntropy()

    def distance_after_training(lam: float) -> float:
        m = build_mlp(6, 3, rng=np.random.default_rng(0))
        ref_flat = m.get_flat_weights()
        prox = ProximalTerm(lam)
        prox.set_reference(m.store)
        opt = SGD(lr=0.2)
        for _ in range(50):
            m.train_on_batch(x, y, loss, opt, grad_hook=prox if lam > 0 else None)
        return float(np.linalg.norm(m.get_flat_weights() - ref_flat))

    assert distance_after_training(5.0) < distance_after_training(0.0) * 0.7


def test_batch_norm_statistics_are_not_pulled(rng):
    """The pull covers the trainable prefix of the flat vector only."""
    from repro.nn.zoo import build_lstm_classifier

    m = build_lstm_classifier(8, 4, rng=rng, embed_dim=4, hidden_dim=4)
    prox = ProximalTerm(2.0)
    prox.set_reference(m.store)
    m.store.data -= 1.0
    prox(m.params)
    t = m.store.trainable
    np.testing.assert_allclose(m.store.grad[:t], -2.0)
    np.testing.assert_array_equal(m.store.grad[t:], 0.0)
    assert prox.penalty(m.params) == pytest.approx(0.5 * 2.0 * t)
