"""ReLU layer and activation function tests."""

import numpy as np

from repro.nn.activations import ReLU, sigmoid, softmax
from tests.helpers import check_layer_gradients


def test_sigmoid_stable_at_extremes():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[[0, 2, 4]], [0.0, 0.5, 1.0], atol=1e-12)


def test_sigmoid_symmetry(rng):
    x = rng.normal(size=100)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(10, 7)))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(4, 5))
    np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)


def test_softmax_stable_with_large_logits():
    p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-12)


def test_softmax_is_normalised_exp(rng):
    x = rng.normal(size=(6, 4))
    e = np.exp(x)
    np.testing.assert_allclose(softmax(x), e / e.sum(axis=1, keepdims=True), rtol=1e-12)


def test_softmax_axis(rng):
    x = rng.normal(size=(3, 5, 4))
    np.testing.assert_allclose(
        softmax(x, axis=1), softmax(x.swapaxes(1, -1)).swapaxes(1, -1), rtol=1e-12
    )


def test_relu_forward(rng):
    x = rng.normal(size=(5, 5))
    out = ReLU().forward(x)
    np.testing.assert_array_equal(out, np.maximum(x, 0))


def test_relu_gradients(rng):
    # Shift away from 0 to avoid the kink in finite differences.
    x = rng.normal(size=(4, 6))
    x[np.abs(x) < 0.1] += 0.5
    check_layer_gradients(ReLU(), x, rng=rng)

