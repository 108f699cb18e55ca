"""Loss function tests."""

import numpy as np
import pytest

from repro.nn.activations import softmax
from repro.nn.losses import SoftmaxCrossEntropy
from tests.helpers import numeric_grad


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        np.testing.assert_allclose(loss.forward(logits, labels), np.log(10), rtol=1e-9)

    def test_perfect_prediction_near_zero(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = logits[1, 2] = 50.0
        assert loss.forward(logits, np.array([1, 2])) < 1e-8

    def test_gradient_matches_probs_minus_onehot(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        loss.forward(logits, labels)
        grad = loss.backward()
        p = softmax(logits)
        p[np.arange(5), labels] -= 1
        np.testing.assert_allclose(grad, p / 5, atol=1e-12)

    def test_gradient_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 5))
        labels = rng.integers(0, 5, size=3)

        def objective():
            return loss.forward(logits, labels)

        objective()
        grad = loss.backward()
        num = numeric_grad(objective, logits)
        np.testing.assert_allclose(grad, num, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        loss.forward(rng.normal(size=(6, 4)), rng.integers(0, 4, size=6))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self, rng):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(rng.normal(size=(3, 4, 5)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            loss.forward(rng.normal(size=(3, 4)), np.zeros(5, dtype=int))

