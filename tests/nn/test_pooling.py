"""MaxPool2D tests."""

import numpy as np
import pytest

from repro.nn.pooling import MaxPool2D
from tests.helpers import check_layer_gradients


class TestMaxPool2D:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        pool.forward(x)
        dx = pool.backward(np.ones((1, 2, 2, 1)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(dx[0, :, :, 0], expected)

    def test_gradients_numeric(self, rng):
        check_layer_gradients(MaxPool2D(2), rng.normal(size=(2, 6, 6, 3)), rng=rng)

    def test_crops_non_multiple_input(self, rng):
        pool = MaxPool2D(2)
        x = rng.normal(size=(1, 5, 5, 2))
        out = pool.forward(x)
        assert out.shape == (1, 2, 2, 2)
        dx = pool.backward(np.ones_like(out))
        assert dx.shape == x.shape
        # Cropped border receives zero gradient.
        np.testing.assert_array_equal(dx[0, 4, :, :], 0.0)

    def test_tie_splitting_conserves_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 2, 2, 1))  # 4-way tie in a single window
        pool.forward(x)
        dx = pool.backward(np.full((1, 1, 1, 1), 1.0))
        assert abs(dx.sum() - 1.0) < 1e-12

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)
        with pytest.raises(ValueError):
            MaxPool2D(4).forward(np.zeros((1, 2, 2, 1)))

