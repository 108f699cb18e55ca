"""Parameter container and initializer tests."""

import numpy as np

from repro.nn import initializers
from repro.nn.tensor import Parameter


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((3, 2)), "w")
        np.testing.assert_array_equal(p.grad, 0.0)
        assert p.size == 6

    def test_data_contiguous_float64(self):
        p = Parameter(np.asfortranarray(np.ones((4, 4), dtype=np.float32)))
        assert p.data.dtype == np.float64
        assert p.data.flags["C_CONTIGUOUS"]


class TestInitializers:
    def test_glorot_bounds(self, rng):
        w = initializers.glorot_uniform(rng, (200, 100), 200, 100)
        limit = np.sqrt(6.0 / 300)
        assert np.all(np.abs(w) <= limit)
        assert abs(w.mean()) < limit / 10

    def test_glorot_variance(self, rng):
        """Uniform on ±sqrt(6 / (fan_in + fan_out)): variance 2 / (fan_in + fan_out)."""
        w = initializers.glorot_uniform(rng, (400, 200), 400, 200)
        np.testing.assert_allclose(w.var(), 2.0 / 600, rtol=0.02)

    def test_normal_scale(self, rng):
        w = initializers.normal(rng, (300, 200))
        np.testing.assert_allclose(w.std(), 0.05, rtol=0.02)
        assert abs(w.mean()) < 0.001

    def test_zeros(self):
        np.testing.assert_array_equal(initializers.zeros((3, 3)), 0.0)

    def test_orthogonal_square(self, rng):
        q = initializers.orthogonal(rng, (6, 6))
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-10)

    def test_orthogonal_tall(self, rng):
        q = initializers.orthogonal(rng, (8, 3))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_orthogonal_wide(self, rng):
        q = initializers.orthogonal(rng, (3, 8))
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)
