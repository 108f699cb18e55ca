"""Weight initializers.

Each initializer takes an explicit ``numpy.random.Generator`` so model
construction is reproducible under :class:`repro.utils.rng.SeedSequenceFactory`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "normal", "zeros", "orthogonal"]


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot/Xavier uniform — TensorFlow's default for Dense/Conv layers."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.05) -> np.ndarray:
    """Plain Gaussian initializer (used for embeddings)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initializer (biases)."""
    return np.zeros(shape)


def orthogonal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Orthogonal initializer — the standard choice for recurrent kernels."""
    a = rng.normal(0.0, 1.0, size=shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    return q if shape[0] >= shape[1] else q.T
