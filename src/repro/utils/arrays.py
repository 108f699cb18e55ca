"""Array helpers that keep set-up off NumPy's slow import paths."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` for NaN-free arrays, by one sort: the same
    sorted, flattened array. NumPy 2.4's plain ``np.unique`` imports
    ``numpy.ma`` on its first call (~10 ms), and ``union1d``,
    ``intersect1d`` and ``setdiff1d`` go through it."""
    flat = np.sort(np.asarray(values), axis=None)
    if not flat.size:
        return flat
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
