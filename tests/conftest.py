"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import make_dataset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_image_dataset():
    """12-client, 2-class-per-client image federation (fast).

    Difficulty knobs pinned so unit-test thresholds stay meaningful if the
    benchmark-level dataset defaults are retuned.
    """
    return make_dataset(
        "cifar10",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        image_shape=(8, 8, 3),
        classes_per_client=2,
        noise=1.0,
        writer_shift=0.2,
    )


@pytest.fixture
def tiny_bow_dataset():
    """12-client sentiment federation (convex task, fast)."""
    return make_dataset(
        "sentiment140",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        noise=0.7,
        writer_shift=0.3,
    )


@pytest.fixture
def tiny_reddit_dataset():
    """12-client next-token federation: the LSTM model with dropout and
    batch-norm (fast)."""
    return make_dataset("reddit", np.random.default_rng(7), num_clients=12, samples_per_client=24)
