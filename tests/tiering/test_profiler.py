"""Latency profiler tests."""

import numpy as np
import pytest

from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel
from repro.tiering.profiler import LatencyProfiler
from repro.tiering.tiers import Tiering


def _world(n, rng):
    """A latency model over ``n`` clients in the paper's five unshuffled
    parts, and their training-set sizes."""
    delays = TierDelayModel.even_split(n, rng, shuffle=False)
    return ResponseLatencyModel(delays, ComputeModel(0.005, 0.1)), rng.integers(12, 20, size=n)


def _round_latency_loop(model, client_ids, sizes, epochs, rng):
    """The reference: one scalar ``round_latency`` probe per client."""
    return np.array(
        [model.round_latency(int(c), int(n), epochs, rng) for c, n in zip(client_ids, sizes)]
    )


def test_profile_is_one_round_latency_per_client(rng):
    model, sizes = _world(25, rng)
    lat = LatencyProfiler(epochs=2).profile_sizes(model, sizes, np.random.default_rng(4))
    want = _round_latency_loop(model, range(25), sizes, 2, np.random.default_rng(4))
    np.testing.assert_array_equal(lat, want)


def test_profile_orders_parts(rng):
    model, sizes = _world(25, rng)
    lat = LatencyProfiler().profile_sizes(model, sizes, rng)
    # Part 0 (clients 0-4, zero delay) must be clearly faster than part 4.
    assert lat[:5].mean() < lat[-5:].mean() - 10


def test_profile_recovers_paper_tiers(rng):
    """Tiering from profiled latencies should reconstruct the delay parts."""
    model, sizes = _world(25, rng)
    lat = LatencyProfiler().profile_sizes(model, sizes, rng)
    tiers = Tiering.from_latencies(lat, 5)
    # Fastest tier ⊆ part 0..1, slowest tier ⊆ part 3..4 (a probe can blur
    # the two bands that touch zero, but never fast↔slow).
    assert set(tiers.clients_in(0)) <= set(range(10))
    assert set(tiers.clients_in(4)) <= set(range(15, 25))


def test_misprofile_scrambles_some(rng):
    model, sizes = _world(20, rng)
    clean = LatencyProfiler().profile_sizes(model, sizes, np.random.default_rng(0))
    noisy = LatencyProfiler(misprofile_fraction=0.5).profile_sizes(
        model, sizes, np.random.default_rng(0)
    )
    assert not np.allclose(np.argsort(clean), np.argsort(noisy))


def test_validation():
    with pytest.raises(ValueError):
        LatencyProfiler(misprofile_fraction=2.0)
