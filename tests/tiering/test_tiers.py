"""Tiering tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiering.tiers import Tiering


class TestFromLatencies:
    def test_fastest_clients_in_tier_zero(self):
        lat = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 0.5])
        t = Tiering.from_latencies(lat, 3)
        np.testing.assert_array_equal(t.clients_in(0), [1, 5])
        np.testing.assert_array_equal(t.clients_in(2), [0, 4])

    def test_sizes_near_equal(self, rng):
        t = Tiering.from_latencies(rng.uniform(0, 10, size=103), 5)
        sizes = t.sizes()
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_tiers_partition_the_clients(self, rng):
        t = Tiering.from_latencies(rng.uniform(0, 10, size=40), 4)
        members = np.concatenate([t.clients_in(m) for m in range(4)])
        np.testing.assert_array_equal(np.sort(members), np.arange(40))

    def test_tier_latency_ordering(self, rng):
        """max latency in tier m ≤ min latency in tier m+1."""
        lat = rng.uniform(0, 30, size=60)
        t = Tiering.from_latencies(lat, 5)
        for m in range(4):
            assert lat[t.clients_in(m)].max() <= lat[t.clients_in(m + 1)].min() + 1e-12

    def test_deterministic_tie_break(self):
        lat = np.ones(10)
        a = Tiering.from_latencies(lat, 2)
        b = Tiering.from_latencies(lat, 2)
        np.testing.assert_array_equal(a.clients_in(0), b.clients_in(0))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Tiering.from_latencies(rng.uniform(0, 1, 3), 5)
        with pytest.raises(ValueError):
            Tiering.from_latencies(rng.uniform(0, 1, 10), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(5, 80),
        m=st.integers(1, 5),
        seed=st.integers(0, 999),
    )
    def test_property_partition(self, n, m, seed):
        if n < m:
            return
        rng = np.random.default_rng(seed)
        t = Tiering.from_latencies(rng.uniform(0, 100, size=n), m)
        allc = np.concatenate([t.clients_in(i) for i in range(m)])
        np.testing.assert_array_equal(np.sort(allc), np.arange(n))


def test_duplicate_client_rejected():
    with pytest.raises(ValueError):
        Tiering([np.array([0, 1]), np.array([1, 2])])


def test_empty_tier_list_rejected():
    with pytest.raises(ValueError):
        Tiering([])
