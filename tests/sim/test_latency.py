"""Latency model tests: paper's delay bands, compute model, expectations."""

import numpy as np
import pytest

from repro.sim.latency import (
    ComputeModel,
    ResponseLatencyModel,
    TierDelayModel,
)


class TestTierDelayModel:
    def test_even_split_sizes(self, rng):
        m = TierDelayModel.even_split(103, rng)
        counts = np.bincount(m.assignment, minlength=5)
        assert counts.sum() == 103
        assert counts.max() - counts.min() <= 1

    def test_from_counts(self, rng):
        m = TierDelayModel.from_counts([5, 0, 3, 1, 1], rng)
        counts = np.bincount(m.assignment, minlength=5)
        np.testing.assert_array_equal(counts, [5, 0, 3, 1, 1])

    def test_counts_length_validated(self, rng):
        with pytest.raises(ValueError):
            TierDelayModel.from_counts([5, 5], rng)

    def test_paper_bands_sampling_ranges(self, rng):
        m = TierDelayModel.even_split(50, rng, shuffle=False)
        # client 0 in part 0 (0s), client 49 in part 4 (20-30s).
        assert m.sample_delay(0, rng) == 0.0
        for _ in range(20):
            d = m.sample_delay(49, rng)
            assert 20.0 <= d <= 30.0

    def test_band_edges(self, rng):
        m = TierDelayModel.even_split(50, rng, shuffle=False)
        lo, hi = m.band_edges([0, 49])
        np.testing.assert_array_equal(lo, [0.0, 20.0])
        np.testing.assert_array_equal(hi, [0.0, 30.0])
        assert m.band_edges()[0].shape == (50,)
        assert m.num_parts == 5

    def test_invalid_band_rejected(self, rng):
        with pytest.raises(ValueError):
            TierDelayModel.from_counts([2, 2], rng, bands=((0, 1), (5, 3)))

    def test_shuffle_permutes_assignment(self):
        a = TierDelayModel.even_split(40, np.random.default_rng(0), shuffle=True)
        b = TierDelayModel.even_split(40, np.random.default_rng(0), shuffle=False)
        assert not np.array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(np.sort(a.assignment), np.sort(b.assignment))


class TestComputeModel:
    def test_linear_in_samples_and_epochs(self):
        c = ComputeModel(per_sample=0.01, base=0.5)
        assert c.duration(10, 3) == pytest.approx(0.5 + 0.3)
        assert c.duration(0, 0) == 0.5

    def test_validates_negatives(self):
        with pytest.raises(ValueError):
            ComputeModel().duration(-1, 1)


class TestResponseLatencyModel:
    def _model(self, rng, bandwidth=None):
        delays = TierDelayModel.even_split(10, rng, shuffle=False)
        return ResponseLatencyModel(
            delays, ComputeModel(0.01, 0.1), bandwidth_bytes_per_s=bandwidth
        )

    def test_fast_client_latency_is_compute_only(self, rng):
        m = self._model(rng)
        lat = m.round_latency(0, 20, 3, rng)
        assert lat == pytest.approx(0.1 + 0.01 * 60)

    def test_slow_client_latency_includes_delay(self, rng):
        m = self._model(rng)
        lat = m.round_latency(9, 20, 3, rng)
        assert lat >= 20.0

    def test_bandwidth_adds_transfer_time(self, rng):
        m = self._model(rng, bandwidth=1000.0)
        base = m.round_latency(0, 10, 1, rng)
        with_payload = m.round_latency(0, 10, 1, rng, payload_bytes=2000)
        assert with_payload == pytest.approx(base + 2.0)

    def test_stragglers_dominate_ordering(self, rng):
        """Delay bands are monotonically non-decreasing in part index — the
        structural fact tiering relies on."""
        lo, hi = self._model(rng).delays.band_edges()
        assert lo.tolist() == sorted(lo) and hi.tolist() == sorted(hi)


def _round_latency_loop(model, client_ids, sizes, epochs, rng):
    """The reference: one scalar ``round_latency`` per client, in order."""
    return np.array(
        [model.round_latency(c, int(n), epochs, rng) for c, n in zip(client_ids, sizes)]
    )


class TestVectorisedLatencies:
    """``sample_latencies`` against a per-client ``round_latency`` loop: the
    same draws from the same stream."""

    def _model(self):
        delays = TierDelayModel.even_split(
            12, np.random.default_rng(0), bands=((0.0, 0.0), (1.0, 3.0), (5.0, 9.0))
        )
        return ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))

    def test_draws_are_the_scalar_draws(self):
        m = self._model()
        sizes = np.random.default_rng(1).integers(5, 40, size=12)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        got = m.sample_latencies(None, sizes, 2, rng_a)
        np.testing.assert_array_equal(got, _round_latency_loop(m, range(12), sizes, 2, rng_b))
        assert rng_a.random() == rng_b.random()  # both streams at the same place

    def test_a_subset_draws_in_its_own_bands(self):
        m = self._model()
        ids = np.array([11, 0, 5, 6])
        sizes = np.array([9, 30, 12, 7])
        got = m.sample_latencies(ids, sizes, 1, np.random.default_rng(3))
        want = _round_latency_loop(m, ids, sizes, 1, np.random.default_rng(3))
        np.testing.assert_array_equal(got, want)

    def test_one_count_for_all(self):
        m = self._model()
        got = m.sample_latencies(np.arange(12), 0, 0, np.random.default_rng(4))
        want = _round_latency_loop(m, range(12), [0] * 12, 0, np.random.default_rng(4))
        np.testing.assert_array_equal(got, want)

    def test_misaligned_counts_are_refused(self):
        with pytest.raises(ValueError, match="broadcast"):
            self._model().sample_latencies(
                np.array([0, 1]), np.array([10, 20, 30]), 1, np.random.default_rng(0)
            )
