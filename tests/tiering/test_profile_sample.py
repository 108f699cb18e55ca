"""Sampled tier profiling (``profile_sample``).

Full profiling probes every client — O(n) RNG draws, dominant at virtual
millions. ``profile_sample=k`` probes only k sampled clients and assigns
everyone else by interpolating over (draw-free) expected latencies. The
contract: deterministic given the seed, every tier populated no matter how
degenerate the latency distribution, and ``profile_sample=None`` exactly
the historical full-profile path (pinned by the golden-history suite).
"""

import numpy as np
import pytest

from repro.baselines.tifl import TiFL
from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, route_config
from repro.population.base import MaterializedPopulation
from repro.tiering.profiler import LatencyProfiler


def _system(dataset, cls=TiFL, **overrides):
    defaults = dict(
        clients_per_round=4, local_epochs=1, max_rounds=4, eval_every=2,
        num_tiers=3, num_unstable=2, seed=0, compression=None,
    )
    defaults.update(overrides)
    return cls(dataset, build_model_builder(dataset, "tiny"), route_config(cls.name, **defaults))


class TestSampledTiering:
    def test_partitions_every_client(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, profile_sample=6, num_tiers=3)
        tiering = s.build_tiering()
        assert tiering.num_tiers == 3
        assert tiering.num_clients == tiny_bow_dataset.num_clients
        ids = np.sort(np.concatenate(tiering.tiers))
        np.testing.assert_array_equal(ids, np.arange(tiny_bow_dataset.num_clients))
        assert all(t.size > 0 for t in tiering.tiers)

    def test_deterministic_across_systems(self, tiny_bow_dataset):
        a = _system(tiny_bow_dataset, profile_sample=6).build_tiering()
        b = _system(tiny_bow_dataset, profile_sample=6).build_tiering()
        for ta, tb in zip(a.tiers, b.tiers):
            np.testing.assert_array_equal(ta, tb)

    def test_orders_tiers_by_latency(self, tiny_bow_dataset):
        """Sampled boundaries must preserve the tiering invariant: tier m's
        expected latencies sit at-or-below tier m+1's."""
        s = _system(tiny_bow_dataset, profile_sample=8, num_tiers=3)
        tiering = s.build_tiering()
        expected = s.population.expected_latencies(s.config.local_epochs)
        maxima = [expected[t].max() for t in tiering.tiers]
        minima = [expected[t].min() for t in tiering.tiers]
        for m in range(len(maxima) - 1):
            assert maxima[m] <= minima[m + 1] + 1e-12

    def test_degenerate_latencies_fall_back_to_equal_split(
        self, tiny_bow_dataset, monkeypatch
    ):
        """Constant probe latencies collapse every quantile boundary; the
        fallback equal-count split must still populate all tiers."""
        s = _system(tiny_bow_dataset, profile_sample=6, num_tiers=3)
        monkeypatch.setattr(
            type(s.population),
            "profile_latencies",
            lambda self, profiler, rng, client_ids=None: np.full(len(client_ids), 7.0),
        )
        tiering = s.build_tiering()
        assert all(t.size > 0 for t in tiering.tiers)
        assert tiering.num_clients == tiny_bow_dataset.num_clients

    def test_sample_at_or_above_population_profiles_everyone(self, tiny_bow_dataset):
        """k >= n is the full-profile path, bit-identical to the default."""
        n = tiny_bow_dataset.num_clients
        full = _system(tiny_bow_dataset).build_tiering()
        capped = _system(tiny_bow_dataset, profile_sample=n).build_tiering()
        for ta, tb in zip(full.tiers, capped.tiers):
            np.testing.assert_array_equal(ta, tb)

    def test_run_completes_and_is_deterministic(self, tiny_bow_dataset):
        import dataclasses

        a = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4",
                    profile_sample=6).run()
        b = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4",
                    profile_sample=6).run()
        for ra, rb in zip(a.records, b.records):
            assert dataclasses.asdict(ra) == dataclasses.asdict(rb)

    def test_retier_tracker_prior_is_expected_latencies(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, profile_sample=6, retier_interval=2)
        s.build_tiering()
        expected = s.population.expected_latencies(s.config.local_epochs)
        np.testing.assert_array_equal(s.profiled_latencies, expected)


def _latency_model(n):
    from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel

    delays = TierDelayModel.even_split(
        n, np.random.default_rng(0), bands=((0.0, 0.0), (1.0, 3.0), (5.0, 9.0))
    )
    return ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))


def _round_latency_loop(population, client_ids, epochs, rng):
    """The reference: one scalar ``round_latency`` probe per client, from
    its own shard's training-set size."""
    model = population.latency_model
    return np.array(
        [
            model.round_latency(int(c), population.client_data(int(c)).num_train, epochs, rng)
            for c in client_ids
        ]
    )


class TestSubsetProfiling:
    def test_materialized_subset_is_a_probe_per_named_client(self, tiny_bow_dataset):
        """Probing a subset draws one round latency per named client, in
        the order named, from the one stream."""
        pop = MaterializedPopulation(tiny_bow_dataset)
        pop.bind(_latency_model(pop.num_clients), batch_size=5, seed=0)
        profiler = LatencyProfiler(epochs=2)
        ids = np.array([9, 1, 4])
        subset = pop.profile_latencies(profiler, np.random.default_rng(3), client_ids=ids)
        direct = _round_latency_loop(pop, ids, 2, np.random.default_rng(3))
        np.testing.assert_array_equal(subset, direct)

    def test_virtual_subset_selects_matching_bands(self):
        """``client_ids`` must index each subset client's *own* delay band —
        the same result as the materialized population and the loop."""
        from repro.data.datasets import make_sample_bank
        from repro.population.virtual import VirtualPopulation

        bank = make_sample_bank(
            "sentiment140", np.random.default_rng(7), num_samples=128
        )
        pop = VirtualPopulation(bank, 24, seed=11, samples_per_client=(8, 20))
        model = _latency_model(24)
        pop.bind(model, batch_size=5, seed=0)
        profiler = LatencyProfiler(epochs=1)
        ids = np.array([0, 5, 13, 23])
        lazy = pop.profile_latencies(profiler, np.random.default_rng(5), client_ids=ids)
        eager_pop = MaterializedPopulation(pop.materialize())
        eager_pop.bind(model, batch_size=5, seed=0)
        eager = eager_pop.profile_latencies(
            profiler, np.random.default_rng(5), client_ids=ids
        )
        np.testing.assert_array_equal(lazy, eager)
        np.testing.assert_array_equal(
            lazy, _round_latency_loop(pop, ids, 1, np.random.default_rng(5))
        )

    def test_profile_sizes_rejects_misaligned_ids(self):
        profiler = LatencyProfiler()
        with pytest.raises(ValueError, match="broadcast"):
            profiler.profile_sizes(
                _latency_model(10),
                np.array([10, 20, 30]),
                np.random.default_rng(0),
                client_ids=np.array([0, 1]),
            )
