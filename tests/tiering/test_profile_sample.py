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
            "profile_latencies_subset",
            lambda self, profiler, ids, rng: np.full(len(ids), 7.0),
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


class TestSubsetProfiling:
    def test_materialized_subset_matches_full_profile_slice_when_noiseless(
        self, tiny_bow_dataset
    ):
        """With no noise/misprofiling each probe depends only on its own
        client's draws, so probing a subset in id order must equal the
        corresponding draws of a fresh stream over the same clients."""
        pop = MaterializedPopulation(tiny_bow_dataset)
        from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel

        n = pop.num_clients
        delays = TierDelayModel.even_split(
            n, np.random.default_rng(0),
            bands=((0.0, 0.0), (1.0, 3.0), (5.0, 9.0)),
        )
        model = ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))
        pop.bind(model, batch_size=5, seed=0)
        profiler = LatencyProfiler(epochs=2, probe_rounds=2)
        ids = np.array([1, 4, 9])
        subset = pop.profile_latencies_subset(profiler, ids, np.random.default_rng(3))
        direct = profiler.profile(
            [pop.client(int(i)) for i in ids], np.random.default_rng(3)
        )
        np.testing.assert_array_equal(subset, direct)

    def test_profile_sizes_subset_selects_matching_bands(self):
        """``client_ids`` must index each subset client's *own* delay band —
        the same result as materializing just those clients."""
        from repro.data.datasets import make_sample_bank
        from repro.population.virtual import VirtualPopulation
        from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel

        bank = make_sample_bank(
            "sentiment140", np.random.default_rng(7), num_samples=128
        )
        pop = VirtualPopulation(bank, 24, seed=11, samples_per_client=(8, 20))
        delays = TierDelayModel.even_split(
            24, np.random.default_rng(0),
            bands=((0.0, 0.0), (1.0, 3.0), (5.0, 9.0)),
        )
        model = ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))
        pop.bind(model, batch_size=5, seed=0)
        profiler = LatencyProfiler(epochs=1, probe_rounds=2)
        ids = np.array([0, 5, 13, 23])
        lazy = pop.profile_latencies_subset(profiler, ids, np.random.default_rng(5))
        eager_pop = MaterializedPopulation(pop.materialize())
        eager_pop.bind(model, batch_size=5, seed=0)
        eager = profiler.profile(
            [eager_pop.client(int(i)) for i in ids], np.random.default_rng(5)
        )
        np.testing.assert_array_equal(lazy, eager)

    def test_profile_sizes_rejects_misaligned_ids(self):
        from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel

        delays = TierDelayModel.even_split(
            10, np.random.default_rng(0), bands=((0.0, 0.0), (1.0, 2.0))
        )
        model = ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))
        profiler = LatencyProfiler()
        with pytest.raises(ValueError, match="align"):
            profiler.profile_sizes(
                model,
                np.array([10, 20, 30]),
                np.random.default_rng(0),
                client_ids=np.array([0, 1]),
            )
