"""A tiered system's set-up (FedAT, TiFL): ``build_tiering`` probes every
client once from the ``env/profile`` stream and splits the profile into
equal tiers; ``make_retier_tracker`` and ``make_tier_index`` start from the
same profile."""

import numpy as np
import pytest

from repro.baselines.tifl import TiFL
from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.tiering.profiler import LatencyProfiler
from repro.tiering.tiers import Tiering

from tests.helpers import tier_map

TIERED = pytest.mark.parametrize("cls", [FedAT, TiFL], ids=["fedat", "tifl"])


def _system(dataset, cls=TiFL, **overrides):
    defaults = dict(
        clients_per_round=4, local_epochs=1, max_rounds=4, eval_every=2,
        num_tiers=3, num_unstable=2, seed=0, compression=None,
    )
    if cls is FedAT:
        defaults["compression"] = "polyline:4"
    defaults.update(overrides)
    config = route_config(cls.name, **knobs_read_by(cls.name, defaults))
    return cls(dataset, build_model_builder(dataset, "tiny"), config)


def _members(tiering):
    return [np.asarray(tiering.clients_in(m)) for m in range(tiering.num_tiers)]


class TestBuildTiering:
    @TIERED
    def test_partitions_every_client(self, tiny_bow_dataset, cls):
        tiering = _system(tiny_bow_dataset, cls).build_tiering()
        members = _members(tiering)
        n = tiny_bow_dataset.num_clients
        np.testing.assert_array_equal(np.sort(np.concatenate(members)), np.arange(n))
        assert [m.size for m in members] == [n // 3] * 3

    @TIERED
    def test_the_constructed_tiering_is_the_profile_split(self, tiny_bow_dataset, cls):
        s = _system(tiny_bow_dataset, cls)
        want = Tiering.from_latencies(s.profiled_latencies, 3)
        assert tier_map(s.tiering) == tier_map(want)

    @TIERED
    def test_tiers_are_ordered_by_profiled_latency(self, tiny_bow_dataset, cls):
        s = _system(tiny_bow_dataset, cls)
        lat = s.profiled_latencies
        members = _members(s.build_tiering())
        for fast, slow in zip(members, members[1:]):
            assert lat[fast].max() <= lat[slow].min()

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_profile_is_one_round_latency_per_client(self, tiny_bow_dataset, epochs):
        """One scalar ``round_latency`` probe per client, in id order, from
        a fresh ``env/profile`` stream."""
        s = _system(tiny_bow_dataset, local_epochs=epochs)
        s.build_tiering()
        model, sizes = s.population.latency_model, s.population.train_sizes()
        rng = s.factory.rng("env/profile")
        want = [model.round_latency(c, int(n), epochs, rng) for c, n in enumerate(sizes)]
        np.testing.assert_array_equal(s.profiled_latencies, want)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_profile_is_the_configured_profiler(self, tiny_bow_dataset, fraction):
        s = _system(tiny_bow_dataset, local_epochs=2, misprofile_fraction=fraction)
        profiler = LatencyProfiler(epochs=2, misprofile_fraction=fraction)
        want = profiler.profile_sizes(
            s.population.latency_model, s.population.train_sizes(), s.factory.rng("env/profile")
        )
        np.testing.assert_array_equal(s.profiled_latencies, want)

    def test_deterministic_in_the_seed(self, tiny_bow_dataset):
        a = _system(tiny_bow_dataset, seed=3)
        b = _system(tiny_bow_dataset, seed=3)
        c = _system(tiny_bow_dataset, seed=4)
        np.testing.assert_array_equal(a.profiled_latencies, b.profiled_latencies)
        assert tier_map(a.tiering) == tier_map(b.tiering)
        assert not np.array_equal(a.profiled_latencies, c.profiled_latencies)

    def test_unsplit_profiles_alike_and_returns_none(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset)
        split = s.profiled_latencies.copy()
        assert s.build_tiering(split=False) is None
        np.testing.assert_array_equal(s.profiled_latencies, split)

    def test_constant_latencies_still_fill_every_tier(self, tiny_bow_dataset, monkeypatch):
        """Equal latencies tie everywhere: ids break the ties, so the split
        is the id order in equal parts."""
        s = _system(tiny_bow_dataset)
        n = tiny_bow_dataset.num_clients
        monkeypatch.setattr(
            type(s.population), "profile_latencies", lambda self, profiler, rng: np.full(n, 7.0)
        )
        members = _members(s.build_tiering())
        for got, want in zip(members, np.array_split(np.arange(n), 3)):
            np.testing.assert_array_equal(np.sort(got), want)


class TestRetierSetUp:
    @TIERED
    def test_tracker_prior_is_the_profiled_latencies(self, tiny_bow_dataset, cls):
        s = _system(tiny_bow_dataset, cls, retier_interval=2, retier_ewma=0.4)
        tracker = s.retier_tracker
        np.testing.assert_array_equal(tracker.estimates, s.profiled_latencies)
        assert not np.shares_memory(tracker.estimates, s.profiled_latencies)
        assert tracker.alpha == 0.4
        assert not tracker.num_observations.any()

    @TIERED
    def test_static_tiers_track_nothing(self, tiny_bow_dataset, cls):
        s = _system(tiny_bow_dataset, cls, retier_interval=0)
        assert s.retier_tracker is None
        assert s.tier_index is None

    @TIERED
    def test_the_tier_index_splits_as_the_profile(self, tiny_bow_dataset, cls):
        """Before any observation, a re-split over the tracker's estimates
        is the start-up tiering."""
        s = _system(tiny_bow_dataset, cls, retier_interval=2)
        assert tier_map(s.tier_index.split()) == tier_map(s.tiering)
