"""FLSystem shared-machinery tests (byte accounting, selection, env fairness)."""

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.baselines.tifl import TiFL
from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.sim.client import LocalTrainingResult


def _system(dataset, cls=FedAvg, **overrides):
    defaults = dict(
        clients_per_round=4, local_epochs=1, max_rounds=4, eval_every=2,
        num_tiers=3, num_unstable=2, seed=0, compression=None,
    )
    defaults.update(overrides)
    config = route_config(cls.name, **knobs_read_by(cls.name, defaults))
    return cls(dataset, build_model_builder(dataset, "tiny"), config)


class TestTransfers:
    def test_send_down_charges_each_receiver(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset)
        s.send_down(s.global_weights, n_receivers=7)
        assert s.meter.downlink_messages == 7
        assert s.meter.downlink_bytes == 7 * 4 * s.worker.num_params

    def test_send_down_leaves_the_global_model_alone(self, tiny_bow_dataset, rng):
        """The null codec casts a stack through float32 in place: what it is
        handed must be a copy, never the global model itself."""
        s = _system(tiny_bow_dataset)
        s.global_weights = rng.normal(0, 0.1, size=s.worker.num_params)
        before = s.global_weights.copy()
        received = s.send_down(s.global_weights)
        np.testing.assert_array_equal(s.global_weights, before)
        np.testing.assert_array_equal(received, before.astype(np.float32))
        assert not np.shares_memory(received, s.global_weights)

    def test_uplink_roundtrip_decodes_without_metering(self, tiny_bow_dataset):
        """Each result's weights become what the server decodes; the bytes
        are charged later, when the result's event pops."""
        s = _system(tiny_bow_dataset)
        res = LocalTrainingResult(
            client_id=0,
            weights=s.global_weights.copy(),
            n_samples=1,
            train_loss=0.0,
            latency=1.0,
        )
        assert s.uplink_roundtrip([res]) == [4 * s.worker.num_params]
        np.testing.assert_allclose(
            res.weights, s.global_weights.astype(np.float32), atol=1e-7
        )
        assert s.meter.uplink_messages == 0

    def test_uplink_roundtrip_matches_single_round_trips(self, tiny_bow_dataset, rng):
        """Each result goes through exactly one encode and one decode of
        the system's codec: its wire bytes and decoded weights are what a
        lone round trip gives."""
        s = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4")
        arrays = [rng.normal(0, 0.1, size=s.worker.num_params) for _ in range(4)]
        results = [LocalTrainingResult(i, a.copy(), 1, 0.0, 1.0) for i, a in enumerate(arrays)]
        nbytes = s.uplink_roundtrip(results)
        for arr, res, n in zip(arrays, results, nbytes):
            one = s.codec.encode(arr)
            assert one.nbytes == n
            np.testing.assert_array_equal(s.codec.decode(one), res.weights)

    def test_uplink_roundtrip_of_no_results(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4")
        assert s.uplink_roundtrip([]) == []

    def test_fedat_payloads_lossy_but_close(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4")
        received = s.send_down(s.global_weights, n_receivers=1)
        assert not np.array_equal(received, s.global_weights)
        np.testing.assert_allclose(received, s.global_weights, atol=5.1e-5)

    @pytest.mark.parametrize("compression", ["polyline:4", None])
    def test_send_down_transmits_once_per_global_version(self, tiny_bow_dataset, compression):
        """Repeated launches of an unchanged global model reuse the
        transmitted weights and bytes; a new global model (rebinding the
        attribute) transmits again. Metering stays per receiver throughout.
        Both codecs cache: polyline (FedAT's tier launches) and the null
        codec (every baseline launch and FedAsync relaunch)."""
        s = _system(tiny_bow_dataset, cls=FedAT, compression=compression)
        calls = []
        original = s.codec.transmit
        s.codec.transmit = lambda rows: calls.append(1) or original(rows)

        first = s.send_down(s.global_weights, n_receivers=2)
        second = s.send_down(s.global_weights, n_receivers=3)
        assert len(calls) == 1  # cache hit on the unchanged model
        assert second is first  # the shared decoded array itself
        assert not second.flags.writeable  # consumers must copy, not mutate
        assert not s.global_weights.flags.writeable  # nor mutate the cached source
        assert s.meter.downlink_messages == 5  # metering unaffected

        s.global_weights = s.global_weights * 1.0  # rebind = new version
        third = s.send_down(s.global_weights, n_receivers=1)
        assert len(calls) == 2
        np.testing.assert_array_equal(third, first)  # same weights, same bytes

    def test_one_transmit_per_launch(self, tiny_bow_dataset):
        """A launch of k clients sends the global model down as one
        one-row transmit, and its flush sends all k trained results up as
        one k-row transmit: no per-result encode on either side."""
        s = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4", num_unstable=0)
        shapes = []
        original = s.codec.transmit
        s.codec.transmit = lambda rows: shapes.append(rows.shape) or original(rows)
        s.codec.encode = s.codec.decode = None  # the string path is never taken

        launch = s.launch([0, 1, 2, 3], start=0.0)
        assert shapes == [(1, s.worker.num_params)]
        k = len(launch.results)  # the first read flushes
        assert k == 4
        assert shapes == [(1, s.worker.num_params), (k, s.worker.num_params)]

    def test_send_down_cache_ignores_foreign_arrays(self, tiny_bow_dataset):
        """Only the global-weights object is cached: an unrelated vector
        passed between launches neither reuses nor poisons the cache."""
        s = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4")
        a = s.send_down(s.global_weights)
        other = np.linspace(-1, 1, s.worker.num_params)
        b = s.send_down(other)
        assert not np.array_equal(a, b)
        c = s.send_down(s.global_weights)
        np.testing.assert_array_equal(a, c)


class TestSelection:
    def test_sample_without_replacement(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset)
        cohort = s.select_clients(list(range(12)), 5)
        assert len(cohort) == len(set(cohort)) == 5

    def test_small_pool_clamped(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset)
        assert len(s.select_clients([3, 4], 10)) == 2
        assert s.select_clients([], 10) == []

    def test_selection_stream_isolated_per_method(self, tiny_bow_dataset):
        """Different algorithms draw different cohorts, but the *environment*
        (delay parts, dropout schedule) is identical for the same seed."""
        a = _system(tiny_bow_dataset, cls=FedAvg)
        b = _system(tiny_bow_dataset, cls=FedAT, compression="polyline:4")
        np.testing.assert_array_equal(
            a.delay_model.assignment, b.delay_model.assignment
        )
        assert a.failures._dropout_time == b.failures._dropout_time


class TestEnvironment:
    def test_delay_model_must_cover_population(self, tiny_bow_dataset):
        from repro.sim.latency import TierDelayModel

        small = TierDelayModel.even_split(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            FedAvg(
                tiny_bow_dataset,
                build_model_builder(tiny_bow_dataset, "tiny"),
                FLConfig(max_rounds=2, seed=0, compression=None),
                delay_model=small,
            )

    def test_budget_exhausted_by_time(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, max_time=5.0)
        s.now = 10.0
        assert s.budget_exhausted()

    def test_budget_exhausted_by_rounds(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, max_rounds=3)
        s.round = 3
        assert s.budget_exhausted()

    def test_record_eval_snapshot(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset)
        s.meter.record_upload(123)
        rec = s.record_eval()
        assert rec.uplink_bytes == 123
        assert rec.round == 0
        assert 0.0 <= rec.accuracy <= 1.0

    def test_build_tiering_matches_num_tiers(self, tiny_bow_dataset):
        s = _system(tiny_bow_dataset, cls=TiFL, num_tiers=4)
        tiering = s.build_tiering()
        assert tiering.num_tiers == 4
        assert tiering.num_clients == tiny_bow_dataset.num_clients


class TestTotalFailure:
    def test_all_clients_dead_terminates(self, tiny_bow_dataset):
        """If every client drops out immediately, sync loops exit cleanly."""
        s = _system(
            tiny_bow_dataset,
            num_unstable=tiny_bow_dataset.num_clients,
            dropout_horizon=1e-6,
            max_rounds=50,
        )
        h = s.run()
        assert s.round <= 1
        assert len(h.records) >= 1

    def test_all_clients_dead_fedat_terminates(self, tiny_bow_dataset):
        s = _system(
            tiny_bow_dataset,
            cls=FedAT,
            compression="polyline:4",
            num_unstable=tiny_bow_dataset.num_clients,
            dropout_horizon=1e-6,
            max_rounds=50,
        )
        h = s.run()
        assert s.round == 0
        assert len(h.records) >= 1
