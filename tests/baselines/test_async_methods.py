"""FedAsync / ASO-Fed behaviour tests."""

import numpy as np
import pytest

from repro.baselines.asofed import ASOFed
from repro.baselines.fedasync import FedAsync
from repro.core.staleness import StalenessPolicy
from repro.experiments.config import build_model_builder, route_config


def _config(cls, **overrides):
    defaults = dict(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=40,
        max_time=300.0,
        eval_every=8,
        num_unstable=2,
        seed=0,
        compute_per_sample=0.02,
        compute_base=0.2,
        compression=None,
    )
    defaults.update(overrides)
    return route_config(cls.name, **defaults)


def _run(cls, dataset, **overrides):
    system = cls(dataset, build_model_builder(dataset, "tiny"), _config(cls, **overrides))
    return system, system.run()


class TestStalenessFactor:
    def test_constant(self):
        assert StalenessPolicy("constant").factor(100) == 1.0

    def test_poly_decays(self):
        vals = [StalenessPolicy("poly", a=0.5).factor(s) for s in range(6)]
        assert vals[0] == 1.0
        assert vals == sorted(vals, reverse=True)

    def test_hinge(self):
        hinge = StalenessPolicy("hinge", a=0.5, b=4)
        assert hinge.factor(4) == 1.0
        assert hinge.factor(6) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StalenessPolicy("poly").factor(-1)
        with pytest.raises(ValueError):
            StalenessPolicy("exp")


class TestFedAsync:
    def test_one_update_per_event(self, tiny_image_dataset):
        system, h = _run(FedAsync, tiny_image_dataset)
        assert system.round > 0
        # Every upload is exactly one model.
        assert system.meter.uplink_messages == system.round

    def test_communication_heavier_than_sync(self, tiny_image_dataset):
        """All clients talk continuously → far more messages per virtual
        second than a 4-client-per-round sync method."""
        from repro.baselines.fedavg import FedAvg

        asyncsys, ha = _run(FedAsync, tiny_image_dataset, max_time=200.0,
                            max_rounds=10_000)
        syncsys, hs = _run(FedAvg, tiny_image_dataset, max_time=200.0,
                           max_rounds=10_000)
        a_rate = asyncsys.meter.total_bytes / ha.times()[-1]
        s_rate = syncsys.meter.total_bytes / hs.times()[-1]
        assert a_rate > 2 * s_rate

    def test_staleness_dampens_mixing(self, tiny_image_dataset):
        # Use the adaptive (poly) staleness variant; the default "constant"
        # deliberately does not damp (the paper's baseline behaviour).
        system, _ = _run(
            FedAsync, tiny_image_dataset, max_rounds=2, staleness="poly"
        )
        g0 = system.global_weights.copy()
        local = g0 + 1.0
        system._mix(local, staleness=0)
        fresh_move = np.abs(system.global_weights - g0).mean()
        system.global_weights = g0.copy()
        system._mix(local, staleness=50)
        stale_move = np.abs(system.global_weights - g0).mean()
        assert stale_move < fresh_move

    def test_dropped_clients_never_return(self, tiny_image_dataset):
        system, h = _run(FedAsync, tiny_image_dataset, max_time=250.0,
                         max_rounds=10_000, num_unstable=5)
        assert len(system.failures._dropout_time) == 5

    def test_learns(self, tiny_bow_dataset):
        _, h = _run(FedAsync, tiny_bow_dataset, max_rounds=120, max_time=400.0)
        assert h.best_accuracy() > 0.40


def _copy_of(system, client_id):
    """ASO-Fed's server-side copy for a client (w0 until its first upload)."""
    return system._copies.get(client_id, system.initial_flat)


class TestASOFed:
    def test_global_is_mean_of_copies(self, tiny_image_dataset):
        system, _ = _run(ASOFed, tiny_image_dataset, max_rounds=10)
        copies = [_copy_of(system, c) for c in range(system.num_clients)]
        expected = np.mean(copies, axis=0)
        np.testing.assert_allclose(system.global_weights, expected, atol=1e-10)

    def test_copy_installation(self, tiny_image_dataset):
        system, _ = _run(ASOFed, tiny_image_dataset, max_rounds=2)
        w = system.global_weights.copy()
        new = np.ones_like(w)
        system._install_copy(3, new, 0)
        np.testing.assert_array_equal(_copy_of(system, 3), new)
        copies = [_copy_of(system, c) for c in range(system.num_clients)]
        np.testing.assert_allclose(
            system.global_weights, np.mean(copies, axis=0), atol=1e-10
        )

    def test_single_update_moves_global_by_1_over_k(self, tiny_image_dataset):
        system, _ = _run(ASOFed, tiny_image_dataset, max_rounds=1)
        k = tiny_image_dataset.num_clients
        g0 = system.global_weights.copy()
        delta = np.ones_like(g0)
        system._install_copy(0, _copy_of(system, 0) + delta, 0)
        np.testing.assert_allclose(system.global_weights - g0, delta / k, atol=1e-10)

    def test_uses_local_constraint(self, tiny_image_dataset):
        # ASO-Fed trains with lam > 0 (unlike FedAsync, which has no lam).
        system, _ = _run(ASOFed, tiny_image_dataset, max_rounds=2)
        assert system.client_lambda(0) == system.params.lam > 0
        fedasync, _ = _run(FedAsync, tiny_image_dataset, max_rounds=2)
        assert fedasync.client_lambda(0) == 0.0

    def test_learns(self, tiny_bow_dataset):
        _, h = _run(ASOFed, tiny_bow_dataset, max_rounds=120, max_time=400.0)
        assert h.best_accuracy() > 0.40
