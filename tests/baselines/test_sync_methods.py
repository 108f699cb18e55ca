"""FedAvg / FedProx / TiFL behaviour tests."""

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.baselines.fedprox import FedProx
from repro.baselines.tifl import TiFL
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.scenario import ScenarioEngine, ScenarioEvent


def _config(cls, **overrides):
    defaults = dict(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=8,
        max_time=None,
        eval_every=2,
        num_tiers=3,
        num_unstable=2,
        seed=0,
        compute_per_sample=0.02,
        compute_base=0.2,
        compression=None,
    )
    defaults.update(overrides)
    return route_config(cls.name, **knobs_read_by(cls.name, defaults))


def _run(cls, dataset, **overrides):
    system = cls(dataset, build_model_builder(dataset, "tiny"), _config(cls, **overrides))
    return system, system.run()


class TestFedAvg:
    def test_round_count_and_eval_cadence(self, tiny_image_dataset):
        system, h = _run(FedAvg, tiny_image_dataset)
        assert system.round == 8
        assert h.rounds()[0] == 0 and h.rounds()[-1] == 8

    def test_round_time_is_slowest_selected_client(self, tiny_image_dataset):
        system, h = _run(FedAvg, tiny_image_dataset, max_rounds=20)
        # With 15 clients across 5 delay parts and 4 sampled per round, the
        # average round must be pulled up by slow parts: well above the
        # compute-only time.
        mean_round_time = h.times()[-1] / system.round
        assert mean_round_time > 3.0

    def test_no_compression(self, tiny_image_dataset):
        from repro.compression.codec import NullCodec

        system, _ = _run(FedAvg, tiny_image_dataset)
        assert isinstance(system.codec, NullCodec)

    def test_bytes_match_message_counts(self, tiny_image_dataset):
        system, h = _run(FedAvg, tiny_image_dataset)
        raw = 4 * system.worker.num_params
        assert system.meter.downlink_bytes == raw * system.meter.downlink_messages
        assert system.meter.uplink_bytes == raw * system.meter.uplink_messages
        # Some selected clients drop mid-round: uploads ≤ downloads.
        assert system.meter.uplink_messages <= system.meter.downlink_messages

    def test_deterministic(self, tiny_image_dataset):
        _, h1 = _run(FedAvg, tiny_image_dataset)
        _, h2 = _run(FedAvg, tiny_image_dataset)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())

    def test_learns(self, tiny_bow_dataset):
        _, h = _run(FedAvg, tiny_bow_dataset, max_rounds=25)
        assert h.best_accuracy() > 0.45  # 3 classes, chance ≈ 0.33


class TestFedProx:
    def test_uses_proximal_lambda(self, tiny_image_dataset):
        system, _ = _run(FedProx, tiny_image_dataset, max_rounds=2)
        assert system.client_lambda(0) == system.params.lam > 0

    def test_variable_epochs_within_bounds(self, tiny_image_dataset):
        system, _ = _run(FedProx, tiny_image_dataset, max_rounds=2, local_epochs=3)
        n = tiny_image_dataset.num_clients
        draws = [system.client_epochs(c) for c in range(n) for _ in range(10)]
        assert all(1 <= e <= 3 for e in draws)
        assert min(draws) == 1 and max(draws) == 3

    def test_slow_clients_truncate_more(self, tiny_image_dataset):
        system, _ = _run(FedProx, tiny_image_dataset, max_rounds=2, local_epochs=3)
        n = tiny_image_dataset.num_clients
        fast_part = [c for c in range(n) if system.delay_model.part_of(c) == 0]
        slow_part = [c for c in range(n) if system.delay_model.part_of(c) == 4]
        fast = np.mean([system.client_epochs(fast_part[0]) for _ in range(300)])
        slow = np.mean([system.client_epochs(slow_part[0]) for _ in range(300)])
        assert slow < fast

    def test_each_client_is_timed_for_the_epochs_it_trains(self, tiny_image_dataset):
        """One epoch draw per launched client: the latency the round waits
        for and the local work the client does come from the same count."""
        system = FedProx(
            tiny_image_dataset,
            build_model_builder(tiny_image_dataset, "tiny"),
            _config(FedProx, local_epochs=3, num_unstable=0),
        )
        timed, pairs = {}, []  # pairs: (epochs timed, epochs trained)
        sample_latency, make_task = system.sample_latency, system.make_task

        def timing(cid, epochs=None):
            timed[cid] = epochs
            return sample_latency(cid, epochs)

        def task(cid, latency, **kw):
            pairs.append((timed[cid], kw["epochs"]))
            return make_task(cid, latency, **kw)

        system.sample_latency, system.make_task = timing, task
        system.run()
        assert pairs and all(a == b for a, b in pairs), pairs
        assert len({b for _, b in pairs}) > 1  # some clients truncated

    def test_runs_and_learns(self, tiny_bow_dataset):
        _, h = _run(FedProx, tiny_bow_dataset, max_rounds=25)
        assert h.best_accuracy() > 0.45


class TestTiFL:
    def test_rounds_select_single_tier(self, tiny_image_dataset):
        system, h = _run(TiFL, tiny_image_dataset, max_rounds=12)
        trace = h.meta["tier_selection_trace"]
        assert len(trace) == system.round
        assert set(trace) <= {0, 1, 2}

    def test_credits_decrease(self, tiny_image_dataset):
        system, _ = _run(TiFL, tiny_image_dataset, max_rounds=10)
        per_tier = int(np.ceil(10 / 3 * system.params.tifl_credit_slack))
        assert np.all(system.credits <= per_tier)
        assert system.credits.sum() == 3 * per_tier - system.round

    def test_probabilities_refresh(self, tiny_image_dataset):
        system, h = _run(
            TiFL, tiny_image_dataset, max_rounds=10, tifl_interval=4
        )
        assert "tier_prob_trace" in h.meta
        probs = h.meta["tier_prob_trace"][0]["probs"]
        np.testing.assert_allclose(sum(probs), 1.0)

    def test_probabilities_refresh_once_per_round(self, tiny_bow_dataset):
        """A round that finds everyone offline waits for the rejoin and then
        retries its selection; the retry must not refresh (and pay for) the
        tier accuracies a second time."""
        system = TiFL(
            tiny_bow_dataset,
            build_model_builder(tiny_bow_dataset, "tiny"),
            _config(TiFL, tifl_interval=1, max_rounds=6),
        )
        everyone = range(tiny_bow_dataset.num_clients)
        system.scenario = ScenarioEngine.from_events(
            tiny_bow_dataset.num_clients,
            [ScenarioEvent(5.0, "leave", c) for c in everyone]
            + [ScenarioEvent(60.0, "join", c) for c in everyone],
        )
        h = system.run()
        assert h.times()[-1] > 60.0  # the run did wait out the blackout
        rounds = [entry["round"] for entry in h.meta["tier_prob_trace"]]
        assert rounds == list(range(1, system.round))

    def test_fast_tier_rounds_are_shorter(self, tiny_image_dataset):
        """Structural property: rounds drawn from tier 0 finish faster on
        average than rounds drawn from the slowest tier."""
        system, h = _run(TiFL, tiny_image_dataset, max_rounds=30)
        trace = np.array(h.meta["tier_selection_trace"])
        if not ((trace == 0).any() and (trace == 2).any()):
            pytest.skip("selection never hit both extreme tiers")
        # Reconstruct per-round durations from evaluation timestamps is
        # lossy; instead verify via the profiled latencies of tier members.
        profiled = system.profiled_latencies
        lat0 = np.mean(profiled[system.tiering.clients_in(0)])
        lat2 = np.mean(profiled[system.tiering.clients_in(2)])
        assert lat0 < lat2

    def test_learns(self, tiny_bow_dataset):
        _, h = _run(TiFL, tiny_bow_dataset, max_rounds=25)
        assert h.best_accuracy() > 0.45
