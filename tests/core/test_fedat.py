"""FedAT system-level unit tests (tiny federation)."""

import numpy as np

from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, route_config


def _make_fedat(dataset, **cfg_overrides):
    defaults = dict(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=25,
        max_time=400.0,
        eval_every=5,
        num_tiers=3,
        num_unstable=2,
        seed=0,
        compute_per_sample=0.02,
        compute_base=0.2,
    )
    defaults.update(cfg_overrides)
    config = route_config("fedat", **defaults)
    builder = build_model_builder(dataset, "tiny")
    return FedAT(dataset, builder, config)


def test_runs_and_records(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset)
    h = system.run()
    assert len(h.records) >= 2
    assert h.records[0].round == 0
    assert h.records[-1].round == system.round
    assert system.round > 0


def test_all_tiers_participate(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset, max_rounds=40)
    h = system.run()
    counts = np.array(h.meta["tier_update_counts"])
    assert counts.sum() == system.round
    assert np.all(counts > 0), "every tier must contribute updates"


def test_fast_tiers_update_more_often(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset, max_rounds=60, max_time=600.0)
    h = system.run()
    counts = h.meta["tier_update_counts"]
    assert counts[0] > counts[-1], f"tier 0 should outpace slowest: {counts}"


def test_time_monotonic_and_positive(tiny_image_dataset):
    h = _make_fedat(tiny_image_dataset).run()
    times = h.times()
    assert np.all(np.diff(times) >= 0)
    assert times[-1] > 0


def test_compression_bytes_less_than_raw(tiny_image_dataset):
    compressed = _make_fedat(tiny_image_dataset, compression="polyline:4").run()
    raw = _make_fedat(tiny_image_dataset, compression=None).run()
    # Same number of messages at matched rounds → compare bytes per message.
    c_msgs = compressed.meta  # noqa: F841  (kept for debugging)
    c_bpm = compressed.total_bytes()[-1] / max(compressed.rounds()[-1], 1)
    r_bpm = raw.total_bytes()[-1] / max(raw.rounds()[-1], 1)
    assert c_bpm < r_bpm


def test_uses_polyline_codec_by_default(tiny_image_dataset):
    from repro.compression.codec import PolylineCodec

    system = _make_fedat(tiny_image_dataset)
    assert isinstance(system.codec, PolylineCodec)
    assert system.codec.precision == 4


def test_uniform_weighting_ablation_runs(tiny_image_dataset):
    h = _make_fedat(tiny_image_dataset, server_weighting="uniform").run()
    assert h.best_accuracy() > 0


def test_budget_round_cap(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset, max_rounds=7, max_time=None)
    system.run()
    assert system.round == 7


def test_budget_time_cap(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset, max_rounds=10_000, max_time=60.0)
    h = system.run()
    # Events may overshoot slightly (the event that crosses the limit still
    # processes), but not by more than one tier round.
    assert h.times()[-1] <= 60.0 + 40.0


def test_deterministic_given_seed(tiny_image_dataset):
    h1 = _make_fedat(tiny_image_dataset, seed=5).run()
    h2 = _make_fedat(tiny_image_dataset, seed=5).run()
    np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())
    np.testing.assert_array_equal(h1.times(), h2.times())
    assert h1.meta["tier_update_counts"] == h2.meta["tier_update_counts"]


def test_different_seeds_differ(tiny_image_dataset):
    h1 = _make_fedat(tiny_image_dataset, seed=1).run()
    h2 = _make_fedat(tiny_image_dataset, seed=2).run()
    assert not np.array_equal(h1.accuracies(), h2.accuracies())


def test_accuracy_improves_over_initial(tiny_bow_dataset):
    # The convex sentiment task converges reliably within a tiny budget
    # (the image CNN needs hundreds of updates to clear its initial-noise
    # plateau — that end-to-end behaviour is covered by the benchmarks).
    h = _make_fedat(
        tiny_bow_dataset,
        max_rounds=80,
        max_time=900.0,
        local_epochs=2,
        learning_rate=0.02,
    ).run()
    assert h.best_accuracy() > h.accuracies()[0] + 0.15


def test_global_model_changes_between_updates(tiny_image_dataset):
    system = _make_fedat(tiny_image_dataset, max_rounds=6)
    w0 = system.global_weights.copy()
    system.run()
    assert not np.allclose(system.global_weights, w0)
