"""Experiment harness tests: presets, model wiring, runner, caching."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import FLConfig
from repro.exec import ExecConfig
from repro.experiments.config import (
    SCALES,
    active_scale,
    build_model_builder,
    make_fl_config,
)
from repro.experiments.runner import (
    ALGORITHMS,
    _cache_key,
    build_federation,
    clear_cache,
    run_cached,
    run_experiment,
)
from repro.metrics.history import RunHistory


class TestScalePresets:
    def test_all_scales_defined(self):
        assert set(SCALES) == {"tiny", "bench", "paper"}

    def test_paper_scale_matches_paper_setup(self):
        p = SCALES["paper"]
        assert p.num_clients == 100
        assert p.large_num_clients == 500
        assert p.cnn_filters == (32, 64, 64)
        assert p.num_unstable == 10

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert active_scale() == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            active_scale()

    def test_async_methods_get_larger_budget(self):
        sync = make_fl_config("fedavg", "bench")
        asy = make_fl_config("fedat", "bench")
        assert asy.max_rounds > sync.max_rounds
        assert asy.max_time == sync.max_time

    def test_only_fedat_compresses(self):
        assert make_fl_config("fedat", "tiny").compression == "polyline:4"
        assert make_fl_config("fedavg", "tiny").compression is None
        assert make_fl_config("fedasync", "tiny").compression is None

    def test_overrides_pass_through(self):
        cfg = make_fl_config("fedat", "tiny", lam=0.0, clients_per_round=3)
        assert cfg.lam == 0.0 and cfg.clients_per_round == 3

    def test_flat_execution_keys_route_into_exec(self):
        cfg = make_fl_config("fedat", "tiny", executor="dist", num_workers=2, lam=0.1)
        assert cfg.exec == ExecConfig(executor="dist", num_workers=2)
        assert cfg.lam == 0.1
        assert make_fl_config("fedat", "tiny").exec == ExecConfig()


class TestModelWiring:
    def test_image_dataset_gets_cnn(self, tiny_image_dataset):
        model = build_model_builder(tiny_image_dataset, "tiny")(np.random.default_rng(0))
        assert model.name == "cnn"

    def test_bow_dataset_gets_logistic(self, tiny_bow_dataset):
        model = build_model_builder(tiny_bow_dataset, "tiny")(np.random.default_rng(0))
        assert model.name == "logistic"

    def test_sequence_dataset_gets_lstm(self):
        ds = build_federation("reddit", "tiny", 0, num_clients=6)
        model = build_model_builder(ds, "tiny")(np.random.default_rng(0))
        assert model.name == "lstm_classifier"

    def test_femnist_gets_femnist_cnn(self):
        ds = build_federation("femnist", "tiny", 0, num_clients=6)
        model = build_model_builder(ds, "tiny")(np.random.default_rng(0))
        assert model.name == "femnist_cnn"


class TestBuildFederation:
    def test_same_seed_same_data_across_methods(self):
        a = build_federation("cifar10", "tiny", 3, classes_per_client=2)
        b = build_federation("cifar10", "tiny", 3, classes_per_client=2)
        np.testing.assert_array_equal(a.clients[0].x_train, b.clients[0].x_train)

    def test_kclass_override(self):
        ds = build_federation("cifar10", "tiny", 0, classes_per_client=4)
        for c in ds.clients:
            assert len(np.unique(c.y_train)) <= 6

    def test_large_datasets_use_large_count(self):
        ds = build_federation("femnist", "tiny", 0)
        assert ds.num_clients == SCALES["tiny"].large_num_clients


class TestRunner:
    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("sgdboost", "cifar10")

    def test_all_methods_registered(self):
        assert set(ALGORITHMS) == {
            "fedat", "fedavg", "fedprox", "tifl", "fedasync", "asofed"
        }

    def test_run_records_meta(self):
        h = run_experiment(
            "fedavg", "sentiment140", scale="tiny", seed=0,
            classes_per_client=2, max_rounds=3, eval_every=1,
        )
        assert h.meta["scale"] == "tiny"
        assert h.meta["classes_per_client"] == 2
        assert h.method == "fedavg"

    def test_delay_counts_change_environment(self):
        h = run_experiment(
            "fedavg", "sentiment140", scale="tiny", seed=0,
            delay_counts=[15, 0, 0, 0, 0], max_rounds=4, eval_every=2,
        )
        # All clients in the zero-delay part → rounds are compute-bound.
        assert h.times()[-1] < 4 * 5.0

    def test_cache_ignores_execution_only_knobs(self, tmp_path, monkeypatch):
        """Executors are bit-equivalent by contract, so a serial run must
        satisfy the same experiment requested under executor='dist' — no
        re-run, same object from the memory cache."""
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        kwargs = dict(scale="tiny", seed=0, classes_per_client=2,
                      max_rounds=2, eval_every=1)
        h1 = run_cached("fedavg", "sentiment140", executor="serial", **kwargs)
        h2 = run_cached("fedavg", "sentiment140", executor="dist",
                        num_workers=2, chunk_retries=5, **kwargs)
        assert h1 is h2
        # Result-shaping knobs still key separate entries.
        h3 = run_cached("fedavg", "sentiment140", profile_sample=6, **kwargs)
        assert h3 is not h1
        clear_cache()

    def test_cache_hits_are_identical_objects(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        kwargs = dict(scale="tiny", seed=0, classes_per_client=2,
                      max_rounds=2, eval_every=1)
        h1 = run_cached("fedavg", "sentiment140", **kwargs)
        h2 = run_cached("fedavg", "sentiment140", **kwargs)
        assert h1 is h2

    def test_cache_disk_roundtrip(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        kwargs = dict(scale="tiny", seed=1, classes_per_client=2,
                      max_rounds=2, eval_every=1)
        h1 = run_cached("fedavg", "sentiment140", **kwargs)
        runner_mod._MEMORY_CACHE.clear()
        h2 = run_cached("fedavg", "sentiment140", **kwargs)
        assert h1 is not h2
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())
        clear_cache()

    def test_different_params_different_cache_entries(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        h1 = run_cached("fedavg", "sentiment140", scale="tiny", seed=0,
                        max_rounds=2, eval_every=1)
        h2 = run_cached("fedavg", "sentiment140", scale="tiny", seed=99,
                        max_rounds=2, eval_every=1)
        assert not np.array_equal(h1.accuracies(), h2.accuracies())
        clear_cache()


#: One experiment's parameters and the key they had before execution
#: settings became a type; a changed key would orphan every cached history
#: and in-flight checkpoint written under the old one.
_PINNED_RUN = {"method": "fedat", "dataset": "sentiment140", "scale": "tiny", "seed": 1,
               "max_rounds": 8}
_PINNED_KEY = "d627b7981b3024d28e6b"


class TestCacheKey:
    """Cache and checkpoint keys cover what shapes a run's history and
    nothing that only says how it executes."""

    @pytest.fixture
    def cached(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(
            runner_mod, "run_experiment", lambda method, dataset, **kw: RunHistory(method, dataset)
        )
        clear_cache()
        yield lambda **kw: run_cached("fedat", "sentiment140", **{"scale": "tiny", "seed": 1, **kw})
        clear_cache()

    @pytest.mark.parametrize("name", [f.name for f in fields(ExecConfig)] + ["exec"])
    def test_execution_settings_leave_the_key_alone(self, cached, name):
        assert cached(**{name: "changed"}) is cached()

    @pytest.mark.parametrize("name", [f.name for f in fields(FLConfig) if f.name != "exec"])
    def test_every_other_config_field_keys_its_own_entry(self, cached, name):
        assert cached(**{name: "changed"}) is not cached()

    def test_key_is_pinned(self):
        assert _cache_key(_PINNED_RUN) == _PINNED_KEY
        assert _cache_key({**_PINNED_RUN, "executor": "dist", "num_workers": 2}) == _PINNED_KEY
