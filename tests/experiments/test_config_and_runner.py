"""Experiment harness tests: presets, model wiring, runner, caching."""

from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import FedAvg, TiFL
from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.exec import ExecConfig
from repro.experiments.config import (
    SCALES,
    active_scale,
    build_model_builder,
    knobs_read_by,
    make_fl_config,
    methods_taking,
    route_config,
)
from repro.experiments.runner import (
    ALGORITHMS,
    RunSpec,
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
        assert cfg.algo.lam == 0.0 and cfg.clients_per_round == 3

    def test_flat_execution_keys_route_into_exec(self):
        cfg = make_fl_config("fedat", "tiny", executor="dist", num_workers=2, lam=0.1)
        assert cfg.exec == ExecConfig(executor="dist", num_workers=2)
        assert cfg.algo == FedAT.Params(lam=0.1)
        assert make_fl_config("fedat", "tiny").exec == ExecConfig()


class TestRouting:
    """Flat keys go to ``exec``, to the method's ``Params`` or to
    ``FLConfig``; a method receives only the knobs it reads."""

    def test_method_knobs_route_into_algo(self):
        cfg = route_config("tifl", num_tiers=3, tifl_interval=4, max_rounds=8)
        assert cfg.algo == TiFL.Params(num_tiers=3, tifl_interval=4)
        assert cfg.max_rounds == 8
        assert route_config("tifl").algo is None  # no knob: the method's defaults

    def test_a_knob_the_method_does_not_read_is_refused(self):
        with pytest.raises(ValueError) as err:
            make_fl_config("fedavg", "tiny", lam=0.3)
        assert str(err.value) == "fedavg does not take 'lam'; fedat, fedprox, asofed do"

    def test_a_misspelt_key_names_the_method(self):
        with pytest.raises(ValueError, match="fedat does not take 'lamda'; no method does"):
            make_fl_config("fedat", "tiny", lamda=0.3)

    def test_profile_sample_is_refused(self):
        """No method samples its tier profile: FedAT and TiFL probe everyone."""
        message = "fedat does not take 'profile_sample'; no method does"
        with pytest.raises(ValueError, match=message):
            route_config("fedat", profile_sample=10)

    def test_another_methods_params_are_refused(self, tiny_bow_dataset):
        config = FLConfig(algo=TiFL.Params())
        for cls in (FedAT, FedAvg):
            with pytest.raises(TypeError, match=rf"{cls.name} takes .*, not TiFL\.Params"):
                cls(tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), config)

    def test_methods_taking_reads_the_params(self):
        assert methods_taking("lam") == ["fedat", "fedprox", "asofed"]
        assert methods_taking("retier_interval") == ["fedat", "tifl"]
        assert methods_taking("clients_per_round") == []

    def test_grids_pass_a_knob_only_where_it_is_read(self):
        flat = {"retier_interval": 2, "fedasync_alpha": 0.5, "max_rounds": 8, "lamda": 1}
        assert knobs_read_by("fedavg", flat) == {"max_rounds": 8, "lamda": 1}
        assert knobs_read_by("tifl", flat) == {"retier_interval": 2, "max_rounds": 8, "lamda": 1}


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
        with pytest.raises(ValueError, match="unknown method 'sgdboost'"):
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
        h3 = run_cached("fedavg", "sentiment140", num_unstable=0, **kwargs)
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

    def test_torn_store_file_reruns_and_is_rewritten(self, tmp_path, monkeypatch):
        """A file a crash cut short is a miss, not an error: the run
        re-runs and its file is rewritten whole."""
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        kwargs = dict(scale="tiny", seed=1, max_rounds=2, eval_every=1)
        run_cached("fedavg", "sentiment140", **kwargs)
        (path,) = (tmp_path / "cache").glob("*.json")
        intact = path.read_bytes()
        path.write_bytes(intact[:40])
        runner_mod._MEMORY_CACHE.clear()  # the next process
        calls = []
        real_run = RunSpec.run
        monkeypatch.setattr(
            RunSpec, "run", lambda self, **k: calls.append(self) or real_run(self, **k)
        )
        history = run_cached("fedavg", "sentiment140", **kwargs)
        assert len(calls) == 1 and history.records
        assert path.read_bytes() == intact
        clear_cache()

    def test_stored_file_holds_no_volatile_meta(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.experiments.checkpoint import VOLATILE_META_KEYS
        from repro.utils.serialization import load_json

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        clear_cache()
        spec, _ = RunSpec.of("fedavg", "sentiment140", scale="tiny", max_rounds=2)
        assert "phase_seconds" in spec.cached().meta  # the run had it; the file does not
        stored = load_json(tmp_path / "cache" / f"{spec.key()}.json")
        assert not set(VOLATILE_META_KEYS) & set(stored["meta"])
        assert stored["records"]
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
#: settings became a type and a run became a ``RunSpec``. The key names the
#: run's cache entry and its checkpoint file: a changed key would orphan
#: every cached history and in-flight checkpoint written under the old one.
_PINNED_RUN = {"method": "fedat", "dataset": "sentiment140", "scale": "tiny", "seed": 1,
               "max_rounds": 8}
_PINNED_KEY = "d627b7981b3024d28e6b"
#: Two more, whose method knobs each only one or two methods read: a key
#: hashes the flat names, wherever a knob is declared.
_PINNED_METHOD_RUNS = [
    ({"method": "fedasync", "dataset": "sentiment140", "scale": "tiny", "seed": 1,
      "max_rounds": 8, "fedasync_alpha": 0.5, "staleness": "poly:0.5"}, "ea8716bad4b59aff6d53"),
    ({"method": "tifl", "dataset": "sentiment140", "scale": "tiny", "seed": 1,
      "max_rounds": 8, "num_tiers": 3, "tifl_interval": 4, "retier_interval": 2},
     "6ad2c5146c8974c34ebd"),
]
#: The checkpoint file ``run_experiment`` writes for ``_PINNED_RUN``: a
#: checkpoint is keyed as the cache is.
_PINNED_CHECKPOINT = f"run_{_PINNED_KEY}.ckpt"


class TestCacheKey:
    """Cache and checkpoint keys cover what shapes a run's history and
    nothing that only says how it executes."""

    @pytest.fixture
    def cached(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
        # Observe keys only: neither build a config nor run.
        monkeypatch.setattr(runner_mod, "make_fl_config", lambda *a, **kw: None)
        monkeypatch.setattr(
            RunSpec, "run", lambda self, **kw: RunHistory(self.method, self.dataset)
        )
        clear_cache()
        yield lambda **kw: run_cached("fedat", "sentiment140", **{"scale": "tiny", "seed": 1, **kw})
        clear_cache()

    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(ExecConfig)]
        + ["exec", "checkpoint_dir", "resume", "checkpoint_every"],
    )
    def test_execution_settings_leave_the_key_alone(self, cached, name):
        assert cached(**{name: "changed"}) is cached()

    @pytest.mark.parametrize(
        "name",
        sorted(
            {f.name for f in fields(FLConfig) if f.name != "exec"}
            | {f.name for cls in ALGORITHMS.values() for f in fields(cls.Params)}
        ),
    )
    def test_every_other_config_field_keys_its_own_entry(self, cached, name):
        assert cached(**{name: "changed"}) is not cached()

    def test_key_is_pinned(self):
        assert RunSpec.of(**_PINNED_RUN)[0].key() == _PINNED_KEY
        dist = {**_PINNED_RUN, "executor": "dist", "num_workers": 2}
        assert RunSpec.of(**dist)[0].key() == _PINNED_KEY

    @pytest.mark.parametrize("run,key", _PINNED_METHOD_RUNS, ids=["fedasync", "tifl"])
    def test_method_knob_keys_are_pinned(self, run, key):
        assert RunSpec.of(**run)[0].key() == key

    def test_checkpoint_key_is_pinned(self, tmp_path, monkeypatch):
        from repro.experiments.checkpoint import RunCheckpointer

        monkeypatch.setattr(RunCheckpointer, "clear", lambda self: None)
        run = dict(_PINNED_RUN)
        run_experiment(run.pop("method"), run.pop("dataset"), checkpoint_dir=tmp_path, **run)
        assert [p.name for p in tmp_path.iterdir()] == [_PINNED_CHECKPOINT]
