"""FLConfig and ExecConfig validation tests."""

import pytest

from repro.core.config import FLConfig
from repro.exec import EXECUTORS, ExecConfig


def test_defaults_are_paper_hyperparameters():
    cfg = FLConfig()
    assert cfg.clients_per_round == 10
    assert cfg.local_epochs == 3
    assert cfg.batch_size == 10
    assert cfg.lam == 0.4
    assert cfg.num_tiers == 5
    assert cfg.optimizer == "adam"
    assert cfg.compression == "polyline:4"


def test_with_replaces_fields():
    cfg = FLConfig().with_(lam=0.0, max_rounds=7)
    assert cfg.lam == 0.0 and cfg.max_rounds == 7
    assert FLConfig().lam == 0.4  # original untouched


@pytest.mark.parametrize(
    "field,value",
    [
        ("clients_per_round", 0),
        ("local_epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("lam", -0.1),
        ("num_tiers", 0),
        ("max_rounds", 0),
        ("eval_every", 0),
        ("optimizer", "lbfgs"),
        ("server_weighting", "random"),
        ("staleness", "exp"),
        ("compression", "gzip:9"),
        ("compression", "polyline:abc"),
        ("profile_sample", 0),
        ("fedasync_alpha", 0.0),
        ("fedasync_alpha", 1.8),
        ("tifl_interval", 0),
        ("tifl_credit_slack", 0.0),
        ("tifl_credit_slack", -1.5),
    ],
)
def test_rejects_invalid(field, value):
    with pytest.raises(ValueError):
        FLConfig(**{field: value})


def test_method_knobs_accept_their_boundaries():
    """The values a sweep's fl_overrides may reach without crashing or
    silently misbehaving: a full-step FedAsync mix, a TiFL refresh every
    round, any positive credit slack."""
    cfg = FLConfig(fedasync_alpha=1.0, tifl_interval=1, tifl_credit_slack=0.1)
    assert (cfg.fedasync_alpha, cfg.tifl_interval, cfg.tifl_credit_slack) == (1.0, 1, 0.1)
    for field, value in (("fedasync_alpha", 1.8), ("tifl_interval", 0), ("tifl_credit_slack", 0)):
        with pytest.raises(ValueError, match=field):
            FLConfig(**{field: value})


def test_compression_none_allowed():
    assert FLConfig(compression=None).compression is None


def test_execution_settings_live_in_exec():
    cfg = FLConfig(exec=ExecConfig(executor="dist", num_workers=2))
    assert (cfg.exec.executor, cfg.exec.num_workers) == ("dist", 2)
    assert FLConfig().exec == ExecConfig()
    with pytest.raises(TypeError):
        FLConfig(executor="dist")  # flat keys route through make_fl_config only


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_workers", -1),
        ("chunk_timeout", 0.0),
        ("chunk_retries", -1),
        ("heartbeat_interval", 0.0),
        ("worker_grace", 0.0),
        ("faults", "oom:0.2"),
    ],
)
def test_exec_config_rejects_invalid(field, value):
    with pytest.raises(ValueError):
        ExecConfig(**{field: value})


def test_executor_names_come_from_the_fixed_table():
    for name in EXECUTORS:
        assert ExecConfig(executor=name).executor == name
    with pytest.raises(ValueError, match="options: serial, parallel, dist"):
        ExecConfig(executor="gpu")


def test_heartbeat_timeout_must_exceed_interval():
    ExecConfig(heartbeat_interval=0.1, heartbeat_timeout=1.0)
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        ExecConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)


def test_profile_sample_accepts_positive_counts():
    assert FLConfig(profile_sample=None).profile_sample is None
    assert FLConfig(profile_sample=100).profile_sample == 100


def test_frozen():
    with pytest.raises(Exception):
        FLConfig().lam = 1.0
    with pytest.raises(Exception):
        FLConfig().exec.executor = "dist"
