"""FLConfig, method Params and ExecConfig validation tests."""

import re
from dataclasses import fields, replace

import pytest

from repro.baselines import FedAsync, TiFL
from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.exec import EXECUTORS, ExecConfig
from repro.experiments.config import ALGORITHMS


def test_defaults_are_paper_hyperparameters():
    cfg = FLConfig()
    assert cfg.clients_per_round == 10
    assert cfg.local_epochs == 3
    assert cfg.batch_size == 10
    assert cfg.optimizer == "adam"
    assert cfg.compression == "polyline:4"
    assert cfg.algo is None  # each method's own defaults
    fedat = FedAT.Params()
    assert (fedat.lam, fedat.num_tiers, fedat.server_weighting) == (0.4, 5, "dynamic")


def test_with_replaces_fields():
    cfg = replace(FLConfig(), max_rounds=7, algo=FedAT.Params(lam=0.0))
    assert cfg.algo.lam == 0.0 and cfg.max_rounds == 7
    assert FLConfig().algo is None  # original untouched


def test_config_holds_what_every_method_reads():
    """21 fields: the 19 every method reads, ``algo`` and ``exec``. Each
    method's settable values are those 19 plus its own knobs."""
    assert len(fields(FLConfig)) == 21
    own = {name: len(fields(cls.Params)) for name, cls in ALGORITHMS.items()}
    assert {name: 19 + n for name, n in own.items()} == {
        "fedat": 26, "fedavg": 19, "fedprox": 20, "tifl": 25, "fedasync": 21, "asofed": 21
    }


@pytest.mark.parametrize(
    "field,value",
    [
        ("clients_per_round", 0),
        ("local_epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("max_rounds", 0),
        ("eval_every", 0),
        ("optimizer", "lbfgs"),
        ("compression", "gzip:9"),
        ("compression", "polyline:abc"),
    ],
)
def test_rejects_invalid(field, value):
    with pytest.raises(ValueError):
        FLConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("lam", -0.1),
        ("num_tiers", 0),
        ("server_weighting", "random"),
        ("staleness", "exp"),
        ("fedasync_alpha", 0.0),
        ("fedasync_alpha", 1.8),
        ("tifl_interval", 0),
        ("tifl_credit_slack", 0.0),
        ("tifl_credit_slack", -1.5),
    ],
)
def test_method_params_reject_invalid(field, value):
    """Every method whose Params declare the knob refuses the bad value."""
    takers = [cls for cls in ALGORITHMS.values() if field in cls.Params.__dataclass_fields__]
    assert takers
    for cls in takers:
        with pytest.raises(ValueError):
            cls.Params(**{field: value})


def test_method_knobs_accept_their_boundaries():
    """The values a sweep's fl_overrides may reach without crashing or
    silently misbehaving: a full-step FedAsync mix, a TiFL refresh every
    round, any positive credit slack."""
    assert FedAsync.Params(fedasync_alpha=1.0).fedasync_alpha == 1.0
    tifl = TiFL.Params(tifl_interval=1, tifl_credit_slack=0.1)
    assert (tifl.tifl_interval, tifl.tifl_credit_slack) == (1, 0.1)
    for cls, field, value in (
        (FedAsync, "fedasync_alpha", 1.8),
        (TiFL, "tifl_interval", 0),
        (TiFL, "tifl_credit_slack", 0),
    ):
        with pytest.raises(ValueError, match=field):
            cls.Params(**{field: value})


@pytest.mark.parametrize(
    "spec", ["polyline:13", "polyline:x", "quant:8", "topk:0.1", "subsample:0.25"]
)
def test_rejects_a_codec_spec_its_codec_refuses(spec):
    """FLConfig asks the codec factory, so every method refuses the spec at
    config time, FedAvg included (it never builds a codec), and the error
    names the spec. Only the paper's codecs exist: the related-work ones
    (quantization, top-k, random-mask subsampling) are refused too."""
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        FLConfig(compression=spec)


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
    assert EXECUTORS == ("serial", "dist")
    for name in EXECUTORS:
        assert ExecConfig(executor=name).executor == name
    for name in ("gpu", "parallel"):
        with pytest.raises(ValueError, match=f"'{name}'; options: serial, dist$"):
            ExecConfig(executor=name)


def test_heartbeat_timeout_must_exceed_interval():
    ExecConfig(heartbeat_interval=0.1, heartbeat_timeout=1.0)
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        ExecConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)


def test_frozen():
    with pytest.raises(Exception):
        FLConfig().max_rounds = 1
    with pytest.raises(Exception):
        FLConfig().exec.executor = "dist"
    with pytest.raises(Exception):
        FedAT.Params().lam = 1.0
