"""CLI tests (in-process; no subprocess overhead)."""

import json
import re

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fedat" in out and "cifar10" in out


def test_codecs_command(capsys):
    assert main(["codecs", "--size", "2000"]) == 0
    out = capsys.readouterr().out
    assert "vs float64" in out
    rows = [line.split()[0] for line in out.splitlines() if line.startswith("polyline")]
    assert rows == ["polyline:p3", "polyline:p4", "polyline:p5"]


def test_run_command(capsys, tmp_path):
    out_path = tmp_path / "hist.json"
    rc = main(
        [
            "run", "--method", "fedavg", "--dataset", "sentiment140",
            "--scale", "tiny", "--rounds", "3", "--classes-per-client", "2",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "best accuracy" in out
    data = json.loads(out_path.read_text())
    assert data["method"] == "fedavg"
    assert len(data["records"]) >= 2


def test_run_compression_override(capsys):
    rc = main(
        [
            "run", "--method", "fedat", "--dataset", "sentiment140",
            "--scale", "tiny", "--rounds", "5", "--compression", "none",
        ]
    )
    assert rc == 0


def test_compare_command(capsys):
    rc = main(
        [
            "compare", "--dataset", "sentiment140", "--scale", "tiny",
            "--methods", "fedavg,fedat", "--classes-per-client", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fedavg" in out and "fedat" in out
    assert "t-to-target" in out


def test_run_refuses_a_flag_the_method_does_not_read(capsys):
    rc = main(
        [
            "run", "--method", "fedavg", "--dataset", "sentiment140",
            "--scale", "tiny", "--lam", "0.3",
        ]
    )
    assert rc != 0
    assert "fedavg does not take 'lam'; fedat, fedprox, asofed do" in capsys.readouterr().err


def test_run_refuses_injected_faults_without_dist(capsys):
    """A serial run has no worker to fault: an injected fault is refused
    before anything runs, not passed off as a chaos run."""
    rc = main(
        [
            "run", "--method", "fedavg", "--dataset", "sentiment140",
            "--scale", "tiny", "--faults", "crash:0.2",
        ]
    )
    assert rc == 2
    assert "require executor 'dist'" in capsys.readouterr().err


def test_compare_passes_a_method_knob_only_where_it_is_read(capsys, monkeypatch):
    """``--retier-interval`` reaches FedAT, which re-tiers; FedAvg, which
    reads no tiering knob, runs exactly as it does without the flag."""
    from repro.experiments.checkpoint import strip_volatile_meta
    from repro.experiments.runner import RunSpec, run_experiment

    histories = {}
    real_run = RunSpec.run

    def recording(spec, **execution):
        histories[spec.method] = real_run(spec, **execution)
        return histories[spec.method]

    monkeypatch.setattr(RunSpec, "run", recording)
    rc = main(
        [
            "compare", "--dataset", "sentiment140", "--scale", "tiny",
            "--methods", "fedat,fedavg", "--retier-interval", "2",
        ]
    )
    assert rc == 0
    assert histories["fedat"].meta["retier_trace"]
    plain = run_experiment("fedavg", "sentiment140", scale="tiny", seed=0)
    assert strip_volatile_meta(histories["fedavg"].to_dict()) == strip_volatile_meta(
        plain.to_dict()
    )


def test_run_with_dist_executor(capsys):
    rc = main(
        [
            "run", "--method", "fedavg", "--dataset", "sentiment140",
            "--scale", "tiny", "--rounds", "2", "--classes-per-client", "2",
            "--executor", "dist", "--num-workers", "2",
        ]
    )
    assert rc == 0
    assert "best accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["gpu", "parallel"])
def test_parser_rejects_unknown_executor(capsys, name):
    """``parallel``, once another name for ``dist``, is refused like any
    name that is not a backend, and the refusal names the two there are."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--method", "fedat", "--dataset", "cifar10", "--executor", name])
    assert exc.value.code == 2
    assert re.search(r"choose from '?serial'?, '?dist'?\)", capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["run", "--method", "fedat", "--dataset", "cifar10"],
    ["compare", "--dataset", "cifar10"],
    ["sweep"],
])
def test_every_command_that_runs_takes_the_execution_flags(command):
    args = build_parser().parse_args(command + ["--executor", "dist", "--num-workers", "2"])
    assert (args.executor, args.num_workers) == ("dist", 2)
    args = build_parser().parse_args(command)
    assert (args.executor, args.num_workers) == (None, None)  # ExecConfig's defaults


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--dataset", "sentiment140", "--methods", "sgdboost"],
        [
            "compare",
            "--dataset",
            "sentiment140",
            "--methods",
            "fedat,fedavg",
            "--scenario",
            "bogus",
        ],
        ["compare", "--dataset", "nosuch", "--methods", "fedat,fedavg"],
        ["run", "--method", "fedat", "--dataset", "nosuch"],
        ["run", "--method", "fedat", "--dataset", "sentiment140", "--scenario", "bogus"],
        ["run", "--method", "fedat", "--dataset", "sentiment140", "--seed", "-1"],
    ],
    ids=[
        "method",
        "compare-scenario",
        "compare-dataset",
        "run-dataset",
        "run-scenario",
        "run-seed",
    ],
)
def test_compare_rejects_unknown_method(capsys, argv):
    """A bad run description fails before anything runs: one line, exit 2."""
    assert main(argv) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["quant:8", "topk:0.1", "subsample:0.25", "polyline:13"])
def test_run_refuses_a_codec_the_paper_does_not_use(capsys, spec):
    """``--compression`` takes polyline or ``none``; anything else fails
    before anything runs, in one line that names the spec."""
    argv = ["run", "--method", "fedat", "--dataset", "sentiment140", "--scale", "tiny",
            "--compression", spec]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and repr(spec) in err[0]


def test_parser_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--method", "fedat",
                                   "--dataset", "cifar10", "--scale", "huge"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
