"""Sweep runner: grid execution, crash-resume, the run store in its out-dir."""

import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import repro.experiments.sweep as sweep_mod
from repro.cli import main
from repro.experiments.checkpoint import VOLATILE_META_KEYS
from repro.experiments.runner import RunSpec
from repro.experiments.sweep import SweepCell, SweepRunner, SweepSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _stored(spec, cell, out_dir):
    """The store file of one grid point's run."""
    return spec.run_spec(cell).path(out_dir)


@pytest.fixture()
def count_runs(monkeypatch):
    """The runs ``RunSpec.run`` is asked for from here on."""
    calls = []
    real_run = RunSpec.run
    monkeypatch.setattr(RunSpec, "run", lambda self, **k: calls.append(self) or real_run(self, **k))
    return calls


@pytest.fixture()
def executions(monkeypatch):
    """The execution settings each ``RunSpec.run`` call gets from here on."""
    calls = []
    real_run = RunSpec.run
    monkeypatch.setattr(RunSpec, "run", lambda self, **k: calls.append(k) or real_run(self, **k))
    return calls


@pytest.fixture()
def spec():
    return SweepSpec(
        methods=("fedavg", "tifl"),
        scenarios=("static", "churn"),
        seeds=(0, 1),
        dataset="sentiment140",
        scale="tiny",
        smoke=True,
    )


def test_spec_validates_and_enumerates(spec):
    cells = spec.cells()
    assert len(cells) == 8
    assert cells[0] == SweepCell("fedavg", "static", 0)
    assert len({c.cell_id for c in cells}) == 8
    assert spec.key() == spec.key()
    with pytest.raises(ValueError):
        SweepSpec(methods=("sgdboost",))
    with pytest.raises(ValueError):
        SweepSpec(methods=("fedavg",), scenarios=("earthquake",))
    with pytest.raises(ValueError):
        SweepSpec(methods=("fedavg",), seeds=())
    for bad in ({"dataset": "nosuch"}, {"scale": "huge"}, {"fl_overrides": (("bogus", 1),)}):
        with pytest.raises(ValueError):
            SweepSpec(methods=("fedavg",), **bad)


def test_cell_id_is_filename_safe_for_composed_and_trace_scenarios():
    composed = SweepCell("fedat", "churn:0.2+bwdrift:2.0", 1)
    assert composed.cell_id == "fedat__churn-0.2-bwdrift-2.0__s1"
    trace = SweepCell("fedavg", "trace:tests/fixtures/traces/diurnal_tiny.csv", 0)
    assert "/" not in trace.cell_id and ":" not in trace.cell_id
    windows = SweepCell("fedavg", "trace:C:\\traces\\t.csv", 0)
    assert "\\" not in windows.cell_id
    # Distinct scenarios never collide after sanitization here.
    assert len({composed.cell_id, trace.cell_id, windows.cell_id}) == 3


def test_spec_accepts_composed_and_trace_scenarios():
    spec = SweepSpec(
        methods=("fedavg",),
        scenarios=(
            "churn:0.2+bwdrift:2.0",
            "trace:tests/fixtures/traces/diurnal_tiny.csv",
        ),
        seeds=(0,),
        smoke=True,
    )
    assert len(spec.cells()) == 2
    with pytest.raises(ValueError):
        SweepSpec(methods=("fedavg",), scenarios=("churn:0.2+earthquake",))


def test_sweep_completes_and_summarizes(spec, tmp_path):
    out = tmp_path / "out"
    runner = SweepRunner(spec, out)
    summary = runner.run()
    assert summary["complete"]
    assert summary["cells_done"] == 8
    assert set(summary["rows"]) == {
        f"{m}@{s}" for m in spec.methods for s in spec.scenarios
    }
    for row in summary["rows"].values():
        assert sorted(row["seeds"]) == [0, 1]
        assert 0.0 <= row["best_accuracy"] <= 1.0
    table = runner.format_summary(summary)
    assert "fedavg" in table and "churn" in table and "complete" in table
    assert (out / "summary.json").exists()
    # The out-dir is the grid, its summary and one store file per cell.
    stored = {_stored(spec, c, out).name for c in spec.cells()}
    assert len(stored) == 8
    assert {p.name for p in out.iterdir()} == stored | {"spec.json", "summary.json"}
    grid = json.loads((out / "spec.json").read_text())
    assert grid == json.loads(json.dumps(asdict(spec)))
    assert not {"executor", "num_workers"} & set(grid)  # how cells run is not the grid
    assert SweepSpec.from_file(out / "spec.json") == spec


def test_sweep_kill_and_resume_matches_uninterrupted(spec, tmp_path, count_runs):
    # Uninterrupted reference run.
    full = SweepRunner(spec, tmp_path / "full")
    full_summary = full.run()

    # Interrupted run: stop after 3 cells ("kill"), then resume.
    part = SweepRunner(spec, tmp_path / "part")
    partial_summary = part.run(max_runs=3)
    assert not partial_summary["complete"]
    assert partial_summary["cells_done"] == 3
    assert not (tmp_path / "part" / "summary.json").exists()

    count_runs.clear()
    resumed_summary = SweepRunner(spec, tmp_path / "part").run()
    assert len(count_runs) == 5  # only the pending cells re-ran
    assert resumed_summary["complete"]

    # Merged results are bit-identical to the uninterrupted sweep.
    assert resumed_summary == full_summary
    for cell in spec.cells():
        a = _stored(spec, cell, tmp_path / "full").read_bytes()
        b = _stored(spec, cell, tmp_path / "part").read_bytes()
        assert a == b, cell.cell_id


def test_dist_cell_file_holds_no_volatile_meta(tmp_path, monkeypatch, executions):
    """A dist run always records fault counters, and their values depend on
    OS races: the stored run keeps none of the volatile keys, and its key
    leaves execution settings out, so the file is the serial run's, byte
    for byte, and a sweep resumed under the other executor runs no cell."""
    spec = SweepSpec(methods=("fedavg",), smoke=True)
    (cell,) = spec.cells()
    dist = {"executor": "dist", "num_workers": 2}
    files = {}
    for name, execution in (("serial", {}), ("dist", dist)):
        SweepRunner(spec, tmp_path / name).run(**execution)
        files[name] = _stored(spec, cell, tmp_path / name).read_bytes()
    assert executions == [{}, dist]
    assert not set(VOLATILE_META_KEYS) & set(json.loads(files["dist"])["meta"])
    assert files["dist"] == files["serial"]

    calls = []
    monkeypatch.setattr(RunSpec, "run", lambda self, **k: calls.append(self))
    SweepRunner(spec, tmp_path / "serial").run(**dist)
    SweepRunner(spec, tmp_path / "dist").run()
    assert calls == []


def test_sweep_reruns_a_torn_run(spec, tmp_path, count_runs):
    runner = SweepRunner(spec, tmp_path / "out")
    runner.run(max_runs=2)
    done = [c for c in spec.cells() if _stored(spec, c, runner.out_dir).exists()]
    assert len(done) == 2

    # Torn write: a truncated file is a miss, and its cell re-runs.
    path = _stored(spec, done[0], runner.out_dir)
    intact = path.read_bytes()
    path.write_bytes(intact[:40])
    count_runs.clear()
    summary = runner.run()
    assert summary["complete"]
    assert len(count_runs) == 7  # the six never run, and the torn one
    assert path.read_bytes() == intact


def test_extending_a_grid_runs_only_the_new_cells(tmp_path, count_runs):
    """A finished seed-0 grid extended by seed 1 keeps its seed-0 cells."""
    base = SweepSpec(methods=("fedavg",), scenarios=("static", "churn"), seeds=(0,), smoke=True)
    SweepRunner(base, tmp_path).run()
    count_runs.clear()
    summary = SweepRunner(replace(base, seeds=(0, 1)), tmp_path).run()
    assert summary["complete"]
    assert [run.seed for run in count_runs] == [1, 1]


def test_reused_out_dir_never_reads_another_grids_runs(spec, tmp_path, monkeypatch):
    """A leftover run from an earlier grid in the same out-dir is neither
    loaded nor summarized: the store is read by the current grid's keys."""
    out = tmp_path / "out"
    other = SweepSpec(methods=("fedprox",), scenarios=("burst",), smoke=True)
    SweepRunner(other, out).run()
    (leftover,) = [_stored(other, c, out) for c in other.cells()]

    loaded = []
    real_load = RunSpec.load

    def load(self, store=None):
        loaded.append(self.path(store))
        return real_load(self, store)

    monkeypatch.setattr(RunSpec, "load", load)
    summary = SweepRunner(spec, out).run()
    assert summary["complete"]
    assert set(summary["rows"]) == {f"{m}@{s}" for m in spec.methods for s in spec.scenarios}
    assert leftover.exists() and leftover not in loaded


def _fl(spec, *cell):
    """The FL overrides of one grid point's run."""
    return dict(spec.run_spec(SweepCell(*cell)).fl_overrides)


def test_smoke_enables_retiering_only_for_dynamic_tiered_cells(spec):
    assert _fl(spec, "tifl", "churn", 0)["retier_interval"] == sweep_mod.SMOKE_RETIER_INTERVAL
    assert "retier_interval" not in _fl(spec, "tifl", "static", 0)
    assert "retier_interval" not in _fl(spec, "fedavg", "churn", 0)


def test_explicit_retier_interval_wins_even_under_smoke(spec):
    from dataclasses import replace

    assert _fl(replace(spec, retier_interval=7), "tifl", "churn", 0)["retier_interval"] == 7


def test_fl_overrides_reach_only_the_methods_that_read_them(spec):
    """One override dict serves the whole grid: a method knob goes to the
    cells whose method declares it, a shared config key to every cell."""
    from dataclasses import replace

    spec = replace(spec, fl_overrides=(("lam", 0.1), ("max_rounds", 9), ("retier_interval", 5)))
    fedavg = _fl(spec, "fedavg", "static", 0)
    assert "lam" not in fedavg and "retier_interval" not in fedavg
    assert fedavg["max_rounds"] == 9
    fedat = _fl(spec, "fedat", "static", 0)
    assert (fedat["lam"], fedat["retier_interval"], fedat["max_rounds"]) == (0.1, 5, 9)
    tifl = _fl(spec, "tifl", "static", 0)
    assert "lam" not in tifl and tifl["retier_interval"] == 5


def test_spec_from_dict_and_file_round_trip(spec, tmp_path):
    payload = {
        "methods": ["fedavg", "tifl"],
        "scenarios": ["static", "churn"],
        "seeds": [0, 1],
        "dataset": "sentiment140",
        "scale": "tiny",
        "smoke": True,
    }
    from_dict = SweepSpec.from_dict(payload)
    assert from_dict == spec
    assert from_dict.key() == spec.key()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(payload))
    assert SweepSpec.from_file(config) == spec
    # fl_overrides as a JSON object becomes the hashable tuple form.
    overridden = SweepSpec.from_dict({**payload, "fl_overrides": {"lam": 0.1}})
    assert overridden.fl_overrides == (("lam", 0.1),)
    with pytest.raises(ValueError):
        SweepSpec.from_dict({**payload, "grid": "big"})
    with pytest.raises(ValueError):
        SweepSpec.from_dict({**payload, "scenarios": ["earthquake"]})


def test_committed_sweep_configs_parse():
    root = Path(__file__).resolve().parent.parent.parent
    configs = sorted((root / "examples").glob("sweep_*.json"))
    assert configs, "no committed sweep configs under examples/"
    scenarios = set()
    for path in configs:
        spec = SweepSpec.from_file(path)
        assert spec.cells()
        scenarios.update(spec.scenarios)
    # The committed grids exercise the arrival and bandwidth-drift axes.
    assert any(s.startswith("arrival") for s in scenarios)
    assert any(s.startswith("bwdrift") for s in scenarios)


#: The committed configs' keys, each a digest of the grid's run keys, which
#: name its store files: a moved key means a cell's store file moved, and
#: that cell would re-run.
_PINNED_SWEEP_KEYS = {
    "sweep_nightly.json": "fae55c4acac3a116",
    "sweep_paper.json": "f10dfa1192d652f7",
}


@pytest.mark.parametrize("name,key", sorted(_PINNED_SWEEP_KEYS.items()))
def test_committed_sweep_keys_are_pinned(name, key):
    assert SweepSpec.from_file(EXAMPLES / name).key() == key


def test_cell_file_names_are_pinned():
    """A cell id names the cell's log lines; its store file is named by its
    run key, which ``_PINNED_SWEEP_KEYS`` pins through the sweep key."""
    import hashlib

    ids = [c.cell_id for c in SweepSpec.from_file(EXAMPLES / "sweep_paper.json").cells()]
    assert ids[:2] == ["fedat__static__s0", "fedat__static__s0__p1000000"]
    assert ids[-1] == "asofed__bwheal-4__s2__p1000000"
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest()[:16] == "e2dada0e227e9467"


def test_cli_sweep_smoke(tmp_path, capsys):
    rc = main(
        [
            "sweep", "--methods", "fedavg", "--scenarios", "static,churn",
            "--seeds", "1", "--smoke", "--dataset", "sentiment140",
            "--out-dir", str(tmp_path / "cli"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fedavg" in out and "scenario" in out and "complete" in out


def test_cli_sweep_partial_exit_code(tmp_path, capsys):
    args = [
        "sweep", "--methods", "fedavg", "--scenarios", "static,churn",
        "--seeds", "1", "--smoke", "--dataset", "sentiment140",
        "--out-dir", str(tmp_path / "cli"),
    ]
    assert main(args + ["--max-runs", "1"]) == 3
    assert main(args) == 0  # resume finishes the grid


def test_cli_sweep_config_file(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "methods": ["fedavg"],
                "scenarios": ["static", "bwdrift:2.0"],
                "seeds": [0],
                "dataset": "sentiment140",
                "scale": "tiny",
                "smoke": True,
            }
        )
    )
    rc = main(
        ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "bwdrift:2.0" in out and "complete" in out


def test_cli_sweep_config_takes_its_executor_from_the_command_line(
    tmp_path, capsys, executions
):
    """A committed grid says what its cells compute; ``--executor`` and
    ``--num-workers`` say how they run, with ``--config`` as without it."""
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"methods": ["fedavg"], "scenarios": ["static", "churn"],
                                  "smoke": True}))
    argv = ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--executor", "dist", "--num-workers", "2"]) == 0
    assert executions == [{"executor": "dist", "num_workers": 2}] * 2
    assert "complete" in capsys.readouterr().out


def test_cli_sweep_refuses_bad_execution_before_any_cell(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--methods", "fedavg", "--smoke", "--out-dir", str(out)]
    assert main(argv + ["--num-workers", "-1"]) == 2
    assert "num_workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"methods": ["sgdboost"]},
        {"methods": ["fedavg"], "dataset": "nosuch"},
        {"methods": ["fedavg"], "scale": "huge"},
        {"methods": ["fedavg"], "fl_overrides": {"bogus": 1}},
    ],
    ids=["method", "dataset", "scale", "override"],
)
def test_cli_sweep_rejects_bad_config(tmp_path, capsys, bad):
    """A bad grid fails before any cell runs, and writes nothing."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_sweep_rejects_bad_spec(capsys):
    rc = main(["sweep", "--methods", "sgdboost", "--smoke"])
    assert rc == 2
    assert "bad sweep spec" in capsys.readouterr().err
