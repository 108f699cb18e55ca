"""Cross-scenario figures from sweep checkpoints (``repro figures``)."""

import xml.etree.ElementTree as ET

import pytest

from repro.experiments.figures import (
    load_sweep_cells,
    render_grouped_bars_svg,
    scenario_matrix,
    write_scenario_figures,
)


# --------------------------------------------------------------------- #
# Cross-scenario figures from sweep checkpoints
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A small completed sweep over a dynamic + static scenario pair."""
    from repro.experiments.sweep import SweepRunner, SweepSpec

    out = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(
        methods=("fedavg", "fedat"),
        scenarios=("static", "arrival:0.4"),
        seeds=(0,),
        dataset="sentiment140",
        scale="tiny",
        smoke=True,
    )
    SweepRunner(spec, out).run()
    return out


def test_scenario_matrix_from_checkpoints(sweep_dir):
    cells = load_sweep_cells(sweep_dir)
    assert len(cells) == 4
    matrix = scenario_matrix(sweep_dir)
    # Order follows the sweep spec, not alphabetical sorting.
    assert matrix["methods"] == ["fedavg", "fedat"]
    assert matrix["scenarios"] == ["static", "arrival:0.4"]
    for m in matrix["methods"]:
        for s in matrix["scenarios"]:
            assert 0.0 <= matrix["metrics"]["best_accuracy"][m][s] <= 1.0
            assert matrix["metrics"]["megabytes"][m][s] > 0.0
            assert matrix["seeds"][m][s] == 1
    # A summary.json path inside the directory resolves to the same data.
    assert scenario_matrix(sweep_dir / "summary.json")["methods"] == (
        matrix["methods"]
    )


def test_grouped_bars_svg_structure(sweep_dir):
    matrix = scenario_matrix(sweep_dir)
    svg = render_grouped_bars_svg(matrix, "best_accuracy")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    bars = root.findall(f"{ns}path")
    assert len(bars) == 4  # 2 methods x 2 scenarios
    for bar in bars:  # native tooltips carry the exact values
        assert bar.find(f"{ns}title") is not None
    labels = [t.text for t in root.iter(f"{ns}text")]
    assert "fedavg" in labels and "fedat" in labels  # legend present
    assert any("arrival:0.4" in (t or "") for t in labels)


def test_load_sweep_cells_skips_stale_spec_cells(sweep_dir, tmp_path):
    import json as json_mod
    import shutil

    reused = tmp_path / "reused"
    shutil.copytree(sweep_dir, reused)
    # A leftover cell from a previous grid: same filename shape, different
    # spec key. The loader must not mix it into the matrix.
    stale = json_mod.loads(
        next(reused.glob("fedavg__static__s0.json")).read_text()
    )
    stale["spec_key"] = "0" * 16
    stale["cell"] = {"method": "fedprox", "scenario": "burst", "seed": 0}
    (reused / "fedprox__burst__s0.json").write_text(json_mod.dumps(stale))
    cells = load_sweep_cells(reused)
    assert {(c["method"], c["scenario"]) for c in cells} == {
        ("fedavg", "static"),
        ("fedavg", "arrival:0.4"),
        ("fedat", "static"),
        ("fedat", "arrival:0.4"),
    }
    with pytest.raises(FileNotFoundError):
        load_sweep_cells(tmp_path / "no_such_dir")


def test_write_scenario_figures_emits_svg_and_json(sweep_dir, tmp_path):
    written = write_scenario_figures(sweep_dir, tmp_path / "figs")
    names = {p.name for p in written}
    assert names == {
        "method_x_scenario.json",
        "method_x_scenario_best_accuracy.svg",
        "method_x_scenario_megabytes.svg",
    }
    for p in written:
        assert p.exists() and p.stat().st_size > 0


def test_cli_figures_command(sweep_dir, tmp_path, capsys):
    from repro.cli import main

    out_dir = tmp_path / "cli_figs"
    rc = main(
        ["figures", "--from-checkpoint", str(sweep_dir), "--out-dir", str(out_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "method_x_scenario" in out
    assert (out_dir / "method_x_scenario_best_accuracy.svg").exists()


def test_cli_figures_rejects_missing_checkpoints(tmp_path, capsys):
    from repro.cli import main

    rc = main(
        ["figures", "--from-checkpoint", str(tmp_path / "emptydir"),
         "--out-dir", str(tmp_path / "figs")]
    )
    assert rc == 2
