"""Cross-scenario figures from a sweep directory (``repro figures``)."""

import shutil
import xml.etree.ElementTree as ET

import pytest

from repro.experiments.figures import (
    render_grouped_bars_svg,
    scenario_matrix,
    write_scenario_figures,
)
from repro.experiments.sweep import SweepRunner, SweepSpec


# --------------------------------------------------------------------- #
# Cross-scenario figures from a sweep directory
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A small completed sweep over a dynamic + static scenario pair."""
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


def test_matrix_skips_leftover_runs_of_another_grid(sweep_dir, tmp_path):
    """A reused directory still holds an earlier grid's runs: the matrix
    reads the current grid's cells only."""
    reused = tmp_path / "reused"
    earlier = SweepSpec(methods=("fedprox",), scenarios=("burst",), smoke=True)
    SweepRunner(earlier, reused).run()
    shutil.copytree(sweep_dir, reused, dirs_exist_ok=True)
    matrix = scenario_matrix(reused)
    assert matrix["methods"] == ["fedavg", "fedat"]
    assert matrix["scenarios"] == ["static", "arrival:0.4"]
    assert matrix["metrics"] == scenario_matrix(sweep_dir)["metrics"]
    with pytest.raises(FileNotFoundError):
        scenario_matrix(tmp_path / "no_such_dir")


def test_population_cells_are_their_own_scenario_groups(tmp_path):
    """Eager and virtual cells of one scenario are never averaged together."""
    spec = SweepSpec(
        methods=("fedavg",),
        populations=(None, 300),
        smoke=True,
        fl_overrides=(("max_rounds", 2), ("eval_every", 1)),
    )
    SweepRunner(spec, tmp_path).run()
    matrix = scenario_matrix(tmp_path)
    assert matrix["scenarios"] == ["static", "static#p300"]
    assert matrix["seeds"] == {"fedavg": {"static": 1, "static#p300": 1}}


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
