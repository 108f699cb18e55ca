"""The population axis through the runner, sweep grid, and CLI parsing."""

import pytest

from repro.cli import _parse_populations
from repro.experiments.runner import build_virtual_population, run_experiment
from repro.experiments.sweep import SweepCell, SweepRunner, SweepSpec
from repro.population.virtual import VirtualPopulation


class TestRunner:
    def test_population_run_records_meta_and_eval_subset(self):
        h = run_experiment(
            "fedavg", "sentiment140", scale="tiny", seed=1,
            population=2000, max_rounds=2, eval_every=1,
        )
        assert h.meta["population"] == 2000
        assert h.records

    def test_population_run_is_reproducible(self):
        kw = dict(scale="tiny", seed=2, population=1500, max_rounds=3)
        a = run_experiment("fedat", "sentiment140", **kw)
        b = run_experiment("fedat", "sentiment140", **kw)
        da, db = a.to_dict(), b.to_dict()
        da["meta"].pop("phase_seconds", None)
        db["meta"].pop("phase_seconds", None)
        assert da == db

    def test_build_virtual_population_uses_dataset_defaults(self):
        pop = build_virtual_population("sentiment140", 500, "tiny", 0)
        assert isinstance(pop, VirtualPopulation)
        assert pop.num_clients == 500
        assert pop.classes_per_client == 2  # sentiment140's spec default
        assert pop.name == "sentiment140"

    def test_explicit_eval_clients_wins(self):
        h = run_experiment(
            "fedavg", "sentiment140", scale="tiny", seed=0,
            population=1000, max_rounds=1, eval_clients=7,
        )
        assert h.records


class TestSweepGrid:
    def test_default_axis_is_eager(self):
        spec = SweepSpec(methods=("fedavg",))
        assert all(c.population is None for c in spec.cells())
        assert spec.cells()[0].cell_id == "fedavg__static__s0"

    def test_population_cells_and_ids(self):
        spec = SweepSpec(
            methods=("fedavg",), seeds=(0, 1), populations=(None, 5000)
        )
        cells = spec.cells()
        assert len(cells) == 4
        assert {c.cell_id for c in cells} == {
            "fedavg__static__s0",
            "fedavg__static__s0__p5000",
            "fedavg__static__s1",
            "fedavg__static__s1__p5000",
        }

    def test_from_dict_roundtrip(self):
        spec = SweepSpec.from_dict(
            {"methods": ["fedavg"], "populations": [None, 1000000]}
        )
        assert spec.populations == (None, 1000000)

    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            SweepSpec(methods=("fedavg",), populations=())
        with pytest.raises(ValueError, match="population"):
            SweepSpec(methods=("fedavg",), populations=(0,))

    def test_smoke_sweep_with_population_cell(self, tmp_path):
        spec = SweepSpec(
            methods=("fedavg",),
            scenarios=("static",),
            seeds=(0,),
            populations=(None, 300),
            smoke=True,
            fl_overrides=(("max_rounds", 2), ("eval_every", 1)),
        )
        runner = SweepRunner(spec, tmp_path)
        summary = runner.run()
        assert summary["complete"]
        assert set(summary["rows"]) == {"fedavg@static", "fedavg@static#p300"}
        # Resume path: everything cached, histories identical.
        again = SweepRunner(spec, tmp_path).run()
        assert again == summary

    def test_population_cell_checkpoint_filename(self, tmp_path):
        spec = SweepSpec(
            methods=("fedavg",), populations=(250,), smoke=True,
            fl_overrides=(("max_rounds", 1),),
        )
        SweepRunner(spec, tmp_path).run()
        cell = SweepCell(method="fedavg", scenario="static", seed=0, population=250)
        run = spec.run_spec(cell)
        # The population keys the run, so its file is not the eager cell's.
        eager = spec.run_spec(SweepCell(method="fedavg", scenario="static", seed=0))
        assert run.key() != eager.key()
        stored = {p.name for p in tmp_path.glob("*.json")}
        assert stored == {f"{run.key()}.json", "spec.json", "summary.json"}
        assert run.load(tmp_path).meta["population"] == 250


class TestCLIParsing:
    def test_parse_populations(self):
        assert _parse_populations("none,50000") == (None, 50000)
        assert _parse_populations("1000000") == (1000000,)
        assert _parse_populations("null") == (None,)

    def test_parse_populations_rejects_empty(self):
        with pytest.raises(ValueError):
            _parse_populations(",")
