"""Resumable (method × scenario × seed) sweep runner.

A sweep executes the full grid of methods under every scenario and seed,
reproducing the paper's accuracy/communication comparisons *per dynamic
world* (static, churn, drift, …). Each cell is a :class:`RunSpec`
(:meth:`SweepSpec.run_spec`), read from the run store in the sweep's
out-dir or run and stored there (see :mod:`repro.experiments.runner`).
The store is keyed by content and written atomically, so a killed sweep
resumes with bit-identical merged results, a torn file re-runs, a grid
extended by a seed or a scenario keeps its done cells, and a leftover run
of another grid in a reused out-dir is never read.

The grid says what each cell computes, never how it executes: execution
settings (``executor="dist"`` fans training out to worker processes) are
passed to :meth:`SweepRunner.run`, and neither a stored run nor its key
holds them, so a sweep resumed under another executor finds its cells done.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.experiments.config import knobs_read_by
from repro.experiments.runner import RunSpec
from repro.metrics.report import format_table
from repro.scenario.spec import parse_scenario
from repro.utils.serialization import save_json

__all__ = ["SweepCell", "SweepSpec", "SweepRunner"]

#: Budget overrides applied to every cell when ``smoke`` is on: the whole
#: acceptance grid (2 methods × 3 scenarios × 2 seeds) finishes in seconds.
#: The time budget doubles as the scenario horizon, so churn/drift events
#: (scheduled as fractions of the horizon) genuinely overlap the run.
SMOKE_OVERRIDES: dict[str, Any] = {"max_rounds": 30, "max_time": 45.0}

#: Online re-tier cadence when the spec leaves it on auto: every 20 global
#: updates normally, every 3 under smoke budgets (a 20-round cadence would
#: never fire inside a 30-update smoke run).
DEFAULT_RETIER_INTERVAL = 20
SMOKE_RETIER_INTERVAL = 3


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a (method, scenario, seed[, population]) tuple."""

    method: str
    scenario: str
    seed: int
    #: None = eager pre-partitioned federation; an int runs the cell on a
    #: VirtualPopulation of that many lazily derived clients.
    population: int | None = None

    @property
    def cell_id(self) -> str:
        # Scenario strings may carry composition ('+'), knob (':'), and
        # trace-path ('/', '\\') characters; flatten them all for log lines.
        scenario = self.scenario
        for ch in ":/\\+":
            scenario = scenario.replace(ch, "-")
        suffix = "" if self.population is None else f"__p{self.population}"
        return f"{self.method}__{scenario}__s{self.seed}{suffix}"

    @property
    def group(self) -> str:
        """The cell's scenario group in the summary and the figures: its
        scenario, with ``#p<N>`` on a virtual population of N clients."""
        return self.scenario if self.population is None else f"{self.scenario}#p{self.population}"


@dataclass(frozen=True)
class SweepSpec:
    """Full description of a sweep grid; hashable for resume safety."""

    methods: tuple[str, ...]
    scenarios: tuple[str, ...] = ("static",)
    seeds: tuple[int, ...] = (0,)
    #: Population axis: None = eager federation; an int = VirtualPopulation
    #: of that many clients (the paper-scale 1M-client cells).
    populations: tuple[int | None, ...] = (None,)
    dataset: str = "sentiment140"
    scale: str = "bench"
    classes_per_client: int | None | str = "default"
    #: None = auto (DEFAULT_RETIER_INTERVAL, or SMOKE_RETIER_INTERVAL under
    #: smoke); an explicit value always wins, smoke or not.
    retier_interval: int | None = None
    smoke: bool = False
    #: Extra flat overrides, as sorted (k, v): each cell's method gets the
    #: ones it reads (see knobs_read_by).
    fl_overrides: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for axis in ("methods", "scenarios", "seeds", "populations"):
            if not getattr(self, axis):
                raise ValueError(f"need at least one of {axis}")
        self.key()  # checks every cell's run: method, scenario, dataset, overrides

    def cells(self) -> list[SweepCell]:
        """The grid in deterministic execution order."""
        return [
            SweepCell(method=m, scenario=s, seed=seed, population=pop)
            for m, s, seed, pop in product(
                self.methods, self.scenarios, self.seeds, self.populations
            )
        ]

    @staticmethod
    def from_dict(payload: dict) -> "SweepSpec":
        """Build a spec from a JSON-style dict (committed sweep configs).

        Lists become tuples and ``fl_overrides`` becomes the sorted
        ``(key, value)`` tuple form, so a config file round-trips into the
        same hashable spec the CLI flags would have produced.
        """
        data = dict(payload)
        unknown = set(data) - set(SweepSpec.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sweep config fields: {sorted(unknown)}")
        for key in ("methods", "scenarios", "seeds", "populations"):
            if key in data:
                data[key] = tuple(data[key])
        overrides = data.get("fl_overrides", ())
        if isinstance(overrides, dict):
            data["fl_overrides"] = tuple(sorted(overrides.items()))
        else:
            data["fl_overrides"] = tuple(tuple(pair) for pair in overrides)
        return SweepSpec(**data)

    @staticmethod
    def from_file(path: str | Path) -> "SweepSpec":
        """Load a sweep config JSON file (see ``examples/sweep_*.json``)."""
        return SweepSpec.from_dict(json.loads(Path(path).read_text()))

    def run_spec(self, cell: SweepCell) -> RunSpec:
        """The run one grid point is."""
        fl: dict[str, Any] = dict(self.fl_overrides)
        if self.smoke:
            fl = {**SMOKE_OVERRIDES, **fl}
        fl["scenario"] = cell.scenario
        if not parse_scenario(cell.scenario).is_static:
            # Online re-tiering engages only in dynamic worlds; static cells
            # stay bit-identical to the scenario-free simulator.
            interval = self.retier_interval
            if interval is None:
                interval = SMOKE_RETIER_INTERVAL if self.smoke else DEFAULT_RETIER_INTERVAL
            fl.setdefault("retier_interval", interval)
        return RunSpec.of(
            cell.method,
            self.dataset,
            scale="tiny" if self.smoke else self.scale,
            seed=cell.seed,
            classes_per_client=self.classes_per_client,
            population=cell.population,
            **knobs_read_by(cell.method, fl),
        )[0]

    def key(self) -> str:
        """Digest of the grid's runs in order (see :meth:`RunSpec.key`):
        what every cell computes, never how it executes."""
        runs = [self.run_spec(cell).key() for cell in self.cells()]
        return hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]


class SweepRunner:
    """Executes a :class:`SweepSpec` through the run store in ``out_dir``."""

    def __init__(self, spec: SweepSpec, out_dir: str | Path):
        self.spec = spec
        self.out_dir = Path(out_dir)

    def run(
        self,
        *,
        max_runs: int | None = None,
        log: Callable[[str], None] | None = None,
        **execution,
    ) -> dict:
        """Execute the cells not in the store yet, then aggregate.

        ``max_runs`` bounds how many *new* cells this invocation executes —
        the hook crash-resume tests (and cautious operators) use to stop a
        sweep mid-grid. ``execution`` is how every cell runs, as
        :meth:`RunSpec.run` takes it. Returns the aggregate summary;
        ``complete`` is False when cells remain.
        """
        say = log or (lambda _msg: None)
        # The grid now running: repro figures rebuilds it.
        save_json(self.out_dir / "spec.json", asdict(self.spec))
        cells = self.spec.cells()
        ran = 0
        for i, cell in enumerate(cells):
            run = self.spec.run_spec(cell)
            if run.load(self.out_dir) is not None:
                say(f"[{i + 1}/{len(cells)}] {cell.cell_id}: cached")
                continue
            if max_runs is not None and ran >= max_runs:
                say(f"stopping after {ran} new runs (max-runs reached)")
                break
            history = run.run(**execution)
            run.save(history, self.out_dir)
            ran += 1
            say(
                f"[{i + 1}/{len(cells)}] {cell.cell_id}: "
                f"best_acc={history.best_accuracy():.4f} "
                f"updates={int(history.rounds()[-1])} "
                f"MB={history.total_bytes()[-1] / 1e6:.2f}"
            )
        summary = self.summarize()
        if summary["complete"]:
            save_json(self.out_dir / "summary.json", summary)
        return summary

    def summarize(self) -> dict:
        """Seed-means of the stored cells, one row per method and scenario
        group (:attr:`SweepCell.group`); cells not run yet are skipped."""
        groups: dict = {}
        missing = 0
        for cell in self.spec.cells():
            history = self.spec.run_spec(cell).load(self.out_dir)
            if history is None:
                missing += 1
                continue
            entry = groups.setdefault(f"{cell.method}@{cell.group}", {})
            for k, v in {
                "best_accuracy": history.best_accuracy(),
                "final_accuracy": history.final_accuracy(),
                "accuracy_variance": history.mean_accuracy_variance(),
                "megabytes": float(history.total_bytes()[-1]) / 1e6,
                "updates": int(history.rounds()[-1]),
                "seeds": cell.seed,
            }.items():
                entry.setdefault(k, []).append(v)
        rows = {
            key: {k: (v if k == "seeds" else float(np.mean(v))) for k, v in entry.items()}
            for key, entry in groups.items()
        }
        return {
            "key": self.spec.key(),
            "dataset": self.spec.dataset,
            "scale": "tiny" if self.spec.smoke else self.spec.scale,
            "smoke": self.spec.smoke,
            "cells_total": len(self.spec.cells()),
            "cells_done": len(self.spec.cells()) - missing,
            "complete": missing == 0,
            "rows": rows,
        }

    def format_summary(self, summary: dict | None = None) -> str:
        """Aggregate comparison table, one row per (method, scenario)."""
        summary = summary or self.summarize()
        headers = [
            "method",
            "scenario",
            "seeds",
            "best acc",
            "final acc",
            "acc var",
            "MB",
            "updates",
        ]
        rows = []
        for key in sorted(summary["rows"]):
            method, _, scenario = key.partition("@")
            r = summary["rows"][key]
            rows.append(
                [method, scenario, len(r["seeds"]), f"{r['best_accuracy']:.4f}"]
                + [f"{r['final_accuracy']:.4f}", f"{r['accuracy_variance']:.5f}"]
                + [f"{r['megabytes']:.2f}", f"{r['updates']:.0f}"]
            )
        status = "complete" if summary["complete"] else (
            f"PARTIAL ({summary['cells_done']}/{summary['cells_total']} cells)"
        )
        return (
            f"sweep {summary['key']} — dataset={summary['dataset']} "
            f"scale={summary['scale']} [{status}]\n\n"
            + format_table(headers, rows)
        )
