"""The claims manifest without training: ids, run specs, the evaluator's
relations and recorded failures on stub histories, and a tiny-scale render."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.claims import CLAIMS, RELATIONS, SEEDS, Claim, evaluate
from repro.experiments.runner import RunSpec
from repro.metrics.history import EvalRecord, RunHistory

ROOT = Path(__file__).resolve().parents[2]
BY_ID = {c.id: c for c in CLAIMS}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _history(accuracies, *, uplink_step=1000):
    h = RunHistory("m", "d")
    for i, acc in enumerate(accuracies):
        h.append(EvalRecord(10.0 * i, i, acc, 1.0 / (i + 1), 0.01, uplink_step * i, 500 * i))
    return h


class _Stub:
    """Stands in for a RunSpec: ``cached`` returns a fixed history."""

    def __init__(self, history):
        self.history = history

    def cached(self):
        return self.history


def _claim(metric, relation, tolerance, **kw):
    runs = {"a": _Stub(_history([0.2, 0.6])), "b": _Stub(_history([0.1, 0.4]))}
    return Claim(
        "stub", "Table 0", "stub", lambda scale, seed: runs, metric, relation, tolerance, **kw
    )


def test_claim_ids_are_unique_and_records_name_seeds():
    assert len(BY_ID) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.relation in RELATIONS, claim.id
        assert set(claim.fails) <= set(SEEDS), claim.id


@pytest.mark.parametrize("scale", ["tiny", "bench", "paper"])
def test_every_claims_runs_build_through_runspec_of(scale, monkeypatch):
    built = []
    of = RunSpec.of.__func__

    def counting(cls, method, dataset, **flat):
        spec, execution = of(cls, method, dataset, **flat)
        built.append(spec)
        return spec, execution

    monkeypatch.setattr(RunSpec, "of", classmethod(counting))
    for claim in CLAIMS:
        for seed in SEEDS:
            built.clear()
            runs = claim.runs(scale, seed)
            assert runs and list(runs.values()) == built, claim.id
            assert {(s.scale, s.seed) for s in built} == {(scale, seed)}, claim.id


@pytest.mark.parametrize(
    ("relation", "at_bound"), [(">", False), (">=", True), ("<", False), ("<=", True)]
)
def test_relations_at_the_bound_and_nan(relation, at_bound):
    claim = _claim(lambda h: 0.0, relation, 0.5)
    assert claim.holds(0.5) is at_bound
    assert claim.holds(math.nan) is False
    below = claim.holds(0.4)
    assert below is (relation in ("<", "<="))
    assert claim.holds(0.6) is (relation in (">", ">="))


def test_evaluate_applies_the_metric_to_the_runs_histories():
    claim = _claim(lambda h: h["a"].best_accuracy() - h["b"].best_accuracy(), ">", 0.1)
    assert evaluate(claim, 0) == pytest.approx(0.2)
    assert claim.holds(evaluate(claim, 0))


def test_precision_3_must_be_the_weakest(monkeypatch):
    claim = BY_ID["fig5.precision3_weakest"]
    best = {"polyline:3": 0.5, "polyline:4": 0.6, "polyline:5": 0.7, "polyline:6": 0.7, None: 0.7}

    def cached(spec, **execution):
        return _history([0.1, best[dict(spec.fl_overrides)["compression"]]])

    monkeypatch.setattr(RunSpec, "cached", cached)
    assert evaluate(claim, 0) == pytest.approx(-0.1) and claim.holds(evaluate(claim, 0))
    # Below the best precision but above another: the old check,
    # best["3"] <= max(best.values()), passed here; the claim does not.
    best["polyline:3"] = 0.65
    assert evaluate(claim, 0) == pytest.approx(0.05)
    assert not claim.holds(evaluate(claim, 0))


def test_bytes_to_target_ratios_treat_never_as_infinite(monkeypatch):
    claim = BY_ID["table2.fedasync_costs_more"]
    reaches = {"fedat": [0.1, 0.9], "fedavg": [0.1, 0.9], "fedasync": [0.1, 0.2]}

    def cached(spec, **execution):
        return _history(reaches.get(spec.method, [0.1, 0.9]))

    monkeypatch.setattr(RunSpec, "cached", cached)
    assert evaluate(claim, 0) == math.inf and claim.holds(math.inf)  # FedAsync never gets there
    reaches["fedat"] = [0.1, 0.2]  # FedAT never gets there either: no ratio, no claim
    assert not claim.holds(evaluate(claim, 0))


#: The claims whose metric is a ratio of two runs' (or two records') values.
RATIO_CLAIMS = (
    "table1.fedat_lowest_variance",
    "table2.fedasync_costs_more",
    "fig2.fedat_first_to_target",
    "fig2.fedat_near_tifl",
    "fig4.fedasync_uploads_more",
    "fig5.bytes_rise_with_precision",
    "fig5.precision4_saves_bytes",
    "fig8.fedat_loss",
    "fig8.fedat_loss_falls",
)


def test_a_zero_denominator_fails_the_claim_instead_of_raising(monkeypatch):
    """FedAT at its target from its first record has uploaded 0 bytes by
    then, as a tiny run can: FedAsync ÷ FedAT is no number, so the claim
    fails (NaN), where the division raised. A non-zero FedAT keeps the
    plain quotient."""
    claim = BY_ID["fig4.fedasync_uploads_more"]
    reaches = {"fedat": [0.9, 0.9], "fedasync": [0.1, 0.9]}

    def cached(spec, **execution):
        return _history(reaches.get(spec.method, [0.9, 0.9]))

    monkeypatch.setattr(RunSpec, "cached", cached)
    assert math.isnan(evaluate(claim, 0)) and not claim.holds(evaluate(claim, 0))
    reaches["fedat"] = [0.1, 0.9]
    assert evaluate(claim, 0) == 1000 / 1000


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_every_claim_evaluates_on_runs_that_read_zero(claim, monkeypatch):
    """Every run at its target from the first record, with no bytes, time,
    loss or variance spent: each ratio claim reads NaN and fails, and no
    claim raises (the tiny-scale render evaluates every one)."""
    zero = RunHistory("m", "d")
    for i in range(2):
        zero.append(EvalRecord(0.0, i, 0.5, 0.0, 0.0, 0, 0))
    monkeypatch.setattr(RunSpec, "cached", lambda spec, **execution: zero)
    value = evaluate(claim, 0)
    if claim.id in RATIO_CLAIMS:
        assert math.isnan(value) and not claim.holds(value)
    else:
        assert not math.isnan(value)


def test_recorded_failures_apply_at_the_recorded_scale_only():
    claim = _claim(lambda h: 0.0, ">", 0.5, fails={1: 0.25})
    assert claim.recorded(1, "bench") == 0.25
    assert claim.recorded(0, "bench") is None
    assert claim.recorded(1, "tiny") is None


def test_verdicts_and_strict_xfail_marks(monkeypatch):
    verdict = _load(ROOT / "scripts" / "make_experiments_md.py").verdict
    claim = _claim(lambda h: 0.0, ">", 0.5, fails={1: 0.25})
    assert verdict(claim, {0: 0.6, 1: 0.25, 2: 0.7}, "bench") == "fails at seed 1 (recorded)"
    assert verdict(claim, {0: 0.6, 1: 0.7, 2: 0.7}, "bench").startswith("BROKEN: recorded")
    assert verdict(claim, {0: 0.1, 1: 0.25, 2: 0.7}, "bench") == "BROKEN: fails at seed 0"
    assert verdict(claim, {0: 0.6, 1: 0.25}, "tiny") == "BROKEN: fails at seed 1"
    assert verdict(_claim(lambda h: 0.0, ">", 0.5), {0: 0.6}, "bench") == "holds"

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    case = _load(ROOT / "benchmarks" / "bench_claims.py")._case
    (mark,) = case(claim, 1).marks
    assert mark.name == "xfail" and mark.kwargs["strict"] is True
    assert "0.25" in mark.kwargs["reason"]
    assert case(claim, 0).marks == ()


def test_tiny_render_of_experiments_md(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(runner_mod, "_MEMORY_CACHE", {})
    script = _load(ROOT / "scripts" / "make_experiments_md.py")
    chosen = [BY_ID["ablation.mistiering"], BY_ID["ablation.lambda_learns"]]
    text = script.render(chosen, (0,), "tiny")
    (tmp_path / "EXPERIMENTS.md").write_text(text)
    assert "Scale `tiny`, seeds 0." in text
    assert "## §2.1 mis-tiering" in text and "## §4.1 proximal λ" in text
    for claim in chosen:
        (row,) = [line for line in text.splitlines() if f"`{claim.id}`" in line]
        assert f"| {claim.relation} {claim.tolerance:g} |" in row


def test_committed_experiments_md_lists_every_claim():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for claim in CLAIMS:
        rows = [line for line in text.splitlines() if line.startswith(f"| `{claim.id}` |")]
        assert len(rows) == 1, claim.id
        assert f"| {claim.relation} {claim.tolerance:g} |" in rows[0], claim.id


def test_import_repro_does_not_load_the_manifest():
    code = "import sys, repro; print('repro.experiments.claims' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"
