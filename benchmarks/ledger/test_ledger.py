"""Tests of the perf ledger (run explicitly: ``python -m pytest benchmarks/ledger -q``).

Outside tier-1 ``testpaths`` on purpose: the smoke runs spawn a few dozen
processes and take about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(LEDGER_DIR))
sys.modules.pop("trace", None)  # the sibling trace.py, not the stdlib module

import diff  # noqa: E402
import run  # noqa: E402
import sampling  # noqa: E402
import trace as ledger_trace  # noqa: E402
from workloads import WORKLOADS, rep_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_ledgers(tmp_path_factory) -> list[dict]:
    """Two whole-session smoke ledgers of the same seed."""
    out = []
    for tag in "ab":
        path = tmp_path_factory.mktemp("ledger") / f"smoke_{tag}.json"
        done = _run("--smoke", "--seed", "3", "--out", str(path))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        out.append(json.loads(path.read_text()))
    return out


# --------------------------------------------------------------------------- #
# BENCHMARK.json against the contract and against run.py
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_tables_in_run_py():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def test_benchmark_json_stays_inside_the_contract_limits():
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    total_runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert total_runs * 35 < 3420, "a run may take ~35 s on average, no more"


# --------------------------------------------------------------------------- #
# Smoke ledger
# --------------------------------------------------------------------------- #
def test_smoke_ledger_reports_every_declared_metric_with_its_unit(smoke_ledgers):
    ledger = smoke_ledgers[0]
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for name, workload in ledger["workloads"].items():
        assert workload["problems"] == [], name
        assert workload["ops_failed"] == 0 and workload["ops_attempted"] > 0
        assert workload["end_to_end"]["failed_share"]["value"] == 0
        for section, declared in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            for metric in BENCHMARK[declared]:
                got = workload[section][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float)), (name, metric["name"])
    for name, cell in ledger["cells"].items():
        assert NAME.fullmatch(name)
        assert cell["value"] is not None or cell["reason"]
    expected = {"cpu_count", "python", "numpy", "blas", "kernel", "load_start", "load_end"}
    assert expected | {"calib_ms"} <= set(ledger["machine"])


def test_exact_metrics_and_counts_repeat_across_two_smoke_runs(smoke_ledgers):
    a, b = smoke_ledgers
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["fingerprint"] == wb["fingerprint"]
        for metric in diff.EXACT:
            assert wa["end_to_end"][metric]["value"] == wb["end_to_end"][metric]["value"]
        for metric, unit, _ in run.PER_LAYER:
            if unit == "count" and not metric.startswith("machine."):
                assert wa["per_layer"][metric]["value"] == wb["per_layer"][metric]["value"], metric
    rows = diff.compare(a, b)
    assert not [r for r in rows if r["verdict"] == "CHANGED"]
    assert "within bound" in diff.render(rows) or "unresolved" in diff.render(rows)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract_line(trace):
    args = ("--workload", "cnn_serial", "--seed", "5", "--seconds", "1", "--smoke")
    done = _run(*args, "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the ledger: no result, exit != 0."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for source in LEDGER_DIR.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "cnn_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_repetition_seeds_never_collide_between_runs():
    seeds = {rep_seed(seed, index) for seed in range(12) for index in range(64)}
    assert len(seeds) == 12 * 64
    with pytest.raises(ValueError):
        rep_seed(0, 64)


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _span(sid, name, start, end, parent, rep=0):
    return (sid, name, float(start), float(end), parent, rep)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span(2, "nn.train", 1, 4, 1),
        _span(3, "nn.train", 4, 6, 1),  # sibling of 2
        _span(1, "exec.dispatch", 0, 7, 0),  # parent of 2 and 3
        _span(4, "metrics.eval", 7, 9, 0),
        _span(0, ledger_trace.ROOT, 0, 10, -1),
    ]
    own = ledger_trace.self_times(spans)
    assert own == {2: 3.0, 3: 2.0, 1: 2.0, 4: 2.0, 0: 1.0}
    assert sum(own.values()) == 10.0  # self times partition the root


def test_leaf_records_count_against_their_parent_and_coverage():
    spans = [_span(1, "sim.latency", 2, 6, 0), _span(0, ledger_trace.ROOT, 0, 10, -1)]
    leaves = {(1, "scenario.query", 0): [40, 1.5], (0, "sim.events", 0): [10, 0.5]}
    summary = ledger_trace.summarize_spans(spans, leaves)["repetitions"][0]
    run_phase = summary["run"]
    assert run_phase["sim.latency"]["self_s"] == 2.5
    query = {"self_s": 1.5, "total_s": 1.5, "calls": 40, "entries": 40}
    assert run_phase["scenario.query"] == query
    assert run_phase[ledger_trace.ROOT]["self_s"] == 5.5
    layers = run.layers_of_repetition(summary)
    assert layers["core.loop_self_s"] == 5.5
    assert layers["core.loop_self_share"] == pytest.approx(0.55)
    assert layers["trace.coverage"] == pytest.approx(0.45)
    assert layers["scenario.query_calls"] == 40


def test_same_named_nested_spans_are_one_entry_and_setup_is_its_own_phase():
    spans = [
        _span(2, "tiering.retier", 2, 3, 1),  # from_latencies inside retier
        _span(1, "tiering.retier", 1, 4, 0),
        _span(0, ledger_trace.ROOT, 0, 5, -1),
        _span(3, "scenario.compile", 10, 12, -1),  # outside any run root
    ]
    summary = ledger_trace.summarize_spans(spans)["repetitions"][0]
    retier = summary["run"]["tiering.retier"]
    assert retier == {"calls": 2, "entries": 1, "self_s": 3.0, "total_s": 3.0}
    assert summary["setup"]["scenario.compile"]["total_s"] == 2.0
    assert "scenario.compile" not in summary["run"]


def test_tracer_wrappers_are_removed_and_record_parents():
    from repro.sim.events import EventQueue

    original = EventQueue.pop
    tracer = ledger_trace.Tracer()
    with ledger_trace.installed(tracer):
        assert EventQueue.pop is not original
        with tracer.span("outer"):
            queue = EventQueue()
            queue.schedule_at(1.0, "x")
            assert queue.pop().payload == "x"
    assert EventQueue.pop is original
    outer = [s for s in tracer.spans if s[1] == "outer"]
    assert len(outer) == 1
    assert list(tracer.leaves) == [(outer[0][0], "sim.events", 0)]
    assert tracer.leaves[(outer[0][0], "sim.events", 0)][0] == 2  # schedule_at + pop
    # Restored even when the traced block raises.
    with pytest.raises(RuntimeError):
        with ledger_trace.installed(tracer):
            raise RuntimeError("boom")
    assert EventQueue.pop is original


# --------------------------------------------------------------------------- #
# Levels, the gate, normalisation
# --------------------------------------------------------------------------- #
def _synthetic_readings():
    """60 readings around an 8.1 ms floor with a 12-reading slow regime in
    which medians run 1.5-1.7x while the fastest kernels still touch the floor."""
    jitter = [1.00, 1.03, 0.99, 1.06, 1.01, 1.08, 0.98, 1.04]
    floor = 0.0081
    readings = [(floor * 1.02 * max(1.0, j), floor * 1.07 * j) for j in jitter * 8][:60]
    for i in range(20, 32):
        readings[i] = (floor * (1.0 if i == 25 else 1.05), floor * 1.6 * jitter[i % 8])
    return floor, readings


def test_gate_discards_the_slow_regime_of_a_synthetic_probe_series():
    floor, readings = _synthetic_readings()
    assert sampling.floor_of(readings) == pytest.approx(floor)  # reached inside the regime
    brackets = list(zip(readings[:-1], readings[1:]))
    levels = [sampling.level_of(before, after, floor) for before, after in brackets]
    kept = [i for i, level in enumerate(levels) if level <= sampling.GATE_LEVEL]
    assert all(i < 20 or i >= 31 for i in kept)  # nothing inside the regime survives
    assert len(kept) == len(brackets) - 11  # and nothing outside it is lost
    assert all(level <= 1.2 for level in levels[:19] + levels[32:])


def test_normalisation_recovers_the_quiet_rate_under_the_fitted_law():
    quiet_rate, exponent = 140.0, 0.65
    for level in (1.0, 1.08, 1.25, 1.4):
        observed = quiet_rate / level**exponent  # wall time follows level ** exponent
        assert sampling.normalise(observed, level, exponent) == pytest.approx(quiet_rate)
    # A plain ratio to the probe (exponent 1) over-corrects: worse than raw.
    observed = quiet_rate / 1.4**exponent
    assert abs(sampling.normalise(observed, 1.4, 1.0) - quiet_rate) > abs(observed - quiet_rate) / 2
    assert sampling.normalise(100.0, 0.97, exponent) == 100.0  # never below the floor


def test_settle_returns_within_its_cap():
    readings = sampling.settle(cap_seconds=0.5)
    assert readings and all(0 < fastest <= median for fastest, median in readings)


def test_summaries():
    s = sampling.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["n"], s["min"]) == (3.0, 5, 1.0) and s["iqr"] == pytest.approx(3.0)
    assert "p90" not in s and "p90" in sampling.summarize(list(range(1, 201)))
    assert sampling.spread([10.0, 10.0, 10.0]) == 0.0


# --------------------------------------------------------------------------- #
# diff.py verdicts
# --------------------------------------------------------------------------- #
def _ledger(rate, *, iqr=2.0, noisy=False, calib=8.1, seed=0, uplink=1.0):
    metric = lambda value, unit, **extra: {"value": value, "unit": unit, **extra}  # noqa: E731
    end_to_end = {
        "setup_s": metric(0.30, "s", n=8, iqr=0.01),
        "client_rounds_per_s": metric(rate, "1/s", n=12, iqr=iqr),
        "peak_rss_mb": metric(60.0, "MB", n=4),
        "uplink_mb": metric(uplink, "MB"),
        "final_loss": metric(2.5, "nats"),
        "final_accuracy": metric(0.2, "fraction"),
        "failed_share": metric(0.0, "fraction"),
    }
    workload = {"end_to_end": end_to_end, "noisy": noisy, "fingerprint": f"{uplink:.3f}" * 4}
    machine = {"calib_ms": calib}
    return {"seed": seed, "smoke": False, "machine": machine, "workloads": {"w": workload}}


def _verdict(a, b, metric="client_rounds_per_s"):
    return next(r["verdict"] for r in diff.compare(a, b) if r["metric"] == metric)


def test_diff_verdicts():
    base = _ledger(100.0)
    bound = {m[0]: m[3] for m in run.END_TO_END}["client_rounds_per_s"]
    worse, better = 100.0 * (1 - bound - 0.05), 100.0 * (1 + bound + 0.05)
    assert _verdict(base, _ledger(97.0)) == "within bound"
    assert _verdict(base, _ledger(worse)) == "worse beyond bound"
    assert _verdict(base, _ledger(better)) == "better"
    assert _verdict(base, _ledger(worse, noisy=True)) == "unresolved"
    assert _verdict(base, _ledger(worse, calib=10.0)) == "unresolved"
    assert _verdict(base, _ledger(97.0, iqr=500.0 * bound)) == "unresolved"
    assert _verdict(base, _ledger(100.0, uplink=1.01), "uplink_mb") == "CHANGED"
    assert _verdict(base, _ledger(100.0), "uplink_mb") == "same"
    # Different seeds: bytes are compared against their bound, not for equality.
    assert _verdict(base, _ledger(100.0, uplink=1.01, seed=1), "uplink_mb") == "within bound"
    assert diff.agree(diff.compare(base, _ledger(101.0)))
    assert not diff.agree(diff.compare(base, _ledger(better)))
