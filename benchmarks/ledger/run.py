#!/usr/bin/env python3
"""Perf ledger driver: ``python benchmarks/ledger/run.py [--workload NAME]``.

One closed loop: one child process at a time, work completed per second at
a stated input size. With ``--workload`` it measures that workload — the
end-to-end metrics (``--trace 0``) or the per-layer span metrics from a
traced child (``--trace 1``) — and prints, as its last line, the one-line
JSON result the PR driver reads. Without ``--workload`` it runs the whole
session: all four workloads round-robin (one child per workload per round,
so each workload's samples are spread over the session), then one traced
child per workload, then the cells; ``--out`` writes the ledger JSON.

See README.md for the sampling protocol and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sampling
from workloads import CHILD_MARKER, LEDGER_DIR, SRC_DIR, WORKLOADS, child_env

REPO_ROOT = LEDGER_DIR.parents[1]

#: Fresh child processes per workload run, and extra set-up-only children.
CHILDREN = 3
SETUP_ONLY_CHILDREN = 2
#: What one repetition is tuned to last on the reference box (seconds).
REPETITION_SECONDS = 1.0
#: A workload with a smaller share of its samples at or below the gate level
#: is flagged ``noisy``.
MIN_QUIET_SHARE = 2 / 3
DEFAULT_SECONDS = 9
#: How long the driver waits for the probe to settle before a run (seconds).
SETTLE_SECONDS = 2.5
#: Set-up time follows ``level ** SETUP_EXPONENT`` (100–154 fresh processes
#: per workload at levels 1.0–2.1 fitted 0.6–1.06; one value for all).
SETUP_EXPONENT = 1.0
CHILD_TIMEOUT = 150.0

# (name, unit, better, bound); bound = share of the parent's median by which
# the metric may worsen. BENCHMARK.json repeats this table for the PR driver.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("client_rounds_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.08),
    ("uplink_mb", "MB", "lower", 0.02),
    ("final_loss", "nats", "lower", 0.15),
)
#: Reported in the ledger beside the table above and compared for equality by
#: diff.py, but not gated by the PR driver (see README "Driver contract").
EXACT_EXTRAS = (("final_accuracy", "fraction", "higher"), ("failed_share", "fraction", "lower"))

PER_LAYER = (
    ("experiments.build_s", "s", "lower"),
    ("population.bind_s", "s", "lower"),
    ("population.client_s", "s", "lower"),
    ("population.client_calls", "count", "lower"),
    ("population.cache_hit_ratio", "fraction", "higher"),
    ("scenario.compile_s", "s", "lower"),
    ("scenario.query_s", "s", "lower"),
    ("scenario.query_calls", "count", "lower"),
    ("tiering.profile_s", "s", "lower"),
    ("tiering.retier_s", "s", "lower"),
    ("tiering.retier_calls", "count", "lower"),
    ("sim.events_s", "s", "lower"),
    ("sim.events_calls", "count", "lower"),
    ("sim.latency_s", "s", "lower"),
    ("exec.start_s", "s", "lower"),
    ("exec.close_s", "s", "lower"),
    ("exec.worker_rss_mb", "MB", "lower"),
    ("exec.dispatch_s", "s", "lower"),
    ("exec.dispatch_calls", "count", "lower"),
    ("exec.dispatch_p50_ms", "ms", "lower"),
    ("exec.dispatch_p90_ms", "ms", "lower"),
    ("exec.retries", "count", "lower"),
    ("exec.degraded_chunks", "count", "lower"),
    ("nn.train_s", "s", "lower"),
    ("nn.client_round_ms", "ms", "lower"),
    ("compression.encode_s", "s", "lower"),
    ("compression.decode_s", "s", "lower"),
    ("compression.encode_calls", "count", "lower"),
    ("compression.bytes_per_weight", "B", "lower"),
    ("compression.downlink_cache_hit_ratio", "fraction", "higher"),
    ("core.aggregate_s", "s", "lower"),
    ("core.aggregate_calls", "count", "lower"),
    ("core.loop_self_s", "s", "lower"),
    ("core.loop_self_share", "fraction", "lower"),
    ("metrics.eval_s", "s", "lower"),
    ("metrics.eval_calls", "count", "lower"),
    ("metrics.eval_ms", "ms", "lower"),
    ("trace.overhead_ratio", "fraction", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("machine.calib_ms", "ms", "lower"),
    ("machine.samples_above_gate", "count", "lower"),
)


def machine_fingerprint() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older NumPy: no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "load_start": os.getloadavg(),
    }


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
def spawn(spec: dict) -> dict:
    """Run one measuring child to completion; never leaves a process behind."""
    spec = {**spec, "spawned_at": time.time()}
    proc = subprocess.Popen(
        [sys.executable, str(LEDGER_DIR / "workloads.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=REPO_ROOT,
        start_new_session=True,  # its own group, so dist workers die with it
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        error = None if proc.returncode == 0 else f"child exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        stdout, error = "", f"child timed out after {CHILD_TIMEOUT:.0f} s"
    finally:  # also on SIGTERM/KeyboardInterrupt (see main)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    for line in stdout.splitlines():
        if line.startswith(CHILD_MARKER):
            return {"spec": spec, **json.loads(line[len(CHILD_MARKER) :])}
    return {"spec": spec, "error": error or "child printed no result", "reps": [], "probes": []}


def plan(name: str, seed: int, seconds: float, *, smoke: bool, trace: bool, spans_out=None):
    """Child specs of one workload run, in execution order."""
    base = {"workload": name, "seed": seed, "smoke": smoke}
    if trace:
        pairs = 1 if smoke else max(1, round(seconds / (4 * REPETITION_SECONDS)))
        return [{**base, "kind": "traced", "indices": list(range(pairs)), "spans_out": spans_out}]
    children = 1 if smoke else CHILDREN
    per_child = 1 if smoke else max(1, min(8, round(seconds / (children * REPETITION_SECONDS))))
    timed = [
        {**base, "kind": "timed", "indices": list(range(i * per_child, (i + 1) * per_child))}
        for i in range(children)
    ]
    setups = [{**base, "kind": "setup", "indices": [0]}] * (1 if smoke else SETUP_ONLY_CHILDREN)
    # Alternate, so set-up samples are spread over the run like the timed ones.
    order = []
    for i in range(max(len(timed), len(setups))):
        order += timed[i : i + 1] + setups[i : i + 1]
    return order


# --------------------------------------------------------------------------- #
# Folding child reports into metrics
# --------------------------------------------------------------------------- #
def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def verify(children: list[dict]) -> dict:
    """Output checks over every repetition the children ran.

    Marks repetitions whose fingerprint differs from another process's run
    of the same seed, then counts client rounds attempted and failed (every
    round of a repetition that raised, timed out, lost fingerprint agreement
    or degraded a chunk counts as failed).
    """
    problems = [f"{c['spec']['kind']} child: {c['error']}" for c in children if "error" in c]
    fingerprints: dict[int, str] = {}
    reps = [r for c in children for r in c["reps"]]
    nominal = max((r.get("ops", 0) for r in reps), default=0) or 1
    attempted = failed = 0
    for rep in reps:
        ops = rep.get("ops", nominal)
        attempted += ops
        fp = rep.get("fingerprint")
        if fp is not None and fingerprints.setdefault(rep["index"], fp) != fp:
            rep["problems"].append(f"fingerprint differs between processes (index {rep['index']})")
        if rep["problems"]:
            failed += ops
            problems += [f"rep {rep['index']} ({rep['role']}): {p}" for p in rep["problems"]]
    for child in children:  # a child that died never reported its repetitions
        if "error" in child and child["spec"]["kind"] != "setup":
            lost = nominal * (1 + len(child["spec"]["indices"]))
            attempted += lost
            failed += lost
    digest = hashlib.sha256("".join(fingerprints[i] for i in sorted(fingerprints)).encode())
    return {
        "ops_attempted": max(1, attempted),
        "ops_failed": failed,
        "problems": problems,
        "fingerprint": digest.hexdigest(),
    }


def _level(rep: dict, floor: float) -> float:
    return sampling.level_of(rep["probe_before"], rep["probe_after"], floor)


def fold_end_to_end(name: str, children: list[dict], floor: float, checks: dict) -> dict:
    """End-to-end metrics of one workload from its timed and set-up children."""
    exponent = WORKLOADS[name].regime_exponent
    timed = [r for c in children for r in c["reps"] if r["role"] == "timed" and "wall_s" in r]
    by_index = {r["index"]: r for r in timed}
    kept = {i: r for i, r in by_index.items() if not r["problems"]}
    # A sample above the gate is still used, normalised — a slow regime can
    # outlast any run the time budget allows — but it counts against the
    # workload's ``noisy`` flag.
    quiet = [r for r in kept.values() if _level(r, floor) <= sampling.GATE_LEVEL]
    raw = {i: r["client_rounds"] / r["wall_s"] for i, r in kept.items()}
    rates = {i: sampling.normalise(raw[i], _level(r, floor), exponent) for i, r in kept.items()}
    rate = sampling.summarize(list(rates.values()))
    levels = [_level(r, floor) for r in kept.values()]
    setup = sampling.summarize(
        [
            # A child's first reading follows its set-up directly.
            c["setup_s"] / sampling.normalise(1.0, c["probes"][0][1] / floor, SETUP_EXPONENT)
            for c in children
            if "setup_s" in c
        ]
    )
    rss = [c["rss_mb"] for c in children if c.get("kind") == "timed"]
    exact = {
        # Means over every repetition index of the run: exact given --seed.
        key: statistics.fmean(r[key] for r in by_index.values()) if by_index else None
        for key in ("uplink_mb", "final_loss", "final_accuracy")
    }
    metrics = {
        "setup_s": _metric(setup.pop("median"), "s", **setup),
        "client_rounds_per_s": _metric(
            rate.pop("median"),
            "1/s",
            **rate,
            raw_median=statistics.median(raw.values()) if raw else None,
            level_median=statistics.median(levels) if levels else None,
            samples=rates,
        ),
        "peak_rss_mb": _metric(max(rss, default=None), "MB", n=len(rss)),
        "uplink_mb": _metric(exact["uplink_mb"], "MB", n=len(by_index)),
        "final_loss": _metric(exact["final_loss"], "nats", n=len(by_index)),
        "final_accuracy": _metric(exact["final_accuracy"], "fraction", n=len(by_index)),
        "failed_share": _metric(checks["ops_failed"] / checks["ops_attempted"], "fraction"),
    }
    return {
        "metrics": metrics,
        "samples_above_gate": len(kept) - len(quiet),
        "noisy": len(quiet) < MIN_QUIET_SHARE * max(1, len(by_index)),
    }


def _layer(phase: dict, name: str, key: str) -> float:
    return phase.get(name, {}).get(key, 0.0)


def layers_of_repetition(rep_trace: dict) -> dict:
    """Per-layer metrics of one traced repetition (seconds, counts, ratios)."""
    run, setup, root = rep_trace["run"], rep_trace["setup"], rep_trace["root_s"]
    lookups = _layer(run, "population.client", "entries")
    send_downs = _layer(run, "compression.send_down", "calls")
    train_calls = _layer(run, "nn.train", "calls")
    eval_calls = _layer(run, "metrics.eval", "calls")
    loop_self = _layer(run, "core.run", "self_s")
    core_self = loop_self + _layer(run, "core.aggregate", "self_s")

    def per_call_ms(name: str, calls: float) -> float:
        return 1e3 * _layer(run, name, "self_s") / calls if calls else 0.0

    def hit_ratio(misses: float, lookups: float) -> float:
        return 1.0 - misses / lookups if lookups else 1.0

    return {
        "experiments.build_s": _layer(setup, "experiments.build", "total_s"),
        "population.bind_s": _layer(setup, "population.bind", "total_s"),
        "population.client_s": _layer(run, "population.client", "self_s")
        + _layer(run, "population.derive", "self_s"),
        "population.client_calls": lookups,
        "population.cache_hit_ratio": hit_ratio(_layer(run, "population.derive", "calls"), lookups),
        "scenario.compile_s": _layer(setup, "scenario.compile", "total_s"),
        "scenario.query_s": _layer(run, "scenario.query", "self_s"),
        "scenario.query_calls": _layer(run, "scenario.query", "calls"),
        "tiering.profile_s": _layer(setup, "tiering.profile", "total_s"),
        "tiering.retier_s": _layer(run, "tiering.retier", "self_s"),
        "tiering.retier_calls": _layer(run, "tiering.retier", "entries"),
        "sim.events_s": _layer(run, "sim.events", "self_s"),
        "sim.events_calls": _layer(run, "sim.events", "calls"),
        "sim.latency_s": _layer(run, "sim.latency", "self_s"),
        "exec.start_s": _layer(setup, "exec.start", "total_s"),
        "exec.close_s": _layer(run, "exec.close", "self_s"),
        "exec.dispatch_s": _layer(run, "exec.dispatch", "self_s"),
        "exec.dispatch_calls": _layer(run, "exec.dispatch", "entries"),
        "nn.train_s": _layer(run, "nn.train", "self_s"),
        "nn.client_round_ms": per_call_ms("nn.train", train_calls),
        "compression.encode_s": _layer(run, "compression.encode", "self_s"),
        "compression.decode_s": _layer(run, "compression.decode", "self_s"),
        "compression.encode_calls": _layer(run, "compression.encode", "calls"),
        "compression.downlink_cache_hit_ratio": hit_ratio(
            rep_trace["encodes_in_send_down"], send_downs
        ),
        "core.aggregate_s": _layer(run, "core.aggregate", "self_s"),
        "core.aggregate_calls": _layer(run, "core.aggregate", "entries"),
        "core.loop_self_s": loop_self,
        "core.loop_self_share": loop_self / root if root else 0.0,
        "metrics.eval_s": _layer(run, "metrics.eval", "self_s"),
        "metrics.eval_calls": eval_calls,
        "metrics.eval_ms": per_call_ms("metrics.eval", eval_calls),
        "trace.coverage": 1.0 - core_self / root if root else 0.0,
    }


def fold_layers(child: dict, floor: float, probes: list) -> dict:
    """Per-layer metrics of one workload from its traced child: means over
    the traced repetitions, dispatch percentiles pooled over them."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    values = dict.fromkeys(units, 0.0)
    trace = child.get("trace", {})
    per_rep = [layers_of_repetition(t) for t in trace.get("repetitions", {}).values()]
    for key in per_rep[0] if per_rep else ():
        values[key] = statistics.fmean(r[key] for r in per_rep)
    reps = [r for r in child["reps"] if "wall_s" in r]
    traced = {r["index"]: r for r in reps if r["role"] == "traced"}
    untraced = [r for r in reps if r["role"] == "untraced"]
    base = {r["index"]: r for r in untraced}  # the last attempt ran next to its traced twin
    paired = [i for i in traced if i in base]
    if paired:
        values["trace.overhead_ratio"] = (
            sum(traced[i]["wall_s"] for i in paired) / sum(base[i]["wall_s"] for i in paired) - 1.0
        )
    for key, source in (
        ("compression.bytes_per_weight", "bytes_per_weight"),
        ("exec.retries", "retries"),
        ("exec.degraded_chunks", "degraded_chunks"),
    ):
        if traced:
            values[key] = statistics.fmean(r[source] for r in traced.values())
    dispatch = trace.get("dispatch_ms", [])
    if dispatch:
        values["exec.dispatch_p50_ms"] = statistics.median(dispatch)
        values["exec.dispatch_p90_ms"] = sampling.percentile(dispatch, 0.90)
    values["exec.worker_rss_mb"] = child.get("worker_rss_mb", 0.0)
    values["machine.calib_ms"] = 1e3 * floor
    values["machine.samples_above_gate"] = sum(
        _level(r, floor) > sampling.GATE_LEVEL for r in untraced
    )
    return {
        "metrics": {name: _metric(values[name], units[name]) for name in units},
        "dispatch_samples": len(dispatch),
        "level_median": statistics.median(median for _, median in probes) / floor,
        "problems": [] if per_rep else ["traced child recorded no spans"],
    }


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
def require_cores(names) -> None:
    cores = os.cpu_count() or 1
    for name in names:
        if WORKLOADS[name].needs_cores > cores:
            sys.exit(
                f"ledger: workload {name!r} runs {WORKLOADS[name].needs_cores} worker processes "
                f"but this machine has {cores} CPU; refusing to report a meaningless number"
            )


def _settle(smoke: bool) -> list:
    return sampling.settle(cap_seconds=1.0 if smoke else SETTLE_SECONDS)


def _readings(calibration, children) -> list:
    return calibration + [tuple(p) for c in children for p in c["probes"]]


def run_workload(args) -> dict:
    """One workload, one mode: what the PR driver invokes."""
    name = args.workload
    require_cores([name])
    started = time.time()
    calibration = _settle(args.smoke)
    specs = plan(
        name,
        args.seed,
        args.seconds,
        smoke=args.smoke,
        trace=bool(args.trace),
        spans_out=args.spans_out,
    )
    children = [spawn(spec) for spec in specs]
    probes = _readings(calibration, children)
    floor = sampling.floor_of(probes)
    checks = verify(children)
    if args.trace:
        folded = fold_layers(children[0], floor, probes)
        checks["problems"] += folded.pop("problems")
    else:
        folded = fold_end_to_end(name, children, floor, checks)
    return {
        **checks,
        **folded,
        "children": children,
        "probe_floor_ms": 1e3 * floor,
        "elapsed_s": time.time() - started,
    }


def run_session(args) -> dict:
    """All workloads round-robin, then the traced children, then the cells."""
    import cells

    names = list(WORKLOADS)
    require_cores(names)
    started = time.time()
    calibration = _settle(args.smoke)
    plans = {n: plan(n, args.seed, args.seconds, smoke=args.smoke, trace=False) for n in names}
    children: dict[str, list] = {n: [] for n in names}
    for i in range(max(map(len, plans.values()))):
        for n in names:
            if i < len(plans[n]):
                children[n].append(spawn(plans[n][i]))
    traced = {}
    for n in names:
        traced[n] = spawn(plan(n, args.seed, args.seconds, smoke=args.smoke, trace=True)[0])
    probes = _readings(calibration, [c for n in names for c in (*children[n], traced[n])])
    floor = sampling.floor_of(probes)
    out = {}
    for n in names:
        # The traced child re-runs the first timed child's seeds, so verify()
        # over both also checks traced == untraced across processes.
        checks = verify([*children[n], traced[n]])
        e2e = fold_end_to_end(n, children[n], floor, checks)
        layers = fold_layers(traced[n], floor, probes)
        workload = WORKLOADS[n]
        out[n] = {
            "why": workload.why,
            "config": {
                "method": workload.method,
                "dataset": workload.dataset,
                "population": workload.population,
                "regime_exponent": workload.regime_exponent,
                **workload.config,
            },
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
            "noisy": e2e["noisy"],
            "samples_above_gate": e2e["samples_above_gate"],
            **checks,
            "problems": checks["problems"] + layers["problems"],
        }
    cell_results = cells.run_cells(smoke=args.smoke, floor=floor)
    return {
        "workloads": out,
        "cells": cell_results,
        "probe_floor_ms": 1e3 * floor,
        "probe_level_median": statistics.median(median for _, median in probes) / floor,
        "elapsed_s": time.time() - started,
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n== {title}")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        extra = " ".join(
            f"{k}={m[k]:.4g}" if isinstance(m[k], float) else f"{k}={m[k]}"
            for k in ("n", "iqr", "min", "p90", "raw_median", "level_median", "noisy", "reason")
            if m.get(k) is not None
        )
        print(f"  {name:<40} {value:>12} {m['unit']:<9} {extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seeds every generated input")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS, help="timed seconds per workload run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one child, one sample")
    parser.add_argument("--spans-out", help="with --trace 1: dump raw spans as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC_DIR / "repro").is_dir():
        print(f"ledger: no program to measure ({SRC_DIR / 'repro'} is missing)", file=sys.stderr)
        return 2
    # Die like Ctrl-C on SIGTERM, so spawn()'s ``finally`` reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    machine = machine_fingerprint()
    ledger = {"schema": 1, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}
    metrics = {}
    if args.workload is None:
        ledger.update(run_session(args))
        for name, w in ledger["workloads"].items():
            flag = "  [noisy]" if w["noisy"] else ""
            title = f"{name} end to end{flag}  history {w['fingerprint'][:16]}"
            print_metrics(title, w["end_to_end"])
            print_metrics(f"{name} per layer", w["per_layer"])
        print_metrics("cells", ledger["cells"])
        results = list(ledger["workloads"].values())
    else:
        ledger.update(workload=args.workload, trace=args.trace, **run_workload(args))
        flag = "  [noisy]" if ledger.get("noisy") else ""
        title = f"{args.workload}{flag}  history {ledger['fingerprint'][:16]}"
        print_metrics(title, ledger["metrics"])
        declared = PER_LAYER if args.trace else END_TO_END
        metrics = {
            m[0]: {k: ledger["metrics"][m[0]][k] for k in ("value", "unit")} for m in declared
        }
        results = [ledger]
    problems = [p for r in results for p in r["problems"]]
    problems += [f"no value for {k}" for k, m in metrics.items() if m["value"] is None]
    for problem in problems:
        print(f"  PROBLEM {problem}")
    machine.update(calib_ms=ledger["probe_floor_ms"], load_end=os.getloadavg())
    ledger["machine"] = machine
    print("\nmachine: " + json.dumps(machine))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": not problems,
        "attempted": sum(r["ops_attempted"] for r in results),
        "failed": sum(r["ops_failed"] for r in results),
        "metrics": {k: m for k, m in metrics.items() if m["value"] is not None},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
