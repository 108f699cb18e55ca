#!/usr/bin/env python3
"""Compare two ledgers: ``python benchmarks/ledger/diff.py A.json B.json``.

One row per workload x end-to-end metric, A as the base and B as the change:
``better`` / ``within bound`` / ``worse beyond bound`` / ``unresolved``.
A row is *unresolved* — neither unchanged nor regressed — when the two
medians cannot be told apart to within the bound: the workload is flagged
``noisy`` in either file, the two machines' probe floors differ by more
than 10 %, or twice the standard error of the difference (from the kept
samples' IQR, 0.93 x IQR / sqrt(n) per median) exceeds the bound. When both
ledgers ran the same ``--seed`` the throughput rows are *paired*: the ratio
is the median of per-repetition ratios, so the seed-to-seed spread cancels,
and the exact metrics (bytes, loss, accuracy, failures, history fingerprint)
are compared for equality. Every ratio is printed with its base.

``diff.py --aa`` runs the whole benchmark twice on the current tree and
exits non-zero unless every end-to-end metric agrees within its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, EXACT_EXTRAS, LEDGER_DIR

#: Probe floors further apart than this make every timing row unresolved.
CALIBRATION_TOLERANCE = 0.10
#: Exact given the seed: compared for equality when the seeds match.
EXACT = ("uplink_mb", "final_loss", "final_accuracy", "failed_share")


def _standard_error(metric: dict) -> float:
    """Standard error of a median, as a share of it, from its IQR and n."""
    if not metric.get("iqr") or not metric.get("n") or not metric["value"]:
        return 0.0
    return 0.93 * metric["iqr"] / math.sqrt(metric["n"]) / abs(metric["value"])


def _paired(a: dict, b: dict):
    """Median per-repetition ratio B/A and its standard error, when both
    metrics carry samples of the same repetition indices."""
    sa, sb = a.get("samples") or {}, b.get("samples") or {}
    shared = sorted(set(sa) & set(sb))
    if len(shared) < 5:
        return None
    ratios = [sb[i] / sa[i] for i in shared]
    q = statistics.quantiles(ratios, n=4)
    return statistics.median(ratios), 0.93 * (q[2] - q[0]) / math.sqrt(len(ratios))


def compare(a: dict, b: dict) -> list[dict]:
    """Rows of the comparison table (A = base, B = change)."""
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    calib_a, calib_b = a["machine"]["calib_ms"], b["machine"]["calib_ms"]
    calib_off = abs(calib_b / calib_a - 1.0) > CALIBRATION_TOLERANCE
    gated = {name: (unit, better, bound) for name, unit, better, bound in END_TO_END}
    extras = {name: (unit, better, None) for name, unit, better in EXACT_EXTRAS}
    rows = []
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"].get(workload)
        if wb is None:
            rows.append({"workload": workload, "metric": "*", "verdict": "missing in B"})
            continue
        if same_seed:
            same = wa["fingerprint"] == wb["fingerprint"]
            rows.append(
                {
                    "workload": workload,
                    "metric": "history",
                    "verdict": "same" if same else "CHANGED",
                    "note": f"{wa['fingerprint'][:12]} -> {wb['fingerprint'][:12]}",
                }
            )
        for name, (unit, better, bound) in {**gated, **extras}.items():
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            va, vb = ma["value"], mb["value"]
            row = {"workload": workload, "metric": name, "a": va, "b": vb, "unit": unit}
            rows.append(row)
            if va is None or vb is None:
                row["verdict"] = "unresolved"
                row["note"] = "no value"
                continue
            if name in EXACT and same_seed:
                row["verdict"] = "same" if va == vb else "CHANGED"
                continue
            if bound is None:
                row["verdict"] = "n/a"
                row["note"] = "exact metric, seeds differ"
                continue
            pair = _paired(ma, mb) if same_seed else None
            ratio, error = pair or (vb / va, math.hypot(_standard_error(ma), _standard_error(mb)))
            worse_by = 1.0 - ratio if better == "higher" else ratio - 1.0
            row.update(ratio=ratio, bound=bound, paired=pair is not None, worse_by=worse_by)
            timing = unit in ("s", "1/s")
            if timing and (wa["noisy"] or wb["noisy"]):
                row["verdict"], row["note"] = "unresolved", "workload flagged noisy"
            elif timing and calib_off:
                row["verdict"] = "unresolved"
                row["note"] = f"machine probe {calib_a:.2f} ms vs {calib_b:.2f} ms"
            elif 2.0 * error > bound:
                row["verdict"] = "unresolved"
                row["note"] = f"2 x standard error {2 * error:.1%} > bound"
            elif worse_by > bound:
                row["verdict"] = "worse beyond bound"
            elif worse_by < -bound:
                row["verdict"] = "better"
            else:
                row["verdict"] = "within bound"
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12}  change (base)  verdict"]
    for r in rows:
        a = "" if r.get("a") is None else f"{r['a']:.6g}"
        b = "" if r.get("b") is None else f"{r['b']:.6g}"
        change = ""
        if "ratio" in r:
            paired = " paired" if r["paired"] else ""
            change = f"x{r['ratio']:.3f} of {a} {r['unit']}{paired}, bound {r['bound']:.0%}"
        note = f"  ({r['note']})" if r.get("note") else ""
        lines.append(
            f"{r['workload']:<12} {r['metric']:<20} {a:>12} {b:>12}  {change}  {r['verdict']}{note}"
        )
    return "\n".join(lines)


def agree(rows: list[dict]) -> bool:
    """A/A criterion: no exact value changed and no bounded metric moved by
    more than its bound in either direction. An ``unresolved`` row says the
    two ledgers could not have backed a claim; it still has to agree."""
    return all(
        abs(r["worse_by"]) <= r["bound"] if "worse_by" in r else r["verdict"] in ("same", "n/a")
        for r in rows
    )


def run_aa(seed: int, smoke: bool) -> int:
    results = LEDGER_DIR / "results"
    outs = [results / "aa_A.json", results / "aa_B.json"]
    for out in outs:
        cmd = [sys.executable, str(LEDGER_DIR / "run.py"), "--seed", str(seed), "--out", str(out)]
        done = subprocess.run(cmd + (["--smoke"] if smoke else []), stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"diff --aa: benchmark run failed (exit {done.returncode})", file=sys.stderr)
            return done.returncode
    rows = compare(*(json.loads(out.read_text()) for out in outs))
    print(render(rows))
    return 0 if agree(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledgers", nargs="*", metavar="LEDGER.json", help="A (base) and B")
    parser.add_argument("--aa", action="store_true", help="run twice on this tree and compare")
    parser.add_argument("--seed", type=int, default=0, help="with --aa: seed of both runs")
    parser.add_argument("--smoke", action="store_true", help="with --aa: smoke-sized runs")
    args = parser.parse_args(argv)
    if args.aa:
        return run_aa(args.seed, args.smoke)
    if len(args.ledgers) != 2:
        parser.error("give two ledger files, or --aa")
    rows = compare(*(json.loads(Path(p).read_text()) for p in args.ledgers))
    print(render(rows))
    return 1 if any(r["verdict"] in ("worse beyond bound", "CHANGED") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
