#!/usr/bin/env python
"""Kill-a-worker equivalence check for the cross-process executor (CI chaos smoke).

Two runs of the same experiment:

1. Serial reference.
2. A run on the dist executor with 2 local socket workers; one worker
   process is SIGKILLed as the Nth dispatch goes out
   (``--kill-at-dispatch``), so the strike lands however fast the run is —
   a wall-clock delay would miss a run that finishes in milliseconds. The
   executor lists its local processes as ``worker_processes``, which is
   all the strike needs.

Passes iff the kill landed, the history is byte-identical to the serial
one after stripping the wall-clock-only meta keys (``phase_seconds``,
fault counters) — the kill may cost retries and a respawn, never bits —
and the recovery counters actually recorded the event. A run that ends
before the kill lands is a failure, not a pass: it tested no recovery.

Usage::

    python scripts/chaos_dist_check.py --method fedavg --dataset \
        sentiment140 --scale tiny --seed 1 --rounds 6
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.checkpoint import strip_volatile_meta  # noqa: E402
from repro.experiments.config import build_model_builder, make_fl_config  # noqa: E402
from repro.experiments.runner import ALGORITHMS, build_federation  # noqa: E402


def _arm_kill(executor, at_dispatch: int, killed: dict) -> None:
    """SIGKILL one local worker as dispatch number ``at_dispatch`` goes out.

    The strike rides the executor's own dispatch path: both workers are
    idle when the victim dies, so the supervisor either hands it a lease it
    will never answer (EOF -> requeue -> the chunk runs elsewhere) or sees
    the death first. Either way the run has to recover, and the executor
    has to repair its roster.
    """
    run_cohort = executor.run_cohort
    dispatches = 0

    def striking_run_cohort(start_weights, tasks):
        nonlocal dispatches
        if len(tasks) >= executor.min_dispatch:  # smaller cohorts never dispatch
            dispatches += 1
            if dispatches == at_dispatch:
                # Forked workers dial in on their own time; a worker that
                # never registered is nobody's loss when it dies.
                executor.wait_for_workers(2, timeout=60.0)
                if executor.worker_processes:
                    victim = executor.worker_processes[0]
                    os.kill(victim.pid, signal.SIGKILL)
                    killed["pid"] = victim.pid
        return run_cohort(start_weights, tasks)

    executor.run_cohort = striking_run_cohort


def _run(method, args, *, executor_overrides, kill_at_dispatch=None):
    dataset = build_federation(args.dataset, args.scale, args.seed)
    overrides = dict(executor_overrides)
    if args.rounds:
        overrides["max_rounds"] = args.rounds
    config = make_fl_config(method, args.scale, args.seed, **overrides)
    system = ALGORITHMS[method](dataset, build_model_builder(dataset, args.scale), config)
    killed: dict = {}
    if kill_at_dispatch is not None:
        _arm_kill(system.executor, kill_at_dispatch, killed)
    history = system.run()
    return history, killed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="fedavg")
    parser.add_argument("--dataset", default="sentiment140")
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument(
        "--kill-at-dispatch",
        type=int,
        default=2,
        help="SIGKILL a worker as this dispatch (1-based) goes out",
    )
    args = parser.parse_args()

    print(f"[1/2] serial reference ({args.method}/{args.dataset}/{args.scale})")
    reference, _ = _run(args.method, args, executor_overrides={"executor": "serial"})

    print("[2/2] dist run, SIGKILL one of 2 workers "
          f"at dispatch {args.kill_at_dispatch}")
    overrides = {
        "executor": "dist",
        "num_workers": 2,
        "heartbeat_interval": 0.1,
        "heartbeat_timeout": 1.0,
    }
    chaos, killed = _run(
        args.method, args, executor_overrides=overrides, kill_at_dispatch=args.kill_at_dispatch
    )
    if not killed:
        print(f"FAIL: no worker process existed at dispatch {args.kill_at_dispatch}, "
              "or the run finished before it: no worker was killed, so no "
              "recovery was tested",
              file=sys.stderr)
        return 1
    print(f"      killed worker pid {killed['pid']}")

    counters = chaos.meta.get("faults", {})
    print(f"      recovery counters: { {k: v for k, v in counters.items() if v} or '-'}")

    ref = strip_volatile_meta(reference.to_dict())
    got = strip_volatile_meta(chaos.to_dict())
    if ref != got:
        print("FAIL: dist history diverges from the serial reference",
              file=sys.stderr)
        if ref.get("records") != got.get("records"):
            print("  eval records differ", file=sys.stderr)
        for key in ref.get("meta", {}):
            if ref["meta"][key] != got["meta"].get(key):
                print(f"  meta[{key!r}] differs", file=sys.stderr)
        return 1
    if not (counters.get("worker_deaths") or counters.get("respawns")):
        print("FAIL: a worker was killed but no recovery counter recorded it",
              file=sys.stderr)
        return 1
    print("OK: dist history is byte-identical to the serial reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
