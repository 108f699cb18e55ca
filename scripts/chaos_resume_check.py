#!/usr/bin/env python
"""Kill-and-resume round trip for `repro run` (CI chaos smoke).

Three runs of the same experiment:

1. Uninterrupted reference → ``ref.json``.
2. Checkpointed run, SIGKILLed (no cleanup, no atexit) shortly after its
   first round checkpoint lands on disk.
3. ``--resume`` run from the surviving checkpoint → ``resumed.json``.

Passes iff the resumed history is byte-identical to the reference after
stripping the wall-clock-only meta keys (``phase_seconds``, executor
fault counters) — the same canonicalization the test suite uses.

Usage::

    python scripts/chaos_resume_check.py --method fedat --dataset \
        sentiment140 --scale bench --seed 1

Any other arguments are passed to all three ``repro run`` calls, e.g.
``--rounds 3000 --max-time 100000`` so a fast synchronous run is still
running when the kill lands.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.checkpoint import strip_volatile_meta  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _cli(method: str, args: argparse.Namespace, extra: list[str]) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "run",
        "--method",
        method,
        "--dataset",
        args.dataset,
        "--scale",
        args.scale,
        "--seed",
        str(args.seed),
        *(["--rounds", str(args.rounds)] if args.rounds else []),
        *args.run_args,
        *extra,
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="fedat")
    parser.add_argument("--dataset", default="sentiment140")
    parser.add_argument("--scale", default="bench")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--kill-delay",
        type=float,
        default=1.0,
        help="seconds between the first checkpoint appearing and SIGKILL",
    )
    args, args.run_args = parser.parse_known_args()

    with tempfile.TemporaryDirectory(prefix="chaos_resume_") as tmp:
        tmp_path = Path(tmp)
        ref_json = tmp_path / "ref.json"
        resumed_json = tmp_path / "resumed.json"
        ckpt_dir = tmp_path / "ckpt"

        print(f"[1/3] reference run ({args.method}/{args.dataset}/{args.scale})")
        subprocess.run(
            _cli(args.method, args, ["--out", str(ref_json)]),
            check=True,
            env=_env(),
            cwd=REPO,
        )

        print(f"[2/3] checkpointed run, SIGKILL {args.kill_delay}s after first save")
        proc = subprocess.Popen(
            _cli(args.method, args, ["--checkpoint-dir", str(ckpt_dir)]),
            env=_env(),
            cwd=REPO,
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 300.0
        while (
            not list(ckpt_dir.glob("run_*.ckpt"))
            and proc.poll() is None
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        if proc.poll() is None:
            time.sleep(args.kill_delay)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            print(f"      killed pid {proc.pid} (exit {proc.returncode})")
        else:
            # The run beat the kill window: resume still exercises the
            # fresh-start path, but the check is weaker — say so loudly.
            print("      WARNING: run finished before the kill landed")
        if not list(ckpt_dir.glob("run_*.ckpt")):
            print("FAIL: no checkpoint survived the killed run", file=sys.stderr)
            return 1

        print("[3/3] resume from checkpoint")
        subprocess.run(
            _cli(
                args.method,
                args,
                [
                    "--checkpoint-dir",
                    str(ckpt_dir),
                    "--resume",
                    "--out",
                    str(resumed_json),
                ],
            ),
            check=True,
            env=_env(),
            cwd=REPO,
        )

        ref = strip_volatile_meta(json.loads(ref_json.read_text()))
        res = strip_volatile_meta(json.loads(resumed_json.read_text()))
        if ref == res:
            print("OK: resumed history is byte-identical to the reference")
            return 0
        print("FAIL: resumed history diverges from the reference", file=sys.stderr)
        for key in ref.get("meta", {}):
            if ref["meta"][key] != res["meta"].get(key):
                print(f"  meta[{key!r}] differs", file=sys.stderr)
        if ref.get("records") != res.get("records"):
            print("  eval records differ", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
