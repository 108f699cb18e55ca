"""Smoke tests: every example script must run end to end (all five take
seconds at their built-in scales)."""

import os
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = Path(__file__).resolve().parents[2] / "src"


def _run(script: str, timeout: int = 600) -> str:
    # Examples must work from a bare checkout: pytest's `pythonpath` option
    # covers only this process, so hand src/ down to the child explicitly.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "best accuracy" in out
    assert "tier updates" in out


def test_custom_federation_runs():
    out = _run("custom_federation.py")
    assert "best accuracy" in out
    assert "cross-tier w" in out


def test_straggler_robustness_runs():
    out = _run("straggler_robustness.py")
    assert "FedAT more robust" in out


def test_compression_tradeoff_runs():
    out = _run("compression_tradeoff.py")
    assert "vs float64" in out


def test_femnist_at_scale_runs():
    out = _run("femnist_at_scale.py")
    assert "tier distribution" in out
