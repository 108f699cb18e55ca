"""Shared benchmark fixtures.

``artifact`` persists a bench's paper-vs-measured or timing payload to
``bench_results/<name>.json`` beside what the bench prints.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.utils.serialization import save_json

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture
def artifact():
    """Persist a bench artifact dict to bench_results/<name>.json."""

    def _save(name: str, payload: dict) -> None:
        try:
            save_json(RESULTS_DIR / f"{name}.json", payload)
        except OSError:
            pass  # read-only checkout; stdout still carries the artifact

    return _save
