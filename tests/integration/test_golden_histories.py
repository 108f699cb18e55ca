"""Golden-history regression suite.

Each fixture under ``tests/fixtures/golden/`` embeds a canonical run
config plus the evaluation records (and deterministic meta) it produced
when committed. Re-running the config must reproduce them **bit-identically**
— future engine refactors cannot silently change results. When a change is
*supposed* to alter numerics, regenerate with::

    python scripts/make_golden_histories.py

and say so in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_experiment
from repro.utils.serialization import to_jsonable

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


def _jsonable(value):
    """Normalize through one JSON round trip so both sides compare as the
    same plain types (float repr round-trips exactly, so this loses no
    precision — a genuine numeric drift still fails)."""
    return json.loads(json.dumps(to_jsonable(value), sort_keys=True))


def _rerun(config: dict):
    kwargs = dict(config)
    overrides = kwargs.pop("fl_overrides", {})
    return run_experiment(
        kwargs.pop("method"), kwargs.pop("dataset"), **kwargs, **overrides
    )


def test_fixture_set_covers_the_method_families():
    assert FIXTURES, f"no golden fixtures committed under {GOLDEN_DIR}"
    methods = set()
    for path in FIXTURES:
        methods.add(json.loads(path.read_text())["run"]["method"])
    assert {"fedat", "fedavg", "fedprox", "tifl", "fedasync", "asofed"} <= methods


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_golden_history_is_bit_identical(path):
    fixture = json.loads(path.read_text())
    history = _rerun(fixture["run"])
    got_records = _jsonable(history.to_dict()["records"])
    assert got_records == fixture["records"], (
        f"{path.stem}: records drifted from the committed golden history — "
        "if this change is *supposed* to alter numerics, regenerate with "
        "scripts/make_golden_histories.py and call it out in the commit"
    )
    for key, expected in fixture["meta"].items():
        assert _jsonable(history.meta.get(key)) == expected, (
            f"{path.stem}: meta[{key!r}] drifted from the golden history"
        )
