"""Regenerate the golden-history regression fixtures.

Usage::

    python scripts/make_golden_histories.py [NAME ...]

Writes one JSON fixture per canonical config to ``tests/fixtures/golden/``
(only the named ones when names are given — how a new pin is added without
rewriting the fixtures already committed).
Each fixture embeds the exact run kwargs plus the resulting evaluation
records and the deterministic meta keys;
``tests/integration/test_golden_histories.py`` re-runs the embedded config
and asserts bit-identical results. Regenerate ONLY when a change is
*supposed* to alter numerics (and say so in the commit message) — the whole
point of the suite is that engine refactors cannot silently change
results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.runner import run_experiment  # noqa: E402
from repro.utils.serialization import to_jsonable  # noqa: E402

OUT_DIR = REPO / "tests" / "fixtures" / "golden"

#: Meta keys that are deterministic functions of the run (unlike the
#: wall-clock ``phase_seconds``) and therefore part of the golden contract.
GOLDEN_META_KEYS = (
    "network",
    "tier_update_counts",
    "tier_sizes",
    "retier_trace",
    "arrival_trace",
)

#: The canonical configs: small enough to re-run in seconds, broad enough
#: to cover every method (sync loop, tiered-async loop, TiFL's credit
#: policy, FedProx, the two fully-async baselines), a dynamic scenario with
#: online re-tiering, every layer family (Dense, conv/pool, recurrent), the
#: float32 parameter dtype and a virtual population.
CONFIGS: dict[str, dict] = {
    "fedavg_static": {
        "method": "fedavg",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 5, "eval_every": 1},
    },
    "fedat_static": {
        "method": "fedat",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 10, "eval_every": 2},
    },
    "tifl_static": {
        "method": "tifl",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 6, "eval_every": 2},
    },
    "fedat_churn_retier": {
        "method": "fedat",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {
            "max_rounds": 10,
            "eval_every": 2,
            "scenario": "churn:0.4",
            "retier_interval": 4,
        },
    },
    "fedat_composed": {
        "method": "fedat",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {
            "max_rounds": 10,
            "eval_every": 2,
            "scenario": "churn:0.2+bwdrift:2.0",
        },
    },
    "fedprox_static": {
        "method": "fedprox",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 5, "eval_every": 1},
    },
    "fedasync_static": {
        "method": "fedasync",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 20, "eval_every": 4},
    },
    "asofed_static": {
        "method": "asofed",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 20, "eval_every": 4},
    },
    # Conv / pool / ReLU plan kernels (everything above is Dense only).
    "fedat_cnn": {
        "method": "fedat",
        "dataset": "cifar10",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 12, "eval_every": 2},
    },
    # Embedding + LSTM + Dropout + BatchNorm: the recurrent plan kernels,
    # over relaunches from several global versions and raw payloads.
    "fedasync_lstm": {
        "method": "fedasync",
        "dataset": "reddit",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 12, "eval_every": 4, "compression": None},
    },
    # The same model under FedAT: cohorts larger than one, the proximal term
    # and the polyline codec over recurrent weights.
    "fedat_lstm": {
        "method": "fedat",
        "dataset": "reddit",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 12, "eval_every": 4},
    },
    "fedat_float32": {
        "method": "fedat",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "fl_overrides": {"max_rounds": 10, "eval_every": 2, "dtype": "float32"},
    },
    # VirtualPopulation: lazily derived clients, arrivals enrolling mid-run,
    # re-tiering over the enrolled subset (the smoke shape of the ledger's
    # world_30k workload).
    "fedat_virtual": {
        "method": "fedat",
        "dataset": "sentiment140",
        "scale": "tiny",
        "seed": 7,
        "population": 2000,
        "fl_overrides": {
            "max_rounds": 12,
            "eval_every": 3,
            "scenario": "churn:0.2+arrival:0.1",
            "retier_interval": 4,
            "eval_clients": 50,
        },
    },
}


def run_config(config: dict):
    kwargs = dict(config)
    overrides = kwargs.pop("fl_overrides", {})
    return run_experiment(
        kwargs.pop("method"), kwargs.pop("dataset"), **kwargs, **overrides
    )


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        raise SystemExit(f"unknown golden config(s) {unknown}; known: {sorted(CONFIGS)}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or CONFIGS:
        config = CONFIGS[name]
        history = run_config(config)
        payload = {
            "name": name,
            "run": config,
            "records": to_jsonable(history.to_dict()["records"]),
            "meta": to_jsonable(
                {
                    k: history.meta[k]
                    for k in GOLDEN_META_KEYS
                    if k in history.meta
                }
            ),
        }
        path = OUT_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(history.records)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
