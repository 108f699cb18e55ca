"""Bring your own data and model: plugging custom components into FedAT.

Shows the extension surface a downstream user needs:

1. build a ``FederatedDataset`` from arbitrary per-client arrays;
2. define a custom model with ``repro.nn`` layers;
3. run ``FedAT`` directly (no experiment-harness presets involved);
4. inspect the tiering and per-tier update counts.

    python examples/custom_federation.py
"""

import numpy as np

from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.data.federated import FederatedDataset, train_test_split_client
from repro.nn import Dense, ReLU, Sequential


def make_custom_dataset(rng: np.random.Generator) -> FederatedDataset:
    """A 12-client federation over a spiral-ish 2-class problem where each
    client sees a different angular sector (natural non-IID)."""
    clients = []
    for cid in range(12):
        n = 60
        # Each client's sector: rotation makes client distributions differ.
        theta = rng.uniform(0, np.pi, n) + cid * np.pi / 6
        r = rng.uniform(0.5, 2.0, n)
        y = (r > 1.25).astype(np.int64)
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        x += rng.normal(0, 0.15, x.shape)
        clients.append(train_test_split_client(x, y, cid, rng))
    return FederatedDataset(
        name="spiral-sectors",
        clients=clients,
        num_classes=2,
        input_shape=(2,),
        task="classification",
    )


def model_builder(rng: np.random.Generator) -> Sequential:
    return Sequential(
        [
            Dense(2, 24, rng=rng, name="fc1"),
            ReLU(),
            Dense(24, 24, rng=rng, name="fc2"),
            ReLU(),
            Dense(24, 2, rng=rng, name="head"),
        ],
        name="spiral_mlp",
    )


def main() -> None:
    rng = np.random.default_rng(7)
    dataset = make_custom_dataset(rng)
    dataset.validate()

    config = FLConfig(
        clients_per_round=4,
        local_epochs=2,
        batch_size=16,
        learning_rate=0.01,
        max_rounds=60,
        max_time=400.0,
        eval_every=6,
        num_unstable=1,
        seed=0,
        compression="polyline:5",
        # FedAT's own knobs (FedAT.Params); a flat lam=... only works through
        # make_fl_config / run_experiment / the CLI.
        algo=FedAT.Params(lam=0.2, num_tiers=3),
    )
    system = FedAT(dataset, model_builder, config)

    print("tier sizes      :", system.tiering.sizes())
    history = system.run()
    print("global updates  :", history.rounds()[-1])
    print("tier updates    :", history.meta["tier_update_counts"])
    print("best accuracy   :", f"{history.best_accuracy():.3f}")
    print("uplink          :", f"{system.meter.uplink_bytes / 1e3:.0f} KB")
    print("cross-tier w    :",
          np.round(system.server.tier_weight_vector(), 3).tolist(),
          "(fastest → slowest)")


if __name__ == "__main__":
    main()
