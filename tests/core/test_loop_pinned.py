"""Byte-level pins of every method's run loop.

The digests below were recorded on the four hand-written run loops (the
sync round loop, FedAT's tier loop, FedAsync's and ASO-Fed's client
cycles) before they became one. A rewrite of the loop, the cohort launch
or the rejoin scheduling must reproduce them exactly; a digest changes
only in a commit that fixes a named bug in one method and says so.

Each case digests ``strip_volatile_meta(history.to_dict())`` (records plus
every deterministic meta key: network meters, guard trace, tier and
re-tier traces) as sorted-key JSON. The worlds reach every loop path:

- ``static``: no events;
- ``churn_t0`` / ``churn_t10`` / ``churn_t25``: everyone but the last
  client leaves at t = 0 / 10 / 25 and rejoins 50 s later, the last client
  arrives 20 s into the blackout, two clients drop out for good — the sync
  rejoin wait, FedAT's tier wake and the async relaunch;
- ``arrival_retier``: the ``arrival:0.5`` preset with re-tiering every two
  rounds — FedAT's arrival events, the async arrival launches;
- ``guard_reject``: an exploding SGD step under ``guard="reject"`` —
  quarantined rounds;
- ``max_time``: ``churn_t10`` cut off at t = 45, before the rejoin.

TiFL refreshes its tier probabilities every round here, so a rejoin wait
lands on a refresh round.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import ASOFed, FedAsync, FedAvg, FedProx, TiFL
from repro.core.fedat import FedAT
from repro.data.datasets import make_dataset
from repro.experiments.checkpoint import strip_volatile_meta
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.scenario import ScenarioEngine, ScenarioEvent
from repro.utils.serialization import to_jsonable

METHODS = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "tifl": TiFL,
    "fedat": FedAT,
    "fedasync": FedAsync,
    "asofed": ASOFed,
}

#: Global-update budget per method: a few sync rounds, more tier rounds,
#: many single-client async updates.
BUDGETS = {"fedavg": 8, "fedprox": 8, "tifl": 8, "fedat": 12, "fedasync": 30, "asofed": 30}


def total_churn(leave_at: float):
    """Everyone but the last client leaves at ``leave_at`` and rejoins 50 s
    later; the last client arrives 20 s into the blackout."""

    def build(n: int) -> ScenarioEngine:
        away = range(n - 1)
        events = [ScenarioEvent(leave_at, "leave", c) for c in away]
        events += [ScenarioEvent(leave_at + 50.0, "join", c) for c in away]
        events.append(ScenarioEvent(leave_at + 20.0, "arrive", n - 1))
        return ScenarioEngine.from_events(n, events)

    return build


#: world -> (config overrides, hand-built scenario or None).
WORLDS = {
    "static": ({}, None),
    "churn_t0": ({}, total_churn(0.0)),
    "churn_t10": ({}, total_churn(10.0)),
    "churn_t25": ({}, total_churn(25.0)),
    "arrival_retier": (
        {"scenario": "arrival:0.5", "retier_interval": 2, "dropout_horizon": 100.0},
        None,
    ),
    "guard_reject": ({"optimizer": "sgd", "learning_rate": 1e25, "guard": "reject"}, None),
    "max_time": ({"max_time": 45.0, "max_rounds": 60}, total_churn(10.0)),
}


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(
        "sentiment140",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        noise=0.7,
        writer_shift=0.3,
    )


def build_world(dataset, method: str, world: str, worlds=WORLDS, **settings):
    """The system of one pinned case; ``settings`` adds execution settings."""
    overrides, scenario = worlds[world]
    config = route_config(
        method,
        **knobs_read_by(
            method,
            {
                "clients_per_round": 4,
                "local_epochs": 2,
                "batch_size": 8,
                "max_rounds": BUDGETS[method],
                "eval_every": 2,
                "num_tiers": 3,
                "num_unstable": 2,
                "tifl_interval": 1,
                "seed": 3,
                **overrides,
            },
        ),
        **settings,
    )
    system = METHODS[method](dataset, build_model_builder(dataset, "tiny"), config)
    if scenario is not None:
        system.scenario = scenario(dataset.num_clients)
    return system


def run_world(dataset, method: str, world: str):
    return build_world(dataset, method, world).run()


def history_digest(history) -> str:
    canon = json.dumps(to_jsonable(strip_volatile_meta(history.to_dict())), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


#: (method, world) -> digest.
PINNED: dict[tuple[str, str], str] = {
    ("asofed", "arrival_retier"): "fe43f7bc979cbc00",
    ("asofed", "churn_t0"): "7d5a01fad4d9434f",
    ("asofed", "churn_t10"): "b7159ab04249e09f",
    ("asofed", "churn_t25"): "5e9fba4fc34e1a97",
    ("asofed", "guard_reject"): "e648ed3e8deb2827",
    ("asofed", "max_time"): "86b10692a3ac6b29",
    ("asofed", "static"): "9439b1174f49729d",
    ("fedasync", "arrival_retier"): "ece0d2c3a1f1209b",
    ("fedasync", "churn_t0"): "d171b693eec5aa2f",
    ("fedasync", "churn_t10"): "963669827b38cc45",
    ("fedasync", "churn_t25"): "74699ee9aefc6a5d",
    ("fedasync", "guard_reject"): "88827203ff2796b1",
    ("fedasync", "max_time"): "a0a601dfbf947815",
    ("fedasync", "static"): "236af273925b5c32",
    ("fedat", "arrival_retier"): "ed4ff87b1365f9a8",
    ("fedat", "churn_t0"): "7f52fb1199a6dad0",
    ("fedat", "churn_t10"): "79f4d15365ec0948",
    ("fedat", "churn_t25"): "4ff0dd5ca23f5fdf",
    ("fedat", "guard_reject"): "2cc898f51ce2e897",
    ("fedat", "max_time"): "688bca5dcae70b98",
    ("fedat", "static"): "1a5b89b3f56dbc5a",
    ("fedavg", "arrival_retier"): "e29222dba0f47b15",
    ("fedavg", "churn_t0"): "9486d48dbd1771fc",
    ("fedavg", "churn_t10"): "ee2ae81ae3d011ca",
    ("fedavg", "churn_t25"): "11ea27f951e2a9ff",
    ("fedavg", "guard_reject"): "d3aa8f2a07573dd4",
    ("fedavg", "max_time"): "67687ba040e2b968",
    ("fedavg", "static"): "24a453421f30c943",
    ("fedprox", "arrival_retier"): "9306bc14f0028bb3",
    ("fedprox", "churn_t0"): "497f50799b52b442",
    ("fedprox", "churn_t10"): "a8714dcf50f06da8",
    ("fedprox", "churn_t25"): "8f8758bbcca0374a",
    ("fedprox", "guard_reject"): "420d5e6339a873de",
    ("fedprox", "max_time"): "367868f9b9b222ae",
    ("fedprox", "static"): "8391bb638400a26d",
    ("tifl", "arrival_retier"): "f5d88775b6fb3af1",
    ("tifl", "churn_t0"): "d3c93d506679b956",
    ("tifl", "churn_t10"): "ba74a347a98f8e5f",
    ("tifl", "churn_t25"): "cd93a7ae3a15524e",
    ("tifl", "guard_reject"): "13db0bcd5552f46a",
    ("tifl", "max_time"): "f6732cb9bb38e6fd",
    ("tifl", "static"): "e2726eeed3ed92a3",
}


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_run_loop_is_pinned(dataset, method, world):
    assert history_digest(run_world(dataset, method, world)) == PINNED[method, world]
