"""Virtual vs materialized populations drive identical FL runs."""

import numpy as np

from repro.core.fedat import FedAT
from repro.data.datasets import make_sample_bank
from repro.exec import ExecConfig
from repro.experiments.checkpoint import strip_volatile_meta
from repro.experiments.config import build_model_builder, route_config
from repro.population.base import MaterializedPopulation
from repro.population.virtual import VirtualPopulation


def _virtual(num_clients=15, seed=5):
    bank = make_sample_bank(
        "sentiment140", np.random.default_rng(9), num_samples=256
    )
    return VirtualPopulation(
        bank,
        num_clients,
        seed=seed,
        samples_per_client=(8, 20),
        classes_per_client=2,
        name="sentiment140",
    )


def _config(**overrides):
    defaults = dict(
        clients_per_round=4,
        local_epochs=1,
        num_tiers=3,
        max_rounds=8,
        max_time=300.0,
        eval_every=4,
        num_unstable=2,
        seed=0,
        compression=None,
    )
    defaults.update(overrides)
    return route_config("fedat", **defaults)


def _clean(history):
    return strip_volatile_meta(history.to_dict())  # timings, recovery counters


def test_fedat_history_identical_to_materialized_run():
    """A FedAT run over the lazy population is bit-identical to running over
    the same population materialized eagerly up front."""
    vp = _virtual()
    builder = build_model_builder(vp, "tiny")
    lazy = FedAT(vp, builder, _config()).run()
    eager = FedAT(
        MaterializedPopulation(_virtual().materialize()), builder, _config()
    ).run()
    assert _clean(lazy) == _clean(eager)


def test_fedat_dist_executor_matches_serial_on_virtual():
    vp = _virtual()
    builder = build_model_builder(vp, "tiny")
    serial = FedAT(vp, builder, _config()).run()
    dist = FedAT(
        _virtual(), builder, _config(exec=ExecConfig(executor="dist", num_workers=2))
    ).run()
    assert _clean(serial) == _clean(dist)


def test_arrival_scenario_runs_on_virtual_population():
    """Late arrivals enroll into a virtual population's tiering and the
    enrolled/full evaluation views land in history.meta."""
    vp = _virtual()
    builder = build_model_builder(vp, "tiny")
    h = FedAT(vp, builder, _config(scenario="arrival:0.4")).run()
    views = h.meta.get("arrival_eval")
    assert views, "arrival runs must record enrolled/full accuracy views"
    enrolled = [v["enrolled_clients"] for v in views]
    assert enrolled[0] < vp.num_clients  # 40% of clients arrive late
    assert enrolled == sorted(enrolled)  # enrollment only grows
    assert all("population_accuracy" in v for v in views)
    rerun = FedAT(_virtual(), builder, _config(scenario="arrival:0.4")).run()
    assert _clean(h) == _clean(rerun)
