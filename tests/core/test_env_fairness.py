"""Fairness-by-construction: the environment is method-independent.

Every method compared under one seed must face the *same* cluster — the
same delay-band assignment, the same dropout schedule, the same latency
draws, and (for tiered methods) the same tier assignment. The environment
RNG streams are named independently of the algorithm (``env/*``), so adding
or reordering algorithm-side consumers can never perturb them; this module
locks that claim in for all six methods.
"""

import numpy as np
import pytest

from repro.baselines import ASOFed, FedAsync, FedAvg, FedProx, TiFL
from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from tests.helpers import tier_map

ALL_METHODS = [FedAT, FedAvg, FedProx, TiFL, FedAsync, ASOFed]


@pytest.fixture(scope="module")
def systems(tiny_bow_dataset_module):
    dataset = tiny_bow_dataset_module
    flat = dict(
        clients_per_round=4, local_epochs=1, max_rounds=4, eval_every=2,
        num_tiers=3, num_unstable=3, seed=7, compression=None,
    )
    builder = build_model_builder(dataset, "tiny")
    return [
        cls(dataset, builder, route_config(cls.name, **knobs_read_by(cls.name, flat)))
        for cls in ALL_METHODS
    ]


@pytest.fixture(scope="module")
def tiny_bow_dataset_module():
    from repro.data.datasets import make_dataset

    return make_dataset(
        "sentiment140",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        noise=0.7,
        writer_shift=0.3,
    )


def _pairs(systems):
    ref = systems[0]
    return [(ref, other) for other in systems[1:]]


def test_same_delay_band_assignment(systems):
    for ref, other in _pairs(systems):
        np.testing.assert_array_equal(
            ref.delay_model.assignment,
            other.delay_model.assignment,
            err_msg=f"{ref.name} vs {other.name}",
        )


def test_same_dropout_schedule(systems):
    ref = systems[0]
    for other in systems[1:]:
        # Unstable client id -> the instant it drops.
        assert ref.failures._dropout_time == other.failures._dropout_time, (
            f"{ref.name} vs {other.name}"
        )


def test_same_latency_draws(systems):
    """Fresh systems draw the identical latency stream per client."""
    n = systems[0].dataset.num_clients
    draws = [[s.sample_latency(c) for c in range(n)] for s in systems]
    for other, name in zip(draws[1:], [s.name for s in systems[1:]]):
        assert draws[0] == other, f"{systems[0].name} vs {name}"


def test_same_tier_assignment(systems):
    """Profiling uses the env/profile stream: every method that tiers the
    population (those whose Params declare the tiering knobs) recovers the
    same tiers under one seed."""
    n = systems[0].dataset.num_clients

    def assignment(tiering):
        return [tier_map(tiering)[c] for c in range(n)]

    tiered = [s for s in systems if hasattr(s.params, "num_tiers")]
    assert [s.name for s in tiered] == ["fedat", "tifl"]
    tierings = [s.build_tiering() for s in tiered]
    for t, s in zip(tierings[1:], tiered[1:]):
        assert assignment(tierings[0]) == assignment(t), (
            f"{tiered[0].name} vs {s.name}"
        )
    # The constructed FedAT/TiFL instances already hold that same tiering.
    fedat = systems[0]
    tifl = next(s for s in systems if isinstance(s, TiFL))
    assert assignment(fedat.tiering) == assignment(tifl.tiering)


def test_same_initial_model(systems):
    for ref, other in _pairs(systems):
        np.testing.assert_array_equal(ref.initial_flat, other.initial_flat)
