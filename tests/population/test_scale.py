"""Memory and reproducibility at population scale.

The tentpole claims: enrolling N clients costs O(N) *vectors* (sizes,
latency assignments, tier index) but O(active cohort) *client payloads*,
and a million-client FedAT run is bit-reproducible.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import FLConfig
from repro.core.fedat import FedAT
from repro.data.datasets import make_sample_bank
from repro.experiments.config import build_model_builder
from repro.population.virtual import VirtualPopulation


def _bank(n=256):
    return make_sample_bank(
        "sentiment140", np.random.default_rng(9), num_samples=n
    )


class TestBoundedMemory:
    def test_100k_population_stays_small(self):
        """Enrolling 100k clients and touching a 64-client cohort must not
        materialize the federation: peak traffic stays megabytes, not the
        ~GB an eager 100k-client build would allocate."""
        bank = _bank()
        tracemalloc.start()
        try:
            pop = VirtualPopulation(
                bank, 100_000, seed=0, samples_per_client=(8, 20), cache_size=128
            )
            pop.train_sizes()  # the aggregate vectors schedulers use
            for cid in range(0, 100_000, 100_000 // 64):
                pop.client_data(cid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"peak {peak / 1e6:.1f} MB — population not lazy"

    def test_cache_is_bounded(self):
        pop = VirtualPopulation(
            _bank(), 100_000, seed=0, samples_per_client=(8, 20), cache_size=32
        )
        for cid in range(300):
            pop.client_data(cid)
        assert len(pop._data_cache) <= 32

    def test_scheduler_vectors_are_o_n_not_o_n_payload(self):
        pop = VirtualPopulation(_bank(), 200_000, seed=1, samples_per_client=(8, 20))
        sizes = pop.sizes()
        train = pop.train_sizes()
        assert sizes.nbytes + train.nbytes < 4e6  # two int64 vectors
        assert len(pop._data_cache) == 0  # aggregates never materialize clients


@pytest.mark.slow
class TestMillionClients:
    def test_fedat_1m_clients_bit_reproducible(self):
        """The acceptance demo: FedAT over 1,000,000 enrolled clients runs in
        bounded memory and two identically-seeded runs produce identical
        histories."""

        def run():
            pop = VirtualPopulation(
                _bank(),
                1_000_000,
                seed=0,
                samples_per_client=(8, 20),
                classes_per_client=2,
                name="sentiment140",
            )
            config = FLConfig(
                clients_per_round=3,
                local_epochs=1,
                algo=FedAT.Params(num_tiers=3),
                max_rounds=3,
                max_time=300.0,
                eval_every=1,
                eval_clients=8,
                num_unstable=2,
                seed=0,
                compression=None,
            )
            builder = build_model_builder(pop, "tiny")
            h = FedAT(pop, builder, config).run()
            d = h.to_dict()
            d["meta"].pop("phase_seconds", None)
            return d

        first = run()
        second = run()
        assert first == second
        assert first["records"], "run produced no evaluations"
