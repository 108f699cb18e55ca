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


def _peak_bytes(bank, n, cohort, **kwargs):
    """tracemalloc peak of enrolling ``n`` clients, building the aggregate
    vectors schedulers use, and deriving ``cohort`` of them."""
    tracemalloc.start()
    try:
        pop = VirtualPopulation(bank, n, seed=0, **kwargs)
        pop.train_sizes()
        for cid in cohort:
            pop.client_data(cid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestBoundedMemory:
    def test_100k_population_stays_small(self):
        """Enrolling 100k clients and touching a 64-client cohort must not
        materialize the federation: peak traffic stays megabytes, not the
        ~GB an eager 100k-client build would allocate."""
        peak = _peak_bytes(
            _bank(),
            100_000,
            range(0, 100_000, 100_000 // 64),
            samples_per_client=(8, 20),
            cache_size=128,
        )
        assert peak < 30e6, f"peak {peak / 1e6:.1f} MB — population not lazy"

    def test_1m_population_peak_holds_its_baseline(self):
        """A million enrolled clients cost a few million-long vectors (sizes,
        train sizes and the temporaries that derive them) plus a bounded
        cohort cache: 40.002133 MB of peak traffic when recorded (bytes, so
        the same on any host). Growing past 1.25x that fails, which also
        keeps the peak under 64 MB; an eager build would need gigabytes."""
        n = 1_000_000
        peak = _peak_bytes(
            _bank(1024),
            n,
            range(0, n, n // 16),
            samples_per_client=(16, 48),
            classes_per_client=2,
            cache_size=256,
        )
        assert peak < 1.25 * 40.002133e6, f"peak {peak / 1e6:.1f} MB at {n} clients"

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
