"""VirtualPopulation correctness: order-independence, aggregate math,
materialize equivalence, pickling, and latency bit-identity."""

import pickle

import numpy as np
import pytest

from repro.data.datasets import make_sample_bank
from repro.population.base import MaterializedPopulation
from repro.population.virtual import (
    VirtualPopulation,
    derive_sizes,
    train_sizes_from,
)
from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel
from repro.tiering.profiler import LatencyProfiler


def _bank(seed=7, n=256):
    return make_sample_bank("sentiment140", np.random.default_rng(seed), num_samples=n)


def _population(num_clients=20, seed=11, **kw):
    kw.setdefault("samples_per_client", (8, 20))
    return VirtualPopulation(_bank(), num_clients, seed=seed, **kw)


def _latency_model(n):
    delays = TierDelayModel.even_split(n, np.random.default_rng(0),
                                       bands=((0.0, 0.0), (1.0, 3.0), (5.0, 9.0)))
    return ResponseLatencyModel(delays, ComputeModel(per_sample=0.01, base=0.1))


def _assert_same_client(a, b):
    np.testing.assert_array_equal(a.x_train, b.x_train)
    np.testing.assert_array_equal(a.y_train, b.y_train)
    np.testing.assert_array_equal(a.x_test, b.x_test)
    np.testing.assert_array_equal(a.y_test, b.y_test)


class TestOrderIndependence:
    def test_any_access_order_is_bit_identical(self):
        """Forward, reverse, and random-with-repeats access all derive the
        same bytes for every client — the core virtual-population property."""
        ref = _population()
        forward = {c: ref.client_data(c) for c in range(ref.num_clients)}
        orders = [
            list(reversed(range(20))),
            list(np.random.default_rng(3).integers(0, 20, size=40)),
        ]
        for order in orders:
            other = _population()
            for c in order:
                _assert_same_client(other.client_data(int(c)), forward[int(c)])

    def test_cache_eviction_rederives_identically(self):
        small = _population(cache_size=2)
        ref = _population()
        first = {c: ref.client_data(c) for c in range(6)}
        for c in range(6):  # walk forward twice: everything evicts in between
            small.client_data(c)
        for c in range(6):
            _assert_same_client(small.client_data(c), first[c])

    def test_different_seeds_differ(self):
        a = _population(seed=1).client_data(0)
        b = _population(seed=2).client_data(0)
        assert not np.array_equal(a.x_train, b.x_train)


class TestAggregates:
    def test_sizes_deterministic_and_in_range(self):
        sizes = derive_sizes(1000, 5, 8, 20)
        np.testing.assert_array_equal(sizes, derive_sizes(1000, 5, 8, 20))
        assert sizes.min() >= 8 and sizes.max() <= 20

    def test_train_sizes_mirror_materialized_split(self):
        pop = _population()
        train = pop.train_sizes()
        for c in range(pop.num_clients):
            data = pop.client_data(c)
            assert int(train[c]) == data.x_train.shape[0]
            assert int(pop.sizes()[c]) == data.x_train.shape[0] + data.x_test.shape[0]

    def test_train_sizes_from_edge_cases(self):
        np.testing.assert_array_equal(
            train_sizes_from(np.array([1, 2, 3, 5, 10])), [1, 1, 2, 4, 8]
        )


class TestMaterializeEquivalence:
    def test_materialize_matches_lazy_derivation(self):
        pop = _population()
        dataset = pop.materialize()
        assert dataset.num_clients == pop.num_clients
        fresh = _population()
        eager = MaterializedPopulation(dataset)
        for c in range(pop.num_clients):
            _assert_same_client(dataset.clients[c], fresh.client_data(c))
            assert eager.client_data(c) is dataset.clients[c]

    def test_profiles_match_the_materialized_population(self):
        """A virtual and a materialized population over the same shards
        profile bitwise alike — misprofiling included — and both are one
        ``round_latency`` probe per client."""
        pop = _population(num_clients=30)
        model = _latency_model(30)
        pop.bind(model, batch_size=5, seed=0)
        eager_pop = MaterializedPopulation(pop.materialize())
        eager_pop.bind(model, batch_size=5, seed=0)
        profiler = LatencyProfiler(epochs=2, misprofile_fraction=0.2)
        eager = eager_pop.profile_latencies(profiler, np.random.default_rng(42))
        lazy = pop.profile_latencies(profiler, np.random.default_rng(42))
        np.testing.assert_array_equal(eager, lazy)
        clean = pop.profile_latencies(LatencyProfiler(epochs=2), np.random.default_rng(42))
        np.testing.assert_array_equal(
            clean, _round_latency_loop(pop, range(30), 2, np.random.default_rng(42))
        )

    def test_sample_round_latency_is_round_latency(self):
        pop = _population()
        model = _latency_model(pop.num_clients)
        pop.bind(model, batch_size=5, seed=0)
        for c in (0, 7, 19):
            a = pop.sample_round_latency(c, 2, np.random.default_rng(c))
            (b,) = _round_latency_loop(pop, [c], 2, np.random.default_rng(c))
            assert a == b


def _round_latency_loop(population, client_ids, epochs, rng):
    """The reference: one scalar ``round_latency`` per client, from its own
    shard's training-set size."""
    model = population.latency_model
    return np.array(
        [
            model.round_latency(c, population.client_data(c).num_train, epochs, rng)
            for c in client_ids
        ]
    )


class TestBoundStore:
    def test_pickle_roundtrip_derives_identical_clients(self):
        pop = _population()
        store = pop.bind(_latency_model(pop.num_clients), batch_size=5, seed=0)
        store[[0, 5]]
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone._cache) == 0 and clone._sizes is None  # arrives empty
        for c in (0, 5, 19):
            _assert_same_client(store[c].data, clone[c].data)
            assert clone[c].batch_size == store[c].batch_size
        assert len(clone) == pop.num_clients

    def test_clients_carry_data_only(self):
        pop = _population()
        store = pop.bind(_latency_model(pop.num_clients), batch_size=5, seed=0)
        assert not any("latency" in name for name in vars(store[3]))
        assert "_population" not in vars(store)  # self-contained

    def test_out_of_range_ids_are_refused(self):
        pop = _population()
        store = pop.bind(_latency_model(pop.num_clients), batch_size=5, seed=0)
        with pytest.raises(IndexError, match="not in population"):
            store[[1, pop.num_clients]]


class TestGuards:
    def test_full_eval_refused_beyond_cap(self):
        pop = VirtualPopulation(_bank(), 10_001, seed=0)
        with pytest.raises(ValueError, match="eval_clients"):
            pop.build_evaluator(model=None)

    def test_materialize_refused_beyond_cap(self):
        pop = VirtualPopulation(_bank(), 10_001, seed=0)
        with pytest.raises(ValueError, match="materialize"):
            pop.materialize()

    def test_unbound_population_raises(self):
        pop = _population()
        with pytest.raises(RuntimeError, match="bind"):
            pop.clients[0]

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            VirtualPopulation(_bank(), 0)
        with pytest.raises(ValueError):
            _population(samples_per_client=(10, 5))
