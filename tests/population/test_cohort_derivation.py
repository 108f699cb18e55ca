"""A cohort's virtual clients are derived in one pass: every client's shard
is the bytes a per-client derivation gives it, and each cohort costs one
derivation of the clients not cached."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.population.virtual as virtual
from repro.data.datasets import make_sample_bank
from repro.data.federated import ClientData, train_test_split_client
from repro.exec.base import CohortTask, OptimizerSpec
from repro.exec.serial import SerialExecutor
from repro.experiments.config import build_model_builder
from repro.nn.losses import SoftmaxCrossEntropy
from repro.population.virtual import VirtualPopulation, derive_client_data
from repro.sim.latency import ComputeModel, ResponseLatencyModel, TierDelayModel
from repro.utils.rng import SeedSequenceFactory

BANKS = {
    "sentiment140": make_sample_bank("sentiment140", np.random.default_rng(3), num_samples=200),
    "cifar10": make_sample_bank(
        "cifar10", np.random.default_rng(4), num_samples=120, image_shape=(4, 4, 3)
    ),
}


def reference_client(bank, client_id, size, seed, classes_per_client, writer_shift):
    """One client's shard, derived alone: the per-client pipeline the
    cohort derivation must reproduce byte for byte."""
    rng = SeedSequenceFactory(seed).rng(f"population/client/{client_id}")
    present = bank.present_classes
    if classes_per_client is None:
        labels = present[rng.integers(0, present.size, size=size)]
    else:
        k = min(int(classes_per_client), int(present.size))
        chosen = np.sort(rng.choice(present, size=k, replace=False))
        labels = chosen[rng.integers(0, k, size=size)]
    positions = rng.integers(0, bank.class_counts[labels])
    x = bank.x[bank.locate(labels, positions)]
    y = labels.astype(np.int64)
    if writer_shift:
        strength = float(writer_shift)
        a = 1.0 + 0.2 * strength * rng.standard_normal()
        b = 0.3 * strength * rng.standard_normal()
        x = a * x + b
    return train_test_split_client(x, y, client_id, rng)


def assert_same_bytes(got: ClientData, want: ClientData) -> None:
    assert got.client_id == want.client_id
    for name in ("x_train", "y_train", "x_test", "y_test"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    bank=st.sampled_from(sorted(BANKS)),
    members=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 30)), min_size=1, max_size=8),
    classes_per_client=st.sampled_from([None, 1, 2, 3]),
    writer_shift=st.sampled_from([0.0, 0.8, -1.7]),
    seed=st.integers(0, 2**40),
)
def test_cohort_matches_per_client_derivation(
    bank, members, classes_per_client, writer_shift, seed
):
    """Any ids (repeats included), sizes, class restriction and writer
    shift: each member's shard is its per-client derivation's bytes."""
    ids, sizes = zip(*members)
    bank = BANKS[bank]
    cohort = derive_client_data(bank, ids, sizes, seed, classes_per_client, writer_shift)
    assert len(cohort) == len(members)
    for (cid, size), data in zip(members, cohort):
        want = reference_client(bank, cid, size, seed, classes_per_client, writer_shift)
        assert_same_bytes(data, want)


def test_a_repeated_id_yields_equal_shards():
    """Derivation is a function of (seed, id, size): a cohort naming a
    client twice gets two equal shards, each the client's own."""
    bank = BANKS["sentiment140"]
    first, again, other = derive_client_data(bank, [5, 5, 6], [12, 12, 12], 0, 2, 0.8)
    assert_same_bytes(first, again)
    assert_same_bytes(first, reference_client(bank, 5, 12, 0, 2, 0.8))
    assert first.x_train.tobytes() != other.x_train.tobytes()


def test_the_empty_cohort_derives_nothing():
    assert derive_client_data(BANKS["cifar10"], [], [], 0, None, 0.0) == []


def _bound_population(num_clients=30, **kw):
    pop = VirtualPopulation(BANKS["sentiment140"], num_clients, seed=5, **kw)
    delays = TierDelayModel.even_split(
        num_clients, np.random.default_rng(0), bands=((0.0, 0.0), (1.0, 3.0))
    )
    pop.bind(ResponseLatencyModel(delays, ComputeModel()), batch_size=4, seed=2)
    return pop


@pytest.fixture
def derivations(monkeypatch):
    """Every ``derive_client_data`` call's ids, in call order."""
    calls = []

    def counted(bank, client_ids, *args):
        calls.append(list(client_ids))
        return derive_client_data(bank, client_ids, *args)

    monkeypatch.setattr(virtual, "derive_client_data", counted)
    return calls


def test_a_cohort_derives_only_what_the_cache_lacks(derivations):
    pop = _bound_population()
    first = pop.clients[[3, 7, 3, 9]]
    assert derivations == [[3, 7, 9]]
    assert first[0] is first[2]
    second = pop.clients[[9, 11, 7]]
    assert derivations == [[3, 7, 9], [11]]
    assert second[0] is first[3] and second[2] is first[1]
    assert pop.clients[[11, 3]] == [second[1], first[0]] and len(derivations) == 2
    for client in first + second:
        want = _bound_population().client_data(client.client_id)
        assert_same_bytes(client.data, want)


def test_one_client_is_the_one_member_cohort(derivations):
    pop = _bound_population()
    client = pop.clients[4]
    assert derivations == [[4]]
    assert pop.clients[[4]] == [client]
    assert len(derivations) == 1
    assert_same_bytes(pop.client_data(4), client.data)


def test_a_pickled_store_derives_cohorts_too(derivations):
    """What a dist worker receives: the store with an empty cache, which
    derives the cohorts it trains in one pass each."""
    store = pickle.loads(pickle.dumps(_bound_population().clients))
    clients = store[[2, 8, 2]]
    assert derivations == [[2, 8]]
    assert clients[0] is clients[2] and store[8] is clients[1]
    for client in clients:
        assert_same_bytes(client.data, _bound_population().client_data(client.client_id))


def test_the_serial_executor_derives_each_cohort_once(derivations):
    pop = _bound_population()
    model = build_model_builder(pop, "tiny")(np.random.default_rng(0))
    executor = SerialExecutor(
        model, pop.clients, SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.01)
    )
    start = model.get_flat_weights()[None, :]
    tasks = [CohortTask(cid, 1, 0.0, 1.0, 0) for cid in (12, 4, 20)]
    trained = executor.run_cohort(start, tasks)
    assert derivations == [[12, 4, 20]]
    assert [r.client_id for r in trained] == [12, 4, 20]
    eager = SerialExecutor(
        model.clone(),
        {cid: _bound_population().clients[cid] for cid in (12, 4, 20)},
        SoftmaxCrossEntropy(),
        OptimizerSpec("adam", 0.01),
    )
    for got, want in zip(trained, eager.run_cohort(start, tasks)):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.n_samples == want.n_samples and got.train_loss == want.train_loss
