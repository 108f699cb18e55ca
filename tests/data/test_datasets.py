"""Synthetic dataset generator tests: structure, heterogeneity, learnability."""

import numpy as np
import pytest

from repro.data.datasets import DATASETS, make_dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam
from repro.nn.zoo import build_logistic
from tests.helpers import build_mlp


ALL_NAMES = sorted(DATASETS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builds_and_validates(name):
    ds = make_dataset(name, np.random.default_rng(0), num_clients=8, samples_per_client=24)
    ds.validate()
    assert ds.num_clients == 8
    assert all(c.num_train >= 1 for c in ds.clients)


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        make_dataset("imagenet", np.random.default_rng(0))


def test_unknown_override_rejected():
    with pytest.raises(TypeError):
        make_dataset("cifar10", np.random.default_rng(0), bogus_field=1)


def test_reproducible_given_seed():
    a = make_dataset("cifar10", np.random.default_rng(5), num_clients=6, samples_per_client=20)
    b = make_dataset("cifar10", np.random.default_rng(5), num_clients=6, samples_per_client=20)
    np.testing.assert_array_equal(a.clients[3].x_train, b.clients[3].x_train)
    np.testing.assert_array_equal(a.clients[3].y_train, b.clients[3].y_train)


def test_kclass_controls_heterogeneity():
    for k in (2, 4):
        ds = make_dataset(
            "cifar10", np.random.default_rng(0),
            num_clients=10, samples_per_client=40, classes_per_client=k,
        )
        for c in ds.clients:
            assert len(np.unique(c.y_train)) <= k + 2  # stealing slack


def test_iid_setting_covers_classes():
    ds = make_dataset(
        "cifar10", np.random.default_rng(0),
        num_clients=5, samples_per_client=100, classes_per_client=None,
    )
    for c in ds.clients:
        assert np.unique(np.concatenate([c.y_train, c.y_test])).size >= 8


def test_femnist_has_size_skew_and_writer_shift():
    ds = make_dataset("femnist", np.random.default_rng(3), num_clients=30)
    sizes = ds.client_sizes()
    assert sizes.max() >= 2 * sizes.min()
    # Writer shift: per-client feature means differ more than within-client noise.
    means = [c.x_train.mean() for c in ds.clients]
    assert np.std(means) > 0.05


def test_reddit_labels_are_vocab_ids():
    ds = make_dataset("reddit", np.random.default_rng(0), num_clients=8, vocab_size=32)
    assert ds.num_classes == 32
    x, y = ds.global_test_set()
    assert x.dtype.kind == "i"
    assert y.max() < 32


def test_images_are_learnable():
    """A small MLP must beat chance clearly on the image analogue."""
    ds = make_dataset(
        "cifar10", np.random.default_rng(0),
        num_clients=4, samples_per_client=150, classes_per_client=None,
        image_shape=(8, 8, 3),
    )
    x = np.concatenate([c.x_train for c in ds.clients]).reshape(-1, 8 * 8 * 3)
    y = np.concatenate([c.y_train for c in ds.clients])
    xt, yt = ds.global_test_set()
    xt = xt.reshape(-1, 8 * 8 * 3)
    m = build_mlp(x.shape[1], 10, rng=np.random.default_rng(1), hidden=(32,))
    loss, opt = SoftmaxCrossEntropy(), Adam(0.01)
    for _ in range(80):
        m.train_on_batch(x, y, loss, opt)
    acc = m.evaluate(xt, yt)["accuracy"]
    assert acc > 0.35  # chance is 0.1


def test_bow_is_learnable_convex():
    ds = make_dataset(
        "sentiment140", np.random.default_rng(0),
        num_clients=4, samples_per_client=150, classes_per_client=None,
    )
    x = np.concatenate([c.x_train for c in ds.clients])
    y = np.concatenate([c.y_train for c in ds.clients])
    m = build_logistic(x.shape[1], 3, rng=np.random.default_rng(1))
    loss, opt = SoftmaxCrossEntropy(), Adam(0.05)
    for _ in range(100):
        m.train_on_batch(x, y, loss, opt)
    xt, yt = ds.global_test_set()
    assert m.evaluate(xt, yt)["accuracy"] > 0.5  # chance is 1/3


def test_markov_sequences_are_predictable():
    """Next-token analogue: the chain's top successors dominate, so
    accuracy well above 1/vocab must be achievable."""
    ds = make_dataset(
        "reddit", np.random.default_rng(0),
        num_clients=4, samples_per_client=400, vocab_size=16, seq_len=6,
        classes_per_client=None, dirichlet_alpha=None, power_law_sizes=False,
    )
    x = np.concatenate([c.x_train for c in ds.clients])
    y = np.concatenate([c.y_train for c in ds.clients])
    # Bigram frequency predictor: P(y | last token).
    table = np.zeros((16, 16))
    np.add.at(table, (x[:, -1], y), 1.0)
    pred = table.argmax(axis=1)
    xt, yt = ds.global_test_set()
    acc = float(np.mean(pred[xt[:, -1]] == yt))
    assert acc > 3.0 / 16


def _digest(arrays, rng) -> str:
    """sha256 over each array's dtype, shape and bytes, then the generator's
    final ``bit_generator.state``: equal digests mean the same samples drawn
    by the same calls."""
    import hashlib
    import json

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str} {a.shape}".encode() + a.tobytes())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()[:16]


def test_sentiment140_sample_bank_is_pinned():
    """The bag-of-words bank behind every sentiment140 virtual population;
    recorded on the per-sample ``multinomial`` loop."""
    from repro.data.datasets import make_sample_bank

    rng = np.random.default_rng(9)
    bank = make_sample_bank("sentiment140", rng)
    assert _digest([bank.x, bank.y], rng) == "b463fab1fbd62b32"


def test_sentiment140_bench_dataset_is_pinned():
    """``make_dataset`` as the bench scale builds it at seed 0 (the stream
    and sizes ``build_federation("sentiment140", "bench", 0)`` passes);
    recorded on the per-sample ``multinomial`` loop."""
    from repro.experiments.config import SCALES
    from repro.utils.rng import SeedSequenceFactory

    preset = SCALES["bench"]
    rng = SeedSequenceFactory(0).rng("data/sentiment140")
    ds = make_dataset(
        "sentiment140",
        rng,
        num_clients=preset.num_clients,
        samples_per_client=preset.samples_per_client,
    )
    arrays = [a for c in ds.clients for a in (c.x_train, c.y_train, c.x_test, c.y_test)]
    assert _digest(arrays, rng) == "60185bdcc773fd03"
