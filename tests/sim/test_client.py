"""SimClient local-training tests."""

import numpy as np
import pytest

from repro.data.federated import train_test_split_client
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam
from repro.sim.client import SimClient
from tests.helpers import build_mlp


@pytest.fixture
def client(rng):
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    data = train_test_split_client(x, y, 0, rng)
    return SimClient(data, batch_size=8, seed=0)


def _worker():
    return build_mlp(6, 3, rng=np.random.default_rng(0), hidden=(8,))


def test_local_train_returns_new_weights(client, rng):
    worker = _worker()
    start = worker.get_flat_weights()
    res = client.local_train(
        worker, start, epochs=2, loss=SoftmaxCrossEntropy(),
        optimizer_factory=lambda: Adam(0.01), latency=1.0,
    )
    assert res.weights.shape == start.shape
    assert not np.allclose(res.weights, start)
    assert res.n_samples == client.n_train
    assert np.isfinite(res.train_loss)
    assert res.latency == 1.0


def test_local_train_deterministic(client):
    worker = _worker()
    start = worker.get_flat_weights()
    kwargs = dict(
        epochs=2, loss=SoftmaxCrossEntropy(),
        optimizer_factory=lambda: Adam(0.01), latency=0.5,
    )
    r1 = client.local_train(worker, start.copy(), **kwargs)
    client.schedule.advance_to(0)
    r2 = client.local_train(worker, start.copy(), **kwargs)
    np.testing.assert_array_equal(r1.weights, r2.weights)


def test_proximal_constrains_update(client):
    worker = _worker()
    start = worker.get_flat_weights()
    kwargs = dict(epochs=3, loss=SoftmaxCrossEntropy(),
                  optimizer_factory=lambda: Adam(0.01), latency=0.5)
    client.schedule.advance_to(0)
    free = client.local_train(worker, start.copy(), lam=0.0, **kwargs)
    client.schedule.advance_to(0)
    tied = client.local_train(worker, start.copy(), lam=50.0, **kwargs)
    d_free = np.linalg.norm(free.weights - start)
    d_tied = np.linalg.norm(tied.weights - start)
    assert d_tied < d_free


def test_requires_latency(client):
    """A client draws no latency of its own: its launcher passes one."""
    worker = _worker()
    with pytest.raises(TypeError, match="latency"):
        client.local_train(
            worker, worker.get_flat_weights(), epochs=1,
            loss=SoftmaxCrossEntropy(), optimizer_factory=lambda: Adam(0.01),
        )


def test_rejects_zero_epochs(client, rng):
    worker = _worker()
    with pytest.raises(ValueError):
        client.local_train(
            worker, worker.get_flat_weights(), epochs=0,
            loss=SoftmaxCrossEntropy(), optimizer_factory=lambda: Adam(0.01),
            latency=1.0,
        )


def test_training_improves_local_fit(client):
    worker = _worker()
    start = worker.get_flat_weights()
    x, y = client.data.x_train, client.data.y_train
    worker.set_flat_weights(start)
    before = worker.evaluate(x, y)["accuracy"]
    res = client.local_train(
        worker, start, epochs=20, loss=SoftmaxCrossEntropy(),
        optimizer_factory=lambda: Adam(0.02), latency=1.0,
    )
    worker.set_flat_weights(res.weights)
    after = worker.evaluate(x, y)["accuracy"]
    assert after > before
