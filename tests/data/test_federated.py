"""ClientData / FederatedDataset / split tests."""

import numpy as np
import pytest

from repro.data.federated import ClientData, FederatedDataset, train_test_split_client


def _client(cid: int, n: int, rng) -> ClientData:
    x = rng.normal(size=(n, 4))
    y = rng.integers(0, 3, size=n)
    return train_test_split_client(x, y, cid, rng)


class TestSplit:
    def test_80_20_split(self, rng):
        c = train_test_split_client(rng.normal(size=(100, 3)), rng.integers(0, 2, 100), 0, rng)
        assert c.num_train == 80
        assert c.num_test == 20

    def test_minimum_sizes(self, rng):
        c = train_test_split_client(rng.normal(size=(2, 3)), np.array([0, 1]), 0, rng)
        assert c.num_train >= 1 and c.num_test >= 1

    def test_single_sample_goes_to_train(self, rng):
        c = train_test_split_client(rng.normal(size=(1, 3)), np.array([0]), 0, rng)
        assert c.num_train == 1 and c.num_test == 0

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            train_test_split_client(np.zeros((0, 3)), np.zeros(0, dtype=int), 0, rng)

    def test_no_sample_duplication_or_loss(self, rng):
        x = np.arange(50, dtype=float).reshape(50, 1)
        y = np.zeros(50, dtype=int)
        c = train_test_split_client(x, y, 0, rng)
        seen = np.sort(np.concatenate([c.x_train[:, 0], c.x_test[:, 0]]))
        np.testing.assert_array_equal(seen, x[:, 0])


class TestFederatedDataset:
    def test_sizes_and_totals(self, rng):
        clients = [_client(i, 20, rng) for i in range(5)]
        ds = FederatedDataset("toy", clients, 3, (4,))
        assert ds.num_clients == 5
        np.testing.assert_array_equal(ds.client_sizes(), [c.num_train for c in clients])

    def test_global_test_set_concatenates(self, rng):
        clients = [_client(i, 20, rng) for i in range(4)]
        ds = FederatedDataset("toy", clients, 3, (4,))
        x, y = ds.global_test_set()
        assert x.shape[0] == sum(c.num_test for c in clients)
        assert x.shape[0] == y.shape[0]

    def test_global_test_set_subsampling(self, rng):
        clients = [_client(i, 50, rng) for i in range(3)]
        ds = FederatedDataset("toy", clients, 3, (4,))
        x, _ = ds.global_test_set(max_per_client=2)
        assert x.shape[0] == 6

    def test_validate_catches_bad_labels(self, rng):
        c = _client(0, 20, rng)
        ds = FederatedDataset("toy", [c], 2, (4,))  # labels go up to 2
        with pytest.raises(ValueError):
            ds.validate()

    def test_validate_catches_length_mismatch(self, rng):
        c = _client(0, 20, rng)
        c.y_train = c.y_train[:-1]
        with pytest.raises(ValueError):
            c.validate()

