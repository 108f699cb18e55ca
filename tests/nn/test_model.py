"""Sequential model and WeightSpec tests."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential, WeightSpec
from repro.nn.optimizers import SGD
from tests.helpers import build_mlp, check_model_loss_gradients


class TestWeightSpec:
    def test_split_join_roundtrip(self, rng):
        spec = WeightSpec(((3, 4), (4,), (4, 2), (2,)))
        flat = rng.normal(size=spec.total)
        arrays = spec.split(flat)
        assert [a.shape for a in arrays] == [(3, 4), (4,), (4, 2), (2,)]
        np.testing.assert_array_equal(spec.join(arrays), flat)

    def test_total(self):
        spec = WeightSpec(((2, 3), (3,)))
        assert spec.total == 9
        assert spec.sizes == (6, 3)

    def test_split_rejects_wrong_size(self):
        spec = WeightSpec(((2, 2),))
        with pytest.raises(ValueError):
            spec.split(np.zeros(5))

    def test_join_rejects_wrong_shapes(self):
        spec = WeightSpec(((2, 2),))
        with pytest.raises(ValueError):
            spec.join([np.zeros((2, 3))])
        with pytest.raises(ValueError):
            spec.join([np.zeros((2, 2)), np.zeros(2)])

    def test_offsets_partition_vector(self):
        spec = WeightSpec(((2, 2), (3,), (1, 5)))
        offs = spec.offsets()
        assert offs == [(0, 4), (4, 7), (7, 12)]


class TestSequential:
    def test_flat_weights_roundtrip(self, rng):
        m = build_mlp(6, 3, rng=rng, hidden=(5,))
        flat = m.get_flat_weights()
        assert flat.shape == (m.num_params,)
        m2 = build_mlp(6, 3, rng=np.random.default_rng(99), hidden=(5,))
        m2.set_flat_weights(flat)
        np.testing.assert_array_equal(m2.get_flat_weights(), flat)

    def test_training_reduces_loss(self, rng):
        m = build_mlp(8, 3, rng=rng, hidden=(16,))
        x = rng.normal(size=(40, 8))
        y = rng.integers(0, 3, size=40)
        loss = SoftmaxCrossEntropy()
        opt = SGD(lr=0.5)
        first = m.train_on_batch(x, y, loss, opt)
        for _ in range(60):
            last = m.train_on_batch(x, y, loss, opt)
        assert last < first * 0.5

    def test_grad_hook_called(self, rng):
        m = build_mlp(4, 2, rng=rng)
        called = []
        m.train_on_batch(
            rng.normal(size=(5, 4)),
            rng.integers(0, 2, 5),
            SoftmaxCrossEntropy(),
            SGD(0.1),
            grad_hook=lambda params: called.append(len(params)),
        )
        assert called == [len(m.params)]

    def test_predict_batching_consistent(self, rng):
        m = build_mlp(6, 4, rng=rng)
        x = rng.normal(size=(23, 6))
        np.testing.assert_allclose(
            m.predict(x, batch_size=7), m.predict(x, batch_size=100), atol=1e-12
        )

    def test_evaluate_accuracy(self, rng):
        m = build_mlp(4, 2, rng=rng)
        x = rng.normal(size=(10, 4))
        y = np.argmax(m.predict(x), axis=1)
        assert m.evaluate(x, y)["accuracy"] == 1.0

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_end_to_end_gradients(self, rng):
        m = Sequential([Dense(4, 3, rng=rng)])
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        check_model_loss_gradients(m, SoftmaxCrossEntropy(), x, y)
