"""Dense / Flatten / Dropout / BatchNorm unit and gradient tests."""

import numpy as np
import pytest

from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import BatchNorm, Dense, Dropout, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.nn.plan import ScratchArena, TrainingPlan
from tests.helpers import check_layer_gradients, numeric_grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(5, 3, rng=rng)
        out = layer.forward(rng.normal(size=(7, 5)))
        assert out.shape == (7, 3)

    def test_forward_linearity(self, rng):
        layer = Dense(4, 2, rng=rng)
        x1, x2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        lhs = layer.forward(x1 + x2)
        rhs = layer.forward(x1) + layer.forward(x2) - layer.b.data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_gradients(self, rng):
        layer = Dense(4, 3, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(5, 4)), rng=rng)

    def test_gradients_time_distributed(self, rng):
        layer = Dense(4, 3, rng=rng)
        check_layer_gradients(layer, rng.normal(size=(2, 6, 4)), rng=rng)

    def test_gradient_accumulation(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(g)
        once = layer.w.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.w.grad, 2 * once)

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng=rng)
        with pytest.raises(ValueError):
            Dense(3, -1, rng=rng)

    def test_params_order_stable(self, rng):
        layer = Dense(3, 2, rng=rng)
        assert [p.name for p in layer.params] == [p.name for p in layer.params]
        assert len(layer.params) == 2


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 4, 5, 2))
        out = layer.forward(x)
        assert out.shape == (3, 40)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)

    def test_gradients(self, rng):
        check_layer_gradients(Flatten(), rng.normal(size=(2, 3, 4)), rng=rng)

    def test_planned_forward_is_a_view_of_its_input(self, rng):
        x = rng.normal(size=(3, 4, 5, 2))
        out = Flatten().forward(x, True, scratch=ScratchArena().slot(0))
        assert out.shape == (3, 40) and np.shares_memory(out, x)
        np.testing.assert_array_equal(out, x.reshape(3, -1))

    def test_planned_backward_is_a_view_of_the_grad(self, rng):
        layer, scratch = Flatten(), ScratchArena().slot(0)
        layer.forward(rng.normal(size=(3, 4, 5)), True, scratch=scratch)
        grad = rng.normal(size=(3, 20))
        back = layer.backward(grad, scratch=scratch)
        assert back.shape == (3, 4, 5) and np.shares_memory(back, grad)
        assert layer.backward(grad, scratch=scratch, input_grad=False) is None

    def test_the_next_layer_never_overwrites_what_it_hands_through(self, rng):
        """Flatten's output is Tanh's cached output, reshaped: a ReLU after
        it must write its own buffer, or Tanh's backward reads ReLU's."""
        dense = Dense(4, 6, rng=rng)
        tanh = Tanh()
        model = Sequential([dense, tanh, Flatten(), ReLU(), Dense(6, 3, rng=rng)])
        x = rng.normal(size=(16, 4))
        TrainingPlan(model, SoftmaxCrossEntropy()).forward(x, training=True)
        np.testing.assert_array_equal(tanh._out, np.tanh(x @ dense.w.data + dense.b.data))
        assert (tanh._out < 0).any()


#: Every bit generator NumPy ships.
_BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


class TestDropout:
    @pytest.mark.parametrize("bits", _BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_masks_come_from_the_generator_it_is_handed(self, bits, rng):
        x = rng.normal(size=(6, 5))
        out = Dropout(0.3).forward(x, training=True, rngs=[np.random.Generator(bits(0))])
        keep = np.random.Generator(bits(0)).random(x.shape) < 0.7
        np.testing.assert_array_equal(out, x * (keep / 0.7))

    def test_without_a_generator_masks_come_from_seed_0(self, rng):
        x = rng.normal(size=(6, 5))
        np.testing.assert_array_equal(
            Dropout(0.3).forward(x, training=True),
            Dropout(0.3).forward(x, training=True, rngs=[np.random.default_rng(0)]),
        )

    def test_zero_rate_never_draws(self, rng):
        stream = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        assert Dropout(0.0).forward(x, training=True, rngs=[stream]) is x
        assert stream.random() == np.random.default_rng(3).random()

    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5)
        x = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.3)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True, rngs=[rng])
        assert abs(out.mean() - 1.0) < 0.02

    def test_mask_applied_in_backward(self, rng):
        layer = Dropout(0.5)
        x = rng.normal(size=(20, 20))
        out = layer.forward(x, training=True, rngs=[rng])
        grad = layer.backward(np.ones_like(out))
        # Gradient must be zero exactly where the output was zeroed.
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0)
        x = rng.normal(size=(5, 5))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestBatchNorm:
    def test_normalizes_training_batch(self, rng):
        layer = BatchNorm(6)
        x = rng.normal(3.0, 2.5, size=(64, 6))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_track_batch_stats(self, rng):
        layer = BatchNorm(4, momentum=0.5)
        x = rng.normal(2.0, 1.0, size=(128, 4))
        for _ in range(30):
            layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean.data, x.mean(axis=0), atol=1e-3)

    def test_inference_uses_running_stats(self, rng):
        layer = BatchNorm(4)
        x = rng.normal(size=(32, 4))
        layer.forward(x, training=True)
        out1 = layer.forward(x[:3], training=False)
        out2 = layer.forward(x[:3], training=False)
        np.testing.assert_array_equal(out1, out2)

    def test_gradients(self, rng):
        layer = BatchNorm(3)
        check_layer_gradients(
            layer, rng.normal(size=(8, 3)), rng=rng, atol=1e-5, rtol=1e-3
        )

    def test_gamma_beta_trainable_running_statistics_not(self):
        layer = BatchNorm(3)
        assert [(p.name, p.trainable) for p in layer.params] == [
            ("bn.gamma", True),
            ("bn.beta", True),
            ("bn.running_mean", False),
            ("bn.running_var", False),
        ]

    def test_running_statistics_follow_every_trainable_entry(self, rng):
        """In a model's flat vector the statistics sit after every trainable
        entry, the prefix an optimizer step moves: a step never moves them,
        whatever their gradient holds."""
        bn = BatchNorm(4)
        model = Sequential([Dense(3, 4, rng=rng), bn, Dense(4, 2, rng=rng, name="head")])
        store = model.store
        assert [p.name for p in model.params][-2:] == ["bn.running_mean", "bn.running_var"]
        assert store.trainable == store.total - 8
        model.train_on_batch(
            rng.normal(size=(5, 3)), rng.integers(0, 2, 5), SoftmaxCrossEntropy(), SGD(0.1)
        )
        before = model.get_flat_weights()
        store.grad.fill(1.0)
        SGD(0.1).step(store.params, store=store)
        np.testing.assert_array_equal(store.data[store.trainable :], before[store.trainable :])
        assert not np.array_equal(store.data[: store.trainable], before[: store.trainable])


def test_numeric_grad_self_check():
    """The finite-difference helper itself must be right."""
    x = np.array([1.0, 2.0, -0.5])
    g = numeric_grad(lambda: float(np.sum(x**2)), x)
    np.testing.assert_allclose(g, 2 * x, atol=1e-5)
