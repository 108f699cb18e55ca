"""Embedding and LSTM tests, including full BPTT gradient checks."""

import numpy as np
import pytest

from repro.nn.recurrent import LSTM, Embedding
from tests.helpers import check_layer_gradients, numeric_grad


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [2, 9]])
        out = emb.forward(ids)
        np.testing.assert_array_equal(out[0, 1], emb.w.data[2])
        np.testing.assert_array_equal(out[1, 1], emb.w.data[9])

    def test_out_of_range_rejected(self, rng):
        emb = Embedding(5, 3, rng=rng)
        with pytest.raises(ValueError):
            emb.forward(np.array([[5]]))
        with pytest.raises(ValueError):
            emb.forward(np.array([[-1]]))

    def test_scatter_add_for_repeated_ids(self, rng):
        emb = Embedding(6, 3, rng=rng)
        ids = np.array([[2, 2, 2]])
        emb.forward(ids)
        g = np.ones((1, 3, 3))
        emb.backward(g)
        np.testing.assert_allclose(emb.w.grad[2], 3.0)
        np.testing.assert_allclose(emb.w.grad[0], 0.0)

    def test_gradient_numeric(self, rng):
        emb = Embedding(7, 3, rng=rng)
        ids = rng.integers(0, 7, size=(2, 4))
        r = rng.normal(size=(2, 4, 3))

        def objective():
            return float(np.sum(emb.forward(ids) * r))

        emb.w.grad.fill(0.0)
        emb.forward(ids)
        emb.backward(r)
        num = numeric_grad(objective, emb.w.data)
        np.testing.assert_allclose(emb.w.grad, num, atol=1e-6)


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = LSTM(5, 7, rng=rng)
        x = rng.normal(size=(3, 4, 5))
        assert lstm.forward(x).shape == (3, 7)

    def test_forget_bias_initialized_to_one(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        np.testing.assert_array_equal(lstm.b.data[4:8], 1.0)
        np.testing.assert_array_equal(lstm.b.data[:4], 0.0)

    def test_hidden_state_bounded(self, rng):
        """|h| ≤ 1 by construction (o·tanh(c))."""
        lstm = LSTM(4, 6, rng=rng)
        out = lstm.forward(rng.normal(0, 10, size=(8, 12, 4)))
        assert np.all(np.abs(out) <= 1.0)

    def test_steps_follow_the_gate_equations(self, rng):
        """The output is the last hidden state of the recurrence, with the
        gates in ``[i, f, o, g]`` order, written out step by step here."""
        lstm = LSTM(3, 4, rng=rng)
        x = rng.normal(size=(2, 3, 3))
        h = c = np.zeros((2, 4))
        for step in range(3):
            z = x[:, step] @ lstm.wx.data + h @ lstm.wh.data + lstm.b.data
            i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * 4 : (k + 1) * 4])) for k in range(3))
            c = f * c + i * np.tanh(z[:, 12:])
            h = o * np.tanh(c)
        np.testing.assert_allclose(lstm.forward(x), h, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_gradients_last_output(self, steps, rng):
        lstm = LSTM(3, 4, rng=rng)
        check_layer_gradients(
            lstm, rng.normal(size=(2, steps, 3)), rng=rng, atol=1e-5, rtol=1e-3
        )

    def test_longer_sequence_gradients(self, rng):
        """BPTT through 10 steps stays numerically exact."""
        lstm = LSTM(2, 3, rng=rng)
        check_layer_gradients(
            lstm, rng.normal(size=(1, 10, 2)), rng=rng, atol=1e-5, rtol=1e-3
        )

    def test_params(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        names = [p.name for p in lstm.params]
        assert names == ["lstm.wx", "lstm.wh", "lstm.b"]
        assert lstm.wx.data.shape == (3, 16)
        assert lstm.wh.data.shape == (4, 16)

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            LSTM(0, 4, rng=rng)
