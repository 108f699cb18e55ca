"""Model-zoo builder tests: shapes, trainability, reproducibility."""

import numpy as np

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam
from repro.nn.zoo import (
    build_cnn,
    build_femnist_cnn,
    build_logistic,
    build_lstm_classifier,
)


def test_cnn_output_shape(rng):
    m = build_cnn((8, 8, 3), 10, rng=rng, filters=(4, 8, 8), dense_units=16)
    out = m.forward(rng.normal(size=(5, 8, 8, 3)))
    assert out.shape == (5, 10)


def test_cnn_paper_architecture_param_order(rng):
    """Paper CNN: 3 convs (32/64/64) then dense 64 and num_classes."""
    m = build_cnn((16, 16, 3), 10, rng=rng)
    names = [p.name for p in m.params]
    assert names == [
        "conv1.w", "conv1.b", "conv2.w", "conv2.b", "conv3.w", "conv3.b",
        "fc1.w", "fc1.b", "fc2.w", "fc2.b",
    ]
    assert m.params[0].data.shape == (27, 32)  # 3x3x3 → 32 filters


def test_femnist_cnn_shape(rng):
    m = build_femnist_cnn((8, 8, 1), 62, rng=rng, filters=(4, 8), dense_units=16)
    assert m.forward(rng.normal(size=(3, 8, 8, 1))).shape == (3, 62)


def test_logistic_is_single_dense(rng):
    m = build_logistic(20, 3, rng=rng)
    assert len(m.params) == 2
    assert m.forward(rng.normal(size=(4, 20))).shape == (4, 3)


def test_lstm_classifier_shapes(rng):
    m = build_lstm_classifier(30, 30, rng=rng, embed_dim=8, hidden_dim=8)
    tokens = rng.integers(0, 30, size=(6, 5))
    assert m.forward(tokens).shape == (6, 30)


def test_builders_reproducible():
    a = build_lstm_classifier(30, 30, rng=np.random.default_rng(42), embed_dim=8, hidden_dim=8)
    b = build_lstm_classifier(30, 30, rng=np.random.default_rng(42), embed_dim=8, hidden_dim=8)
    np.testing.assert_array_equal(a.get_flat_weights(), b.get_flat_weights())


def test_cnn_trains_on_separable_data(rng):
    """Sanity: the CNN must fit a trivially separable image problem."""
    m = build_cnn((8, 8, 1), 2, rng=rng, filters=(4, 4, 4), dense_units=8)
    n = 40
    y = rng.integers(0, 2, size=n)
    x = np.zeros((n, 8, 8, 1))
    x[y == 1, :4, :, 0] = 1.0
    x[y == 0, 4:, :, 0] = 1.0
    x += rng.normal(0, 0.1, size=x.shape)
    loss, opt = SoftmaxCrossEntropy(), Adam(0.01)
    for _ in range(40):
        m.train_on_batch(x, y, loss, opt)
    assert m.evaluate(x, y)["accuracy"] >= 0.95


def test_lstm_trains_on_token_rule(rng):
    """LSTM must learn 'label = last token' quickly."""
    m = build_lstm_classifier(8, 8, rng=rng, embed_dim=8, hidden_dim=12,
                              dropout=0.0, batch_norm=False)
    x = rng.integers(0, 8, size=(80, 6))
    y = x[:, -1]
    loss, opt = SoftmaxCrossEntropy(), Adam(0.03)
    for _ in range(60):
        m.train_on_batch(x, y, loss, opt)
    assert m.evaluate(x, y)["accuracy"] >= 0.9
