"""Model builders mirroring the paper's architectures (§6 Models).

Paper architectures:

- CIFAR-10 / Fashion-MNIST / FEMNIST: CNN with three conv layers (32, 64,
  64 filters) followed by dense layers of 64 and ``num_classes`` units.
- Sentiment140: logistic regression (the convex case).
- Reddit: embedding (10000 → 128) → LSTM (dropout 0.1) → batch-norm →
  dense softmax head.

Builders accept a ``filters``/``hidden`` scale knob so the scale presets
(``repro.experiments.config.SCALES``) can shrink capacity without changing
the topology.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import BatchNorm, Dense, Dropout, Flatten
from repro.nn.model import Sequential

__all__ = [
    "build_cnn",
    "build_femnist_cnn",
    "build_logistic",
    "build_mlp",
    "build_lstm_classifier",
]


def build_cnn(
    input_shape: tuple[int, int, int],
    num_classes: int,
    *,
    rng: np.random.Generator,
    filters: tuple[int, int, int] = (32, 64, 64),
    dense_units: int = 64,
) -> Sequential:
    """The paper's image CNN: conv(f1)-pool-conv(f2)-pool-conv(f3)-dense."""
    from repro.nn.conv import Conv2D
    from repro.nn.pooling import MaxPool2D

    h, w, c = input_shape
    layers: list = []
    layers.append(Conv2D(c, filters[0], 3, padding="same", rng=rng, name="conv1"))
    layers.append(ReLU())
    layers.append(MaxPool2D(2))
    layers.append(Conv2D(filters[0], filters[1], 3, padding="same", rng=rng, name="conv2"))
    layers.append(ReLU())
    layers.append(MaxPool2D(2))
    layers.append(Conv2D(filters[1], filters[2], 3, padding="same", rng=rng, name="conv3"))
    layers.append(ReLU())
    layers.append(Flatten())
    spatial = (h // 4) * (w // 4)
    layers.append(Dense(spatial * filters[2], dense_units, rng=rng, name="fc1"))
    layers.append(ReLU())
    layers.append(Dense(dense_units, num_classes, rng=rng, name="fc2"))
    return Sequential(layers, name="cnn")


def build_femnist_cnn(
    input_shape: tuple[int, int, int],
    num_classes: int,
    *,
    rng: np.random.Generator,
    filters: tuple[int, int] = (32, 64),
    dense_units: int = 128,
) -> Sequential:
    """A slightly smaller two-conv CNN for the 62-class FEMNIST analogue."""
    from repro.nn.conv import Conv2D
    from repro.nn.pooling import MaxPool2D

    h, w, c = input_shape
    layers = [
        Conv2D(c, filters[0], 3, padding="same", rng=rng, name="conv1"),
        ReLU(),
        MaxPool2D(2),
        Conv2D(filters[0], filters[1], 3, padding="same", rng=rng, name="conv2"),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense((h // 4) * (w // 4) * filters[1], dense_units, rng=rng, name="fc1"),
        ReLU(),
        Dense(dense_units, num_classes, rng=rng, name="fc2"),
    ]
    return Sequential(layers, name="femnist_cnn")


def build_logistic(
    input_dim: int, num_classes: int, *, rng: np.random.Generator
) -> Sequential:
    """Multinomial logistic regression — the paper's convex Sentiment140 model."""
    return Sequential([Dense(input_dim, num_classes, rng=rng, name="logit")], name="logistic")


def build_mlp(
    input_dim: int,
    num_classes: int,
    *,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (64,),
) -> Sequential:
    """Small MLP used by the `tiny` test preset (fast, still non-convex)."""
    layers: list = []
    prev = input_dim
    for i, width in enumerate(hidden):
        layers.append(Dense(prev, width, rng=rng, name=f"fc{i + 1}"))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, num_classes, rng=rng, name="head"))
    return Sequential(layers, name="mlp")


def build_lstm_classifier(
    vocab_size: int,
    num_classes: int,
    *,
    rng: np.random.Generator,
    embed_dim: int = 32,
    hidden_dim: int = 32,
    dropout: float = 0.1,
    batch_norm: bool = True,
) -> Sequential:
    """The paper's Reddit model shape: embed → LSTM(+dropout) → BN → dense.

    The paper uses embed 10000→128 and a 10000-unit head; the synthetic
    Reddit analogue uses a smaller vocabulary, so defaults are scaled down
    while preserving the topology.
    """
    from repro.nn.recurrent import LSTM, Embedding

    layers: list = [
        Embedding(vocab_size, embed_dim, rng=rng),
        LSTM(embed_dim, hidden_dim, rng=rng),
    ]
    if dropout > 0:
        layers.append(Dropout(dropout))
    if batch_norm:
        layers.append(BatchNorm(hidden_dim))
    layers.append(Dense(hidden_dim, num_classes, rng=rng, name="head"))
    return Sequential(layers, name="lstm_classifier")
