"""From-scratch, vectorized NumPy neural-network substrate.

The paper trains TensorFlow models; offline we provide an equivalent
substrate: layers with explicit forward/backward passes, SGD/Adam
optimizers, and a ``Sequential`` container whose weights can be flattened to
a single vector — the representation every FL aggregation and compression
component in this library operates on.

Every layer here has the planned kernels a :class:`TrainingPlan` runs
(``scratch=`` forms of its forward and backward, stacked over a cohort),
so every model built from them trains its cohorts in lockstep; the plan
refuses a layer without them by name.

Shapes follow the NHWC convention for images: ``(batch, height, width,
channels)``. Token inputs are integer arrays ``(batch, time)``.

The convolution, pooling and recurrent layers load on first use, so a run
whose model has none of them does not import them.
"""

import importlib

from repro.nn.activations import ReLU
from repro.nn.layers import BatchNorm, Dense, Dropout, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential, WeightSpec
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.plan import ScratchArena, TrainingPlan
from repro.nn.proximal import ProximalTerm
from repro.nn.tensor import Parameter
from repro.nn.zoo import (
    build_cnn,
    build_femnist_cnn,
    build_logistic,
    build_lstm_classifier,
)

__all__ = [
    "Parameter",
    "Dense",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "Conv2D",
    "MaxPool2D",
    "Embedding",
    "LSTM",
    "ReLU",
    "SoftmaxCrossEntropy",
    "Optimizer",
    "SGD",
    "Adam",
    "Sequential",
    "WeightSpec",
    "ProximalTerm",
    "ScratchArena",
    "TrainingPlan",
    "build_cnn",
    "build_femnist_cnn",
    "build_logistic",
    "build_lstm_classifier",
]


#: Lazily loaded exports: name -> the module that defines it.
_LAZY = {
    "Conv2D": "repro.nn.conv",
    "MaxPool2D": "repro.nn.pooling",
    "LSTM": "repro.nn.recurrent",
    "Embedding": "repro.nn.recurrent",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
