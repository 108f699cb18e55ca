"""Parameter container: one named entry of a model's flat weight vector."""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A named array of a model's flat weight vector, with an accumulated
    gradient.

    Gradients are *accumulated* into :attr:`grad` by layer backward passes and
    cleared after each optimizer step (a whole-store fill), so multiple
    backward passes (e.g. BPTT time steps) compose additively. A
    ``trainable=False`` entry (batch-norm's running statistics) travels and
    is aggregated like any other, but only its layer's forward writes it:
    no optimizer step or proximal pull moves it, and its gradient stays 0.

    A parameter starts out owning its arrays. When a model adopts it into a
    :class:`~repro.nn.store.FlatParameterStore`, :attr:`data` and :attr:`grad`
    are rebound to contiguous views of the store's flat buffers and
    :attr:`store` points back at the owner — mutating either side of the
    aliasing is visible on the other. Pickling or deepcopying a parameter
    detaches it (the arrays are materialized as owned copies and ``store``
    resets to None); the enclosing model re-attaches a fresh store on restore.
    """

    __slots__ = ("name", "data", "grad", "store", "trainable")

    def __init__(self, data: np.ndarray, name: str = "param", *, trainable: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.store = None
        self.trainable = trainable

    @property
    def size(self) -> int:
        return self.data.size

    # ------------------------------------------------------------------ #
    # Pickle / deepcopy: views into a shared flat buffer cannot survive
    # either (NumPy serializes a view as a standalone array), so both paths
    # go through an explicitly detached state.
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return {
            "name": self.name,
            "data": np.array(self.data, copy=True),
            "grad": np.array(self.grad, copy=True),
            "trainable": self.trainable,
        }

    def __setstate__(self, state):
        self.name = state["name"]
        self.data = state["data"]
        self.grad = state["grad"]
        self.trainable = state["trainable"]
        self.store = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.data.shape})"
