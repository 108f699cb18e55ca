"""Sequential model container with flat-weight-vector views.

Every FL component in this library — aggregation, compression, the event
simulator — exchanges models as **flat 1-D float vectors**. ``Sequential``
owns the mapping between that vector and the per-layer parameter arrays via
:class:`WeightSpec`, which records shapes and offsets (the "marshalling"
metadata the paper transmits alongside compressed weights, §4.3). The
vector is the whole model a client round returns: batch-norm's running
statistics are entries of it too, non-trainable ones after every
trainable entry.

Every model adopts its parameters into a
:class:`~repro.nn.store.FlatParameterStore`: one contiguous buffer per
model, parameters as views. ``get_flat_weights`` costs one memcpy,
``set_flat_weights`` one vectorized ``copyto``, and optimizer steps run as
whole-buffer operations.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.optimizers import Optimizer
from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter

__all__ = ["Sequential", "WeightSpec"]


@dataclass(frozen=True)
class WeightSpec:
    """Shapes of each tensor of the flat vector, in its order (trainable
    ones first, then batch-norm's running statistics).

    This is the 'dimension information' the paper sends with each compressed
    payload so the receiver can unmarshal (reshape) the decoded value list.
    """

    shapes: tuple[tuple[int, ...], ...]
    #: Element count of each tensor, and of the whole vector.
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)
    _bounds: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Computed once: a spec is split on every bind, and recomputing
        # these per access cost more than the split's own slicing.
        sizes = tuple(int(math.prod(s)) for s in self.shapes)
        ends = tuple(itertools.accumulate(sizes))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "total", ends[-1] if ends else 0)
        object.__setattr__(self, "_bounds", tuple(zip((0, *ends), ends)))

    def offsets(self) -> list[tuple[int, int]]:
        """(start, end) slice bounds of each tensor in the flat vector."""
        return list(self._bounds)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Unmarshal a flat vector into correctly shaped tensors."""
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.size != self.total:
            raise ValueError(
                f"flat vector has size {flat.size}, spec expects {self.total}"
            )
        return [
            flat[a:b].reshape(shape)
            for (a, b), shape in zip(self._bounds, self.shapes)
        ]

    def join(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Marshal per-tensor arrays into a single flat vector."""
        if len(arrays) != len(self.shapes):
            raise ValueError(
                f"expected {len(self.shapes)} arrays, got {len(arrays)}"
            )
        for arr, shape in zip(arrays, self.shapes):
            if tuple(arr.shape) != tuple(shape):
                raise ValueError(f"array shape {arr.shape} != spec shape {shape}")
        return np.concatenate([np.asarray(a).reshape(-1) for a in arrays])


class Sequential:
    """A linear stack of layers with train/eval entry points."""

    def __init__(
        self,
        layers: list[Layer],
        name: str = "model",
        *,
        dtype=np.float64,
    ):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.name = name
        self._dtype = np.dtype(dtype)
        #: Compiled TrainingPlans keyed by loss object (None = forward-only).
        self._plans: dict = {}
        self._attach_store()

    def _attach_store(self) -> None:
        """(Re)bind every parameter into one fresh contiguous store."""
        self._store = FlatParameterStore(
            [p for layer in self.layers for p in layer.params], dtype=self._dtype
        )

    @property
    def store(self) -> FlatParameterStore:
        """The flat parameter store backing every parameter of this model."""
        return self._store

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def astype(self, dtype) -> "Sequential":
        """Re-materialize the parameter buffers in ``dtype`` (in place).

        ``float32`` halves the memory bandwidth of every matmul over the
        weights; histories are only bit-identical across code paths at the
        ``float64`` default. Returns ``self`` for chaining.
        """
        dtype = np.dtype(dtype)
        if dtype == self._dtype:
            return self
        self._dtype = dtype
        self._plans.clear()  # plans cache the store; recompile at new dtype
        self._attach_store()  # casts current values into the new buffer
        return self

    # ------------------------------------------------------------------ #
    # Pickle / deepcopy: parameters detach from the store when serialized
    # (views cannot survive either), so the restored model re-attaches a
    # fresh store over the restored values.
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_store"] = None
        state["_plans"] = {}  # plans hold arena buffers; recompile on restore
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._attach_store()

    # ------------------------------------------------------------------ #
    # Parameter access
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> list[Parameter]:
        return list(self._store.params)

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params)

    def get_flat_weights(self) -> np.ndarray:
        """All parameters marshalled into one 1-D vector (an owned copy)."""
        return self._store.data.copy()  # one memcpy of the flat buffer

    def set_flat_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.size != self._store.total:
            raise ValueError(
                f"flat vector has size {flat.size}, model expects {self._store.total}"
            )
        np.copyto(self._store.data, flat, casting="same_kind")

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(
        self, x: np.ndarray, training: bool = False, *, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """The model's output; in training, layers that draw (dropout) draw
        from ``rng``, the client round's generator."""
        # In a reduced-precision store the activations must enter at the
        # store dtype, or NumPy promotes every matmul back to float64 and
        # the bandwidth win evaporates. Integer inputs (token ids) pass
        # through untouched. At the float64 default this is a no-op.
        if (
            self._dtype != np.float64
            and np.issubdtype(np.asarray(x).dtype, np.floating)
            and x.dtype != self._dtype
        ):
            x = x.astype(self._dtype)
        rngs = None if rng is None else (rng,)
        for layer in self.layers:
            if layer.draws:
                x = layer.forward(x, training=training, rngs=rngs)
            else:
                x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def release_caches(self) -> None:
        """Drop every layer's forward caches (activations, masks, columns).

        Long-lived worker replicas otherwise pin their last batch's
        activations between rounds; the fused training plan calls this at
        the end of every :meth:`~repro.nn.plan.TrainingPlan.run_cohort`.
        """
        for layer in self.layers:
            layer.release_caches()

    # ------------------------------------------------------------------ #
    # Fused training plans
    # ------------------------------------------------------------------ #
    def training_plan(self, loss: Loss | None = None):
        """The compiled :class:`~repro.nn.plan.TrainingPlan` for ``loss``.

        Compiled once per ``(model, loss)`` pair and cached — the plan owns
        the scratch arena reused across every batch of every round this
        model trains (``loss=None`` compiles a forward-only plan, the
        chunked evaluator's case). The cache is invalidated by
        :meth:`astype` and never survives pickling/cloning.
        """
        plan = self._plans.get(loss)
        if plan is None:
            from repro.nn.plan import TrainingPlan

            plan = TrainingPlan(self, loss)
            self._plans[loss] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Training / evaluation
    # ------------------------------------------------------------------ #
    def train_on_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Loss,
        optimizer: Optimizer,
        *,
        grad_hook=None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """One forward/backward/update step. Returns the batch loss.

        ``grad_hook(params)`` runs after backward and before the optimizer
        step — the seam where the FedProx/FedAT proximal term injects
        ``λ (w − w_global)`` into the gradients. ``rng`` is the client
        round's dropout generator (``FixedBatchSchedule.mask_rng``), drawn
        from batch after batch as a training plan draws it.
        """
        logits = self.forward(x, training=True, rng=rng)
        value = loss.forward(logits, y)
        self.backward(loss.backward())
        # The store's own list, not a fresh copy: coverage checks on it are
        # one identity test instead of a scan over every parameter.
        params = self._store.params
        if grad_hook is not None:
            grad_hook(params)
        optimizer.step(params, store=self._store)
        return value

    def predict(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Inference-mode logits, processed in batches to bound memory."""
        outs = []
        for start in range(0, x.shape[0], batch_size):
            outs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outs, axis=0)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, loss: Loss | None = None
    ) -> dict[str, float]:
        """Accuracy (and loss, if a loss is given) on ``(x, y)``."""
        logits = self.predict(x)
        pred = np.argmax(logits, axis=-1)
        y = np.asarray(y).reshape(-1)
        metrics = {"accuracy": float(np.mean(pred == y))}
        if loss is not None:
            metrics["loss"] = loss.forward(logits, y)
        return metrics

    # ------------------------------------------------------------------ #
    # Replication (executor support)
    # ------------------------------------------------------------------ #
    def clone(self, weights: np.ndarray | None = None) -> "Sequential":
        """Deep-copy the model, optionally rebuilding weights from a flat
        vector (validated against this model's :class:`WeightSpec`).

        This is the replica path the cross-process executors use: one
        structural clone per worker process, which then trains each cohort
        from the start weights its chunk message carries.
        """
        replica = copy.deepcopy(self)
        if weights is not None:
            replica.set_flat_weights(weights)  # validates against the spec
        return replica
