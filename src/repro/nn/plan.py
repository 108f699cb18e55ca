"""Fused local-training kernel: compiled layer plans + scratch arenas.

Profiling (``history.meta["phase_seconds"]``) showed that once weight
marshalling became one memcpy (the flat parameter store, PR 3), the
remaining per-round cost of local training was *per-batch Python overhead*:
generator re-entry, attribute lookups, and — dominating on the small models
FL clients actually train — a few dozen NumPy temporary allocations per
batch for activations, masks, im2col columns, and gradients.

:class:`TrainingPlan` removes that overhead structurally, the same way the
store removed marshalling:

- the layer forward/backward call sequence is **compiled once** per
  :class:`~repro.nn.model.Sequential` into flat lists of pre-bound step
  closures (no per-batch layer iteration through ``Sequential.forward`` /
  ``backward``, no generator machinery);
- every activation, gradient, mask, im2col column block, and batch-gather
  buffer lives in a :class:`ScratchArena` — allocated once at the largest
  batch shape seen and reused via ``out=``-style writes across every batch
  of every epoch (layers that support it take optional ``out``/``scratch``
  parameters; with ``scratch=None`` they allocate, which is the reference
  the plan kernels are tested against);
- the whole ``epochs x batches`` loop of ``SimClient.local_train`` runs
  inside :meth:`TrainingPlan.run_epochs`: one Python frame per batch,
  gathers via ``np.take(..., out=batch_buf)``, gradients zeroed by the
  store's single ``zero_grad`` memset, and the optimizer stepping over
  the store's whole buffers.

Every planned operation is the ``out=`` form of exactly the operation the
allocating per-layer reference (``Sequential.train_on_batch``) runs — same
ufuncs, same BLAS calls, same order — so the plan is **bit-identical at
float64** to it, checked kernel by kernel and loop by loop in
``tests/nn/test_plan.py`` and end to end by the golden-history fixtures.
Every layer a :mod:`repro.nn.zoo` builder instantiates has planned kernels —
the recurrent model too: the LSTM runs BPTT over time-major slabs whose
per-timestep views are bound once per input shape
(:meth:`ScratchArena.take_bound`). Layers without them (GRU, Flatten,
Softmax, ...) run their normal forward/backward inside the compiled step
list, so any model gets a plan and unsupported layers simply keep
allocating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.data.batching import FixedBatchSchedule
    from repro.nn.losses import Loss
    from repro.nn.model import Sequential
    from repro.nn.optimizers import Optimizer

__all__ = ["ScratchArena", "TrainingPlan"]


class ScratchArena:
    """Keyed pool of reusable NumPy buffers for one plan's batch loop.

    ``take(key, shape, dtype)`` returns a C-contiguous view of a lazily
    allocated buffer. The leading axis is the *growable* one (the batch /
    row axis): the underlying buffer is sized to the largest leading extent
    ever requested for that key, and smaller requests get the ``[:n]``
    prefix view — which is itself contiguous, so BLAS kernels see the same
    memory layout a fresh allocation would have had. A request with
    different trailing dims or dtype reallocates.

    Buffers are zero-filled on (re)allocation so callers that rely on
    untouched regions staying zero (the padded-input frame around a
    convolution's interior) never see garbage.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self):
        self._buffers: dict = {}
        #: (key, lead) -> prefix view of the key's buffer. A ragged final
        #: batch alternates lead sizes every round; caching the sliced view
        #: keeps it on the same two-dict-probe fast path as full batches.
        self._views: dict = {}

    def take(self, key, shape: tuple, dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        # Fast path: the steady state of a compiled batch loop is an exact
        # repeat of a previous batch's shapes, and take() runs ~50x per
        # batch — it must cost a dict probe and two compares, nothing more.
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            return buf
        view = self._views.get((key, shape[0]))
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        return self._grow(key, shape, dtype)

    def _grow(self, key, shape: tuple, dtype) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if (
            buf is None
            or buf.dtype != dtype
            or buf.shape[1:] != shape[1:]
            or buf.shape[0] < shape[0]
        ):
            lead = shape[0]
            if buf is not None and buf.dtype == dtype and buf.shape[1:] == shape[1:]:
                lead = max(lead, buf.shape[0])  # grow, never shrink
            buf = np.zeros((lead,) + shape[1:], dtype=dtype)
            self._buffers[key] = buf
            # Views of the replaced buffer are stale: drop this key's.
            self._views = {k: v for k, v in self._views.items() if k[0] != key}
        if shape[0] == buf.shape[0]:
            return buf  # the fast path serves this case directly
        view = buf[: shape[0]]
        self._views[(key, shape[0])] = view
        return view

    def slot(self, index) -> Callable:
        """A per-layer ``scratch(name, shape, dtype)`` provider.

        Names starting with ``"~"`` resolve to an arena-wide shared pool
        instead of the layer's own slot: short-lived backward scratch
        (column gradients, scatter buffers) is dead by the time the next
        layer's backward runs, so sharing one max-sized buffer per name
        across layers shrinks the arena's cache footprint substantially.
        Shared buffers are *not* zero-filled between takes. With ``bind``
        the request goes to :meth:`take_bound` over a flat buffer of the
        layer's own.
        """

        def scratch(name, shape, dtype, bind=None):
            if bind is not None:
                return self.take_bound((index, name), shape, dtype, bind)
            if name[0] == "~":
                return self.take_shared(name, shape, dtype)
            return self.take((index, name), shape, dtype)

        return scratch

    def take_shared(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """A reshaped view of a flat arena-wide buffer for ``name``.

        Unlike :meth:`take`, requests with different shapes share one 1-D
        buffer sized to the largest element count seen — callers must fully
        overwrite (or explicitly zero) what they take.
        """
        view = self._views.get((name, shape))
        if view is not None and view.dtype == dtype:
            return view
        return self._grow_shared(name, shape, dtype)

    def take_bound(self, key, shape: tuple, dtype, bind: Callable):
        """``bind(view)`` of :meth:`take_shared`'s view for ``key``, cached.

        For kernels that carve one buffer into many pre-sliced views (an
        LSTM's per-timestep slabs): slicing happens once per shape, and
        again only when the buffer is reallocated. Because every shape is
        a prefix of one grow-only flat buffer, ragged batch sizes add view
        lists, not memory — and, as with :meth:`take_shared`, what one
        shape wrote is garbage to the next.
        """
        bound = self._views.get((key, shape, dtype))
        if bound is None:
            bound = bind(self._grow_shared(key, shape, dtype))
            self._views[(key, shape, dtype)] = bound
        return bound

    def _grow_shared(self, name, shape: tuple, dtype) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        size = 1
        for s in shape:
            size *= s
        key = (name, dtype)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            grown = size if buf is None else max(size, buf.size)
            buf = np.empty(grown, dtype=dtype)
            self._buffers[key] = buf
            self._views = {
                k: v for k, v in self._views.items() if k[0] != name
            }
        view = buf[:size].reshape(shape)
        self._views[(name, shape)] = view
        return view

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (memory-behavior tests)."""
        return sum(b.nbytes for b in self._buffers.values())

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` shares memory with any arena buffer."""
        return any(np.shares_memory(array, b) for b in self._buffers.values())

    def release(self) -> None:
        self._buffers.clear()
        self._views.clear()


def _compile_layer(
    layer, scratch, *, input_grad: bool = True, inplace: bool = False
) -> tuple[Callable, Callable]:
    """Pre-bound (forward, backward) step closures for one layer.

    Plan-aware layers (``layer.plan_aware``) receive the arena-backed
    ``scratch`` provider and run their ``out=``-form kernels; everything
    else is wrapped as-is, so its allocation behavior is exactly the
    per-layer reference's.

    ``input_grad=False`` (the model's first layer) skips computing
    ``dL/d(input)`` entirely — nothing consumes it, and for a convolution
    that deletes the whole col2im scatter. Parameter gradients are
    unaffected, so training stays bit-identical; this is the structural win
    a compiled whole-graph plan has over layer-local execution.

    ``inplace=True`` lets an activation overwrite its input buffer (legal
    only when the plan knows the producer was another planned layer, so
    the buffer is arena-owned and dead after this step — never caller
    data). Elementwise, so values are unchanged.
    """
    if getattr(layer, "plan_aware", False):
        fwd_m, bwd_m = layer.forward, layer.backward
        supports_inplace = inplace and getattr(layer, "plan_inplace", False)

        if supports_inplace:

            def fwd(x, training):
                return fwd_m(x, training, scratch=scratch, out=x)

        else:

            def fwd(x, training):
                return fwd_m(x, training, scratch=scratch)

        if input_grad:

            def bwd(grad):
                return bwd_m(grad, scratch=scratch)

        else:

            def bwd(grad):
                return bwd_m(grad, scratch=scratch, input_grad=False)

        return fwd, bwd
    return layer.forward, layer.backward


class TrainingPlan:
    """A ``Sequential``'s layer loop, compiled once and replayed per batch.

    Build via :meth:`Sequential.training_plan` (which caches one plan per
    loss object). The plan owns a :class:`ScratchArena` shared by all of
    its steps; results handed back to callers (losses, final weights) are
    always owned copies, never arena views.
    """

    def __init__(self, model: "Sequential", loss: "Loss | None" = None):
        self.model = model
        self.loss = loss
        self.arena = ScratchArena()
        self._store = model.store
        self._params = self._store.params
        self._fwds = []
        self._bwds = []
        prev_overwritable = False
        for i, layer in enumerate(model.layers):
            fwd, bwd = _compile_layer(
                layer,
                self.arena.slot(i),
                input_grad=i > 0,
                # In-place activation: only over a buffer another planned
                # layer just produced (arena-owned) whose backward does not
                # read its own output values (Tanh/Sigmoid cache theirs for
                # the derivative — overwriting would corrupt gradients).
                inplace=i > 0 and prev_overwritable,
            )
            self._fwds.append(fwd)
            self._bwds.append(bwd)
            prev_overwritable = getattr(layer, "plan_aware", False) and not getattr(
                layer, "plan_backward_needs_output", False
            )
        self._bwds.reverse()
        self._opt_scratch = self.arena.slot("optimizer")
        if loss is not None and getattr(loss, "plan_aware", False):
            slot = self.arena.slot("loss")
            self._loss_fwd = lambda logits, y: loss.forward(logits, y, scratch=slot)
            self._loss_bwd = lambda: loss.backward(scratch=slot)
        elif loss is not None:
            self._loss_fwd = loss.forward
            self._loss_bwd = loss.backward
        else:
            self._loss_fwd = self._loss_bwd = None

    # ------------------------------------------------------------------ #
    def _cast_input(self, x: np.ndarray, key) -> np.ndarray:
        """Replicate ``Sequential.forward``'s model-boundary dtype cast."""
        dt = self.model.dtype
        if (
            dt != np.float64
            and np.issubdtype(x.dtype, np.floating)
            and x.dtype != dt
        ):
            cast = self.arena.take(key, x.shape, dt)
            np.copyto(cast, x)  # same rounding as astype
            return cast
        return x

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """One forward pass through the compiled steps.

        The returned logits may be an arena view: consume them before the
        next :meth:`forward` call (the chunked evaluator's access pattern).
        """
        x = self._cast_input(np.asarray(x), ("in", "cast_fwd"))
        for fwd in self._fwds:
            x = fwd(x, training)
        return x

    def _train_batch(self, xb, yb, optimizer, grad_hook) -> float:
        x = xb
        for fwd in self._fwds:
            x = fwd(x, True)
        value = self._loss_fwd(x, yb)
        g = self._loss_bwd()
        for bwd in self._bwds:
            g = bwd(g)
        if grad_hook is not None:
            grad_hook(self._params)
        optimizer.step(self._params, store=self._store, scratch=self._opt_scratch)
        return value

    def run_epochs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        schedule: "FixedBatchSchedule",
        start_epoch: int,
        epochs: int,
        optimizer: "Optimizer",
        *,
        grad_hook=None,
    ) -> float:
        """Run ``epochs`` epochs of ``schedule`` batches over ``(x, y)``.

        Returns the mean batch loss. Caller-owned ``x``/``y`` are only ever
        *read* (gathers copy into arena buffers), and layer forward caches
        are released before returning so worker replicas stop pinning
        last-batch activations between rounds.
        """
        if self._loss_fwd is None:
            raise ValueError("plan was compiled without a loss; cannot train")
        n = x.shape[0]
        bs = schedule.batch_size
        arena = self.arena
        n_batches = epochs * schedule.batches_per_epoch()
        losses = np.empty(n_batches, dtype=np.float64)
        i = 0
        for epoch in range(start_epoch, start_epoch + epochs):
            order = schedule.epoch_order(epoch)
            for s0 in range(0, n, bs):
                idx = order[s0 : s0 + bs]
                xb = arena.take(("in", "x"), (idx.size,) + x.shape[1:], x.dtype)
                np.take(x, idx, axis=0, out=xb)
                yb = arena.take(("in", "y"), (idx.size,) + y.shape[1:], y.dtype)
                np.take(y, idx, axis=0, out=yb)
                xb = self._cast_input(xb, ("in", "cast"))
                losses[i] = self._train_batch(xb, yb, optimizer, grad_hook)
                i += 1
        self.release_caches()
        return float(np.mean(losses[:i]))

    def release_caches(self) -> None:
        """Drop per-layer forward caches (``self._x`` etc.) and loss state.

        The arena keeps its buffers (that is the point of an arena); what
        this releases are the *references* layers hold onto between rounds,
        which would otherwise pin last-batch activations — and, for the
        first layer, gathered client data — for the life of the replica.
        """
        self.model.release_caches()
        if self.loss is not None:
            self.loss.release_caches()
