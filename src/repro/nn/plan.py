"""Fused local training: compiled layer plans, scratch arenas, lockstep cohorts.

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
- a whole cohort's local training runs inside :meth:`TrainingPlan.run_cohort`,
  and so does one client's (:meth:`TrainingPlan.run_epochs`,
  ``SimClient.local_train``): the one-member case of the same loop.

**Cohorts in lockstep.** Local rounds are independent of each other — a
client's round is a function of its start weights, its data and its
schedule — so a cohort does not have to train one client after another,
nor start every client from the same weights: each member names its row
of an ``(S, P)`` stack of start weights (a tier round's clients share
one; clients launched from different global versions do not).
:meth:`TrainingPlan.run_cohort` sorts the
members by (shard size, epochs), splits them into *waves* of at most B
clients (as even as B allows), and walks each wave's step index k: the
members active at step k are grouped by batch rows, and each group runs
**one** chain of kernel calls over its client-major ``(G·rows, ...)``
batch. Per-client weights, gradients and optimizer state are rows of
``[B, P]`` slabs, handed to the layers as ``(G, *shape)`` views (a group
of one gets its parameters in their own shape); a group that is not a
contiguous range of rows is made one by moving rows. Nothing of this is
worked out per member per step: a cohort's batch orders and dropout
generators come from one batched stream derivation
(:func:`~repro.data.batching.cohort_streams`), and a wave's groups, row
moves and gather indices are planned as arrays before its first step
(:meth:`TrainingPlan._schedule`), so a step is its kernel chains plus one
``take`` per group for ``x`` and one for ``y``. Only the kernels
where weights enter change: GEMMs become stacked ``(G, M, K) @ (G, K, N)``
calls, bias sums reduce over the row axis, the embedding gathers from and
scatters into per-client tables, batch-norm takes per-client statistics,
and the loss returns per-client means — each bit-identical to the
per-client call (pinned in ``tests/nn/test_cohort.py``). Everything else
(im2col, the LSTM's gates, ReLU, max-pooling, the proximal pull toward
each member's own start row, Adam/SGD with t = k + 1) is row-wise or
elementwise and runs unchanged over the stacked batch.

Nothing crosses members. Batch-norm's running statistics are
non-trainable entries of each member's weight row, which its own batches
update (the optimizer and the proximal pull act on the trainable prefix,
``FlatParameterStore.trainable``, only), and dropout draws each member's
masks from that round's own generator (``FixedBatchSchedule.mask_rng``,
derived like its batches from the seed, the client and the start epoch).
So a member trains the same bits stacked, alone, or in another process.

B is how many one-client arenas fit :data:`WAVE_BYTES`, measured on the
plan's first cohort; it is 1 where one client's arena already exceeds the
budget.

**Stacking is the rule.** There is one path through the plan, so it
compiles only models that can take it, and refuses the rest by name
with a ``ValueError``: a layer without planned kernels (its ``forward``
takes no ``scratch``).

Every planned operation is the ``out=`` form of exactly the operation the
allocating per-layer reference (``Sequential.train_on_batch``) runs — same
ufuncs, same BLAS calls, same order — so the plan is **bit-identical at
float64** to it, checked kernel by kernel and loop by loop in
``tests/nn/test_plan.py`` / ``tests/nn/test_cohort.py`` and end to end by
the golden-history fixtures. Every layer in :mod:`repro.nn` has planned
kernels that stack — the recurrent model too: the LSTM runs BPTT over
time-major slabs whose per-timestep views are bound once per input shape
(:meth:`ScratchArena.take_bound`), and Flatten's are a reshape view.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro.data.batching import cohort_streams
from repro.nn.proximal import add_proximal_grad

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.data.batching import FixedBatchSchedule
    from repro.nn.losses import Loss
    from repro.nn.model import Sequential
    from repro.nn.optimizers import Optimizer

__all__ = ["ScratchArena", "TrainingPlan", "CohortMember", "WAVE_BYTES"]

#: Byte budget of one wave of a cohort: B = how many one-client arenas fit.
#: Per 10-row client batch the bench CNN ran at 444 / 310 / 265 / 245 / 226
#: / 213 / 205 / 237 µs stacked 1 / 2 / 3 / 4 / 5 / 6.4 / 8 / 10 clients
#: deep (one BLAS thread, 2-vCPU x86-64, 2 MiB L2 per core), with arenas of
#: 0.6 to 5.6 MB: the knee sits near 4 MiB, past which the working set
#: leaves L2 and gets slower again.
WAVE_BYTES = 4 << 20


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


@functools.cache
def _takes_scratch(cls) -> bool:
    """Whether ``cls.forward`` has planned kernels: a ``scratch`` parameter."""
    return "scratch" in inspect.signature(cls.forward).parameters


def _compile_layer(
    layer, scratch, *, input_grad: bool = True, inplace: bool = False
) -> tuple[Callable, Callable]:
    """Pre-bound ``fwd(x, training, stack, rngs)`` / ``bwd(grad, stack)``
    closures that run one layer's ``out=``-form kernels over the
    arena-backed ``scratch`` provider.

    A layer whose ``forward`` takes no ``scratch`` has no such kernels: it
    is refused with a ``ValueError`` naming its class. ``stack`` — the
    ``(G, *shape)`` weight and gradient views of the clients in the batch
    (:meth:`TrainingPlan._stacks`), or for one client the layer's own
    parameters — reaches only layers with parameters; ``rngs`` (each
    client's generator, see :attr:`~repro.nn.layers.Layer.draws`) only
    layers that draw.

    ``input_grad=False`` (the model's first layer) skips computing
    ``dL/d(input)`` entirely — nothing consumes it, and for a convolution
    that deletes the whole col2im scatter. Parameter gradients are
    unaffected, so training stays bit-identical; this is the structural win
    a compiled whole-graph plan has over layer-local execution.

    ``inplace=True`` lets an activation overwrite its input buffer (legal
    only when the producer was an earlier layer whose output is its own
    arena buffer and dead after this step — never caller data, never a
    view handed through). Elementwise, so values are unchanged.
    """
    fwd_m, bwd_m = layer.forward, layer.backward
    if not _takes_scratch(type(layer)):
        raise ValueError(
            f"{type(layer).__name__} has no planned kernels (its forward takes no "
            "scratch=), so no training plan can run it"
        )
    if layer.params:

        def fwd(x, training, stack, rngs):
            return fwd_m(x, training, scratch=scratch, stack=stack)

        def bwd(grad, stack):
            return bwd_m(grad, scratch=scratch, input_grad=input_grad, stack=stack)

        return fwd, bwd
    if layer.draws:

        def fwd(x, training, stack, rngs):
            return fwd_m(x, training, scratch=scratch, rngs=rngs)

    elif inplace and getattr(layer, "plan_inplace", False):

        def fwd(x, training, stack, rngs):
            return fwd_m(x, training, scratch=scratch, out=x)

    else:

        def fwd(x, training, stack, rngs):
            return fwd_m(x, training, scratch=scratch)

    def bwd(grad, stack):
        return bwd_m(grad, scratch=scratch, input_grad=input_grad)

    return fwd, bwd


class CohortMember(NamedTuple):
    """One client's round inside a cohort: its training rows, its fixed
    batch schedule from ``start_epoch`` for ``epochs`` epochs, its proximal
    λ (0 = no proximal term at all, as in FedAvg), and the row of the
    cohort's start weights it departs from (and is pulled toward)."""

    x: np.ndarray
    y: np.ndarray
    schedule: "FixedBatchSchedule"
    start_epoch: int
    epochs: int
    lam: float = 0.0
    row: int = 0

    def check(self, first: "CohortMember") -> None:
        """Raise ``ValueError`` naming the client when its data cannot be
        batched by its schedule, or cannot share a batch with ``first``."""
        client = f"client {self.schedule.client_id}"
        if not self.x.shape[0] == self.schedule.n == len(self.y):
            raise ValueError(
                f"{client}: x has {self.x.shape[0]} rows and y {len(self.y)}, "
                f"but its batch schedule covers {self.schedule.n}"
            )
        if self.epochs < 1:
            raise ValueError(f"{client}: epochs must be >= 1, got {self.epochs}")
        if self.lam < 0:
            raise ValueError(f"{client}: lambda must be non-negative, got {self.lam}")
        if (self.x.shape[1:], self.x.dtype, self.y.shape[1:], self.y.dtype) != (
            first.x.shape[1:],
            first.x.dtype,
            first.y.shape[1:],
            first.y.dtype,
        ):
            raise ValueError(
                f"{client}: samples of shape {self.x.shape[1:]} {self.x.dtype} with labels "
                f"{self.y.shape[1:]} {self.y.dtype} differ from the rest of the cohort's"
            )


@dataclass(eq=False, slots=True)
class _Group:
    """One kernel chain of a wave's step, planned before the wave's first.

    ``members`` (wave positions, in row order) share the chain's batch
    rows and proximal term; once ``moves`` (``slab[dst] = slab[src]``, or
    None) has run they sit on rows ``a .. a + g - 1`` of the wave's slabs.
    The rest is what the chain trains with: those rows' slabs and the
    layers' stacks of them, the proximal reference, the λ column (None
    without a pull) and the members' generators (None unless the model
    draws).
    """

    members: np.ndarray
    rows: int
    pulled: bool
    a: int
    g: int
    moves: tuple[np.ndarray, np.ndarray] | None
    slabs: tuple | None = None
    stacks: list | None = None
    ref: np.ndarray | None = None
    lam: np.ndarray | None = None
    rngs: list | None = None


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
        self._fwds = []
        self._bwds = []
        prev_overwritable = False
        for i, layer in enumerate(model.layers):
            fwd, bwd = _compile_layer(
                layer,
                self.arena.slot(i),
                input_grad=i > 0,
                # In-place activation: only over a buffer the previous layer
                # just produced (arena-owned) whose backward does not read
                # its own output values (Tanh/Sigmoid cache theirs for the
                # derivative — overwriting would corrupt gradients).
                inplace=i > 0 and prev_overwritable,
            )
            self._fwds.append(fwd)
            self._bwds.append(bwd)
            prev_overwritable = not layer.plan_backward_needs_output
        self._bwds.reverse()
        self._opt_scratch = self.arena.slot("optimizer")
        if loss is None:
            self._loss_fwd = self._loss_bwd = None
        else:
            slot = self.arena.slot("loss")
            self._loss_fwd = lambda logits, y, clients: loss.forward(
                logits, y, scratch=slot, clients=clients
            )
            self._loss_bwd = lambda: loss.backward(scratch=slot)
        #: Whether any layer draws: then each member gets its generator.
        self._draws = any(layer.draws for layer in model.layers)
        #: (start, end, shape) of each layer's parameters in the flat vector.
        offsets = {id(p): span for p, span in zip(self._store.params, self._store.offsets)}
        self._spans = [
            [(*offsets[id(p)], p.data.shape) for p in layer.params] for layer in model.layers
        ]
        #: The stacks of a member alone in the model's own store: each
        #: layer's parameters as they are.
        self._own = [layer.own_stack() for layer in model.layers]
        #: B, clients per wave, and the one-client arena it was sized from;
        #: both fixed by the plan's first cohort.
        self.wave_size: int | None = None
        self.client_bytes: int | None = None

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
        for fwd, stack in zip(self._fwds, self._own):
            x = fwd(x, training, stack, None)
        return x

    def run_epochs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        schedule: "FixedBatchSchedule",
        start_epoch: int,
        epochs: int,
        optimizer: "Optimizer",
        *,
        lam: float = 0.0,
    ) -> float:
        """Train the model's own weights for ``epochs`` epochs of
        ``schedule`` batches over ``(x, y)``: the one-member case of
        :meth:`run_cohort`, which leaves the result in the model's store.

        Returns the mean batch loss.
        """
        member = CohortMember(x, y, schedule, start_epoch, epochs, lam)
        ((_, mean_loss),) = self.run_cohort(self._store.data, [member], optimizer)
        return mean_loss

    def run_cohort(
        self,
        start_weights: np.ndarray,
        members: Sequence[CohortMember],
        optimizer: "Optimizer",
    ) -> list[tuple[np.ndarray, float]]:
        """Train every member from its row of ``start_weights``; returns
        each member's ``(weights, mean batch loss)``, in ``members`` order.

        ``start_weights`` is ``(S, P)``, one flat vector per row a member
        can name (``CohortMember.row``), or one ``(P,)`` vector: the
        ``S = 1`` case. ``optimizer`` is the recipe: every member starts
        with fresh state of its own (the paper's per-round local solver),
        and the instance itself is not stepped. Caller-owned arrays are only
        ever *read* (batches are copied into arena buffers); returned
        weights are owned copies; layer forward caches are released before
        returning so worker replicas stop pinning last-batch activations
        between rounds; the arena keeps what the waves grew for the next
        cohort.
        """
        if self._loss_fwd is None:
            raise ValueError("plan was compiled without a loss; cannot train")
        store = self._store
        start = np.asarray(start_weights)
        if start.ndim == 1:
            start = start[None]
        if start.shape[1:] != store.data.shape:
            raise ValueError(
                f"flat vector has shape {np.shape(start_weights)}, model expects "
                f"({store.total},) or a stack of them, (S, {store.total})"
            )
        for member in members:
            member.check(members[0])
            if not 0 <= member.row < len(start):
                raise ValueError(
                    f"client {member.schedule.client_id}: start row {member.row} "
                    f"of {len(start)}"
                )
        reference = start
        if start.dtype != store.dtype or np.may_share_memory(start, store.data):
            # Every member's start and the proximal term's w: the weights at
            # the store's dtype (as set_flat_weights casts them), where a
            # member training alone in the store cannot overwrite them.
            reference = self.arena.take(("cohort", "reference"), start.shape, store.dtype)
            np.copyto(reference, start, casting="same_kind")
        orders, masks = cohort_streams(
            [(m.schedule, m.start_epoch, m.epochs) for m in members], masks=self._draws
        )
        results = [None] * len(members)
        try:
            for wave in self._waves(members, optimizer):
                trained = self._run_wave(
                    [members[i] for i in wave],
                    [orders[i] for i in wave],
                    None if masks is None else [masks[i] for i in wave],
                    reference,
                    optimizer,
                )
                for i, result in zip(wave, trained):
                    results[i] = result
        finally:
            self.release_caches()
        return results

    def _waves(self, members: Sequence[CohortMember], optimizer: "Optimizer"):
        """Member indices, one list per wave; train each before the next.

        Members are sorted by (shard size, epochs), so equal batch
        sequences share a wave, and split into waves of at most B, as even
        as B allows. The plan's first cohort sets B: its largest shard
        trains alone first, and what that leaves in the arena, plus the
        weight and gradient rows it kept in the model's store, is one
        client's arena.
        """
        order = sorted(
            range(len(members)), key=lambda i: (members[i].schedule.n, members[i].epochs)
        )
        if order and self.wave_size is None:
            yield [order.pop()]
            store = self._store
            self.client_bytes = self.arena.nbytes + store.data.nbytes + store.grad.nbytes
            self.wave_size = max(1, WAVE_BYTES // self.client_bytes)
        if order:
            count = -(-len(order) // self.wave_size)
            cut = [len(order) * w // count for w in range(count + 1)]
            yield from (order[a:b] for a, b in zip(cut, cut[1:]))

    def _run_wave(
        self, wave, orders, masks, reference, optimizer
    ) -> list[tuple[np.ndarray, float]]:
        """Train ``wave``'s members in lockstep, each from its row of
        ``reference`` over its batch order and, if the model draws, with
        its round's generator (``masks``)."""
        arena, store = self.arena, self._store
        # Alone, a member trains in the model's own store: every layer
        # reads its weights where it always does.
        alone = len(wave) == 1
        if alone:
            weights = store.data[None]
            x, y, order = wave[0].x, wave[0].y, orders[0]
        else:
            weights = arena.take(("cohort", "weights"), (len(wave), store.total), store.dtype)
            x, y, order = self._wave_data(wave, orders)
        rows = [m.row for m in wave]
        reference.take(rows, axis=0, out=weights, mode="clip")
        # Optimizer state and the proximal pull's w cover what they move:
        # the trainable prefix of each row.
        prefix = (len(wave), store.trainable)
        state = [
            arena.take(("cohort", "state", i), prefix, store.dtype)
            for i in range(optimizer.state_slots)
        ]
        for slab in state:
            slab.fill(0.0)
        # The proximal pull's w: the members' one shared row, broadcast over
        # theirs, or a slab of each member's own row that moves with it.
        pull_ref = reference[rows[0], : store.trainable]
        if len(set(rows)) > 1 and any(m.lam > 0 for m in wave):
            pull_ref = arena.take(("cohort", "pull_ref"), prefix, store.dtype)
            np.copyto(pull_ref, weights[:, : store.trainable])
        own_refs = pull_ref.ndim == 2
        plan, groups, steps, row_of = self._schedule(wave, order)
        # Each group's slabs: views of the rows it occupies. Gradients live
        # for one step, so their slab is sized to the widest group.
        if alone:
            grads = store.grad[None]
        else:
            widest = max(grp.g for grp in groups)
            grads = arena.take(("cohort", "grads"), (widest, store.total), store.dtype)
        views: dict = {}
        for grp in groups:
            a, g = grp.a, grp.g
            if (a, g) not in views:
                slabs = weights[a : a + g], grads[:g], [slab[a : a + g] for slab in state]
                stacks = self._own if alone else self._stacks(*slabs[:2])
                views[a, g] = slabs, stacks, pull_ref[a : a + g] if own_refs else pull_ref
            grp.slabs, grp.stacks, grp.ref = views[a, g]
            if grp.pulled:
                grp.lam = np.array([[wave[j].lam] for j in grp.members], dtype=store.dtype)
            if masks is not None:
                grp.rngs = [masks[j] for j in grp.members]
        moving = [weights, *state, pull_ref] if own_refs else [weights, *state]
        batch = max(len(index) for step in plan for _, index in step)
        xs = arena.take(("in", "x"), (batch,) + x.shape[1:], x.dtype)
        ys = arena.take(("in", "y"), (batch,) + y.shape[1:], y.dtype)
        losses = np.zeros((len(wave), len(plan)))
        for k, step in enumerate(plan):
            for grp, index in step:
                if grp.moves is not None:
                    self._move_rows(moving, *grp.moves)
                xb, yb = self._gather_batch(x, y, index, xs, ys)
                losses[grp.members, k] = self._train_batch(
                    xb, yb, grp.stacks, grp.slabs, grp.lam, grp.ref, optimizer, k + 1, grp.rngs
                )
        return [
            (weights[r].copy(), float(losses[j, :count].mean()))
            for j, (r, count) in enumerate(zip(row_of, steps))
        ]

    def _gather_batch(self, x, y, index, xs, ys):
        """A group's batch, client-major, in the arena: one ``take`` each."""
        xb = x.take(index, axis=0, out=xs[: len(index)])
        return self._cast_input(xb, ("in", "cast")), y.take(index, axis=0, out=ys[: len(index)])

    @staticmethod
    def _wave_data(wave, orders):
        """The wave's samples and labels end to end, and its members' batch
        orders end to end as indices into them. Copies for one wave, not
        arena buffers: their size follows the members' shards, which the
        arena's one-client budget does not count."""
        n = np.array([m.schedule.n for m in wave])
        order = np.concatenate(orders)
        order += np.repeat(np.cumsum(n) - n, [len(o) for o in orders])
        return np.concatenate([m.x for m in wave]), np.concatenate([m.y for m in wave]), order

    def _schedule(self, wave, order):
        """Every step of ``wave``, planned before the first.

        Returns the steps — each a list of ``(group, gather indices)`` in
        the order they train — the distinct :class:`_Group` objects, each
        member's step count, and the row each member ends on.

        A member's batches are consecutive slices of its order (``order``
        holds the wave's end to end), one per step. At step k the members
        are grouped by (batch rows, proximal term or not), in order of
        first appearance; a group runs on contiguous rows of the wave's
        slabs, in row order (:meth:`_group_rows`). Steps whose members fall
        into the same groups share one grouping until a row moves.
        """
        n = np.array([m.schedule.n for m in wave])
        bs = np.array([m.schedule.batch_size for m in wave])
        per_epoch = np.array([m.schedule.batches_per_epoch() for m in wave])
        steps = per_epoch * np.array([m.epochs for m in wave])
        k = np.arange(steps.max())
        # (member, step) batch rows, 0 once the member is done.
        size = np.minimum(bs[:, None], n[:, None] - k % per_epoch[:, None] * bs[:, None])
        size[k >= steps[:, None]] = 0
        pulled = np.array([m.lam > 0 for m in wave])
        keys = np.where(size > 0, 2 * size + pulled[:, None], 0).T.copy()
        row_of, at_row = list(range(len(wave))), list(range(len(wave)))
        stepped, groups, settled = [], [], {}
        for key in keys:
            sig = key.tobytes()
            step = settled.get(sig)
            if step is None:
                step, moved = self._group_rows(key, row_of, at_row)
                groups.extend(step)
                if moved:
                    settled.clear()  # the rows other groupings counted on moved
                else:
                    settled[sig] = step
            stepped.append(step)
        # Gather indices: each group's members' next batch, in row order.
        # A member's batch at step k starts where its earlier batches end.
        members = np.concatenate([grp.members for step in stepped for grp in step])
        at = np.repeat(k, [sum(grp.g for grp in step) for step in stepped])
        rows = size[members, at]
        starts = (np.cumsum(size) - size.ravel()).reshape(size.shape)[members, at]
        ends = np.cumsum(rows)
        index = order[np.repeat(starts - ends + rows, rows) + np.arange(ends[-1])]
        plan, o = [], 0
        for step in stepped:
            planned = []
            for grp in step:
                planned.append((grp, index[o : o + grp.g * grp.rows]))
                o += grp.g * grp.rows
            plan.append(planned)
        return plan, groups, steps, row_of

    @staticmethod
    def _group_rows(key, row_of, at_row):
        """One step's groups, given each member's group ``key`` (0 once it
        is done), and whether any row moved.

        Member j's weights and state — and its own proximal reference, when
        the wave has a slab of them — are row ``row_of[j]`` of the wave's
        slabs (``at_row`` is the inverse). A group whose rows are not one
        contiguous range is made one by swapping rows: each member, in row
        order, moves to the next row of the range starting at the group's
        first. The group carries the swaps' net effect as one row move —
        the bytes a gather and scatter would move, without a gathered copy
        in the arena.
        """
        by_key: dict = {}
        for j, code in enumerate(key.tolist()):
            if code:
                by_key.setdefault(code, []).append(j)
        groups, moved = [], False
        for code, members in by_key.items():
            members.sort(key=row_of.__getitem__)
            a, g = row_of[members[0]], len(members)
            moves = None
            if row_of[members[-1]] != a + g - 1:
                came_from: dict = {}  # row -> the row whose bytes it now holds
                for i, j in enumerate(members):
                    r, old = a + i, row_of[j]
                    if old != r:
                        other = at_row[r]
                        row_of[j], row_of[other] = r, old
                        at_row[r], at_row[old] = j, other
                        came_from[r], came_from[old] = came_from.get(old, old), came_from.get(r, r)
                dst = [r for r, src in came_from.items() if r != src]
                moves = np.array(dst), np.array([came_from[r] for r in dst])
                moved = True
            groups.append(_Group(np.array(members), code >> 1, bool(code & 1), a, g, moves))
        return groups, moved

    @staticmethod
    def _move_rows(slabs, dst: np.ndarray, src: np.ndarray) -> None:
        """Row ``dst[i]`` of every slab takes what row ``src[i]`` held."""
        for slab in slabs:
            slab[dst] = slab[src]

    def _stacks(self, weights: np.ndarray, grads: np.ndarray) -> list:
        """Each layer's ``stack``: its parameters as ``(G, *shape)`` views
        of the G clients' weight and gradient rows — for a group of one,
        that client's parameters in their own shape, so every layer runs
        its one-client kernels."""
        lead = (len(weights),) if len(weights) > 1 else ()
        return [
            [
                (weights[:, a:b].reshape(lead + shape), grads[:, a:b].reshape(lead + shape))
                for a, b, shape in spans
            ]
            for spans in self._spans
        ]

    def _train_batch(self, xb, yb, stacks, slabs, lam, reference, optimizer, t, rngs):
        """One batch step of the G clients stacked in ``xb``: forward, loss,
        backward, proximal pull, optimizer step ``t``, and the gradient rows
        zeroed again. ``slabs`` holds their ``(G, P)`` weight and gradient
        rows and their optimizer state over the trainable prefix,
        ``stacks`` the layers' views of the first two, ``rngs`` their
        generators (or None). Returns the clients' batch losses."""
        weights, grads, state = slabs
        x = xb
        for fwd, stack in zip(self._fwds, stacks):
            x = fwd(x, True, stack, rngs)
        values = self._loss_fwd(x, yb, len(weights))
        g = self._loss_bwd()
        for bwd, stack in zip(self._bwds, reversed(stacks)):
            g = bwd(g, stack)
        # The pull and the step move the trainable prefix only; batch-norm's
        # running statistics behind it are the forward's to update.
        trainable = self._store.trainable
        weights, grads = weights[:, :trainable], grads[:, :trainable]
        if lam is not None:
            pull = self.arena.take(("cohort", "pull"), weights.shape, weights.dtype)
            add_proximal_grad(weights, grads, reference, lam, pull)
        optimizer.apply(weights, grads, state, t, self._opt_scratch)
        grads.fill(0.0)
        return values

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
