"""Cohort training: stacked kernels equal per-client ones, bit for bit.

A cohort plan trains G clients in lockstep by running one kernel call over
a client-major stacked batch instead of G calls over per-client batches. It
is bit-identical to training them one at a time only if each stacked call
computes, slice by slice, exactly what the per-client call computes. The
first half of this file pins that on the NumPy/BLAS the suite runs on, at
float64 and float32:

- stacked ``np.matmul`` ``(G, M, K) @ (G, K, N)`` — plain, with either
  operand transposed, at M = 1, N = 1, G = 1 and any G, weights carved
  from the rows of a ``[B, P]`` slab — equals the per-slice 2-D calls;
- ``add.reduce`` over the row axis of ``(G, n, k)`` equals the per-slice
  axis-0 reduces (the bias gradient);
- ``add.reduce(axis=1)`` + ``true_divide(n)`` equals ``ndarray.mean`` of
  each row for n = 1…300, across NumPy's pairwise-sum blocks at 8 and 128
  (the per-client loss);
- the stacked LSTM's GEMMs at its shapes — ``x @ Wx``, ``h @ Wh``,
  ``dz @ Wh.T`` over the transposed view of each client's slab block, and
  the per-client parameter GEMMs — equal the per-client 2-D calls;
- one ``np.add.at`` over a ``(G, vocab, d)`` view indexed by
  ``(client, id)`` equals each client's own ``add.at`` (the embedding
  gradient).

If one of these fails on some NumPy/BLAS, that op must keep a per-client
call inside the stacked chain — never a tolerance.

The second half checks ``TrainingPlan.run_cohort`` end to end: every
member's weights and mean loss equal what the member gets trained alone
(by the per-layer reference loop kept here, or one member per call at
float32), over mixed shard sizes, epochs, start epochs, λ and optimizers;
the reddit model's members too, each with its batch-norm statistics in
its own weight row and its dropout masks from its own round's generator;
waves are as even as B allows; and what cannot stack, like bad member
data, is refused by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import FixedBatchSchedule
from repro.nn import plan as plan_module
from repro.nn.layers import Dense, Dropout, Layer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.plan import CohortMember, TrainingPlan
from repro.nn.proximal import ProximalTerm
from repro.nn.zoo import (
    build_cnn,
    build_femnist_cnn,
    build_logistic,
    build_lstm_classifier,
)
from tests.helpers import build_mlp

DTYPES = [np.float64, np.float32]
_UINT = {np.dtype(np.float64): np.uint64, np.dtype(np.float32): np.uint32}


def _assert_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(_UINT[a.dtype]), b.view(_UINT[b.dtype]))


def _normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


def _operand(rng, g, rows, cols, dtype, transposed):
    """A ``(g, rows, cols)`` stacked operand, C-contiguous or the transpose
    of a contiguous ``(g, cols, rows)`` block (``cols.T`` in a backward)."""
    if transposed:
        return _normal(rng, (g, cols, rows), dtype).transpose(0, 2, 1)
    return _normal(rng, (g, rows, cols), dtype)


def _slab_weights(rng, g, k, n, dtype, transposed, offset):
    """``(g, k, n)`` weights carved out of ``g`` rows of a ``[B, P]`` slab
    at column ``offset``, the way a cohort plan views per-client weights
    (optionally transposed, as ``w.T`` in ``dL/dx``)."""
    width = offset + k * n + 3
    slab = _normal(rng, (g + 1, width), dtype)
    if transposed:
        return slab[1:, offset : offset + k * n].reshape(g, n, k).transpose(0, 2, 1)
    return slab[1:, offset : offset + k * n].reshape(g, k, n)


def _per_slice_matmul(a, b, dtype):
    """What a client trained on its own computes: each slice as standalone
    2-D operands (a contiguous array or the transpose of one, as the
    per-client code has them), one 2-D ``matmul`` each into a fresh out."""
    out = []
    for ag, bg in zip(a, b):
        ag = np.ascontiguousarray(ag.T).T if not ag.flags.c_contiguous else ag.copy()
        bg = np.ascontiguousarray(bg.T).T if not bg.flags.c_contiguous else bg.copy()
        o = np.empty((ag.shape[0], bg.shape[1]), dtype=dtype)
        np.matmul(ag, bg, out=o)
        out.append(o)
    return np.stack(out)


# Shapes the stacked plan actually runs: (rows*oh*ow, k*k*c_in) @ (k*k*c_in, c_out)
# for the bench CNN's three convolutions at 10 and 5 rows, its dense layers,
# and the bench logistic model.
PLAN_SHAPES = [
    (640, 27, 6),
    (320, 54, 12),
    (80, 108, 12),
    (10, 48, 24),
    (10, 24, 10),
    (10, 64, 2),
    (5, 64, 2),
    (6, 64, 2),
    (1, 64, 2),
    (1, 48, 24),
    (50, 1, 5),
]


class TestStackedMatmul:
    @settings(max_examples=120, deadline=None)
    @given(
        g=st.integers(1, 7),
        m=st.integers(1, 70),
        k=st.integers(1, 40),
        n=st.integers(1, 30),
        ta=st.booleans(),
        tb=st.booleans(),
        offset=st.integers(0, 9),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_slice_2d_calls(self, g, m, k, n, ta, tb, offset, dtype, seed):
        rng = np.random.default_rng(seed)
        a = _operand(rng, g, m, k, dtype, ta)
        b = _slab_weights(rng, g, k, n, dtype, tb, offset)
        out = np.empty((g, m, n), dtype=dtype)
        np.matmul(a, b, out=out)
        _assert_bits(out, _per_slice_matmul(a, b, dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m,k,n", PLAN_SHAPES)
    def test_plan_shapes_every_operand_form(self, m, k, n, dtype):
        """Forward ``x @ W``, weight grad ``x.T @ g`` (transposed A over the
        row axis) and input grad ``g @ W.T`` (transposed B), G = 1…6."""
        rng = np.random.default_rng(m * 1000 + k * 10 + n)
        for g in (1, 2, 5, 6):
            x = _normal(rng, (g, m, k), dtype)
            w = _slab_weights(rng, g, k, n, dtype, False, 7)
            grad = _normal(rng, (g, m, n), dtype)
            forward = np.empty((g, m, n), dtype=dtype)
            np.matmul(x, w, out=forward)
            _assert_bits(forward, _per_slice_matmul(x, w, dtype))
            gw = np.empty((g, k, n), dtype=dtype)
            np.matmul(x.transpose(0, 2, 1), grad, out=gw)
            _assert_bits(gw, _per_slice_matmul(x.transpose(0, 2, 1), grad, dtype))
            gx = np.empty((g, m, k), dtype=dtype)
            np.matmul(grad, w.transpose(0, 2, 1), out=gx)
            _assert_bits(gx, _per_slice_matmul(grad, w.transpose(0, 2, 1), dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_broadcast_batch_axes(self, dtype):
        """A time-distributed dense input ``(rows, T, in) @ (in, out)`` loops
        over rows; stacked it is ``(G, rows, T, in) @ (G, 1, in, out)``."""
        rng = np.random.default_rng(3)
        g, rows, t, k, n = 4, 5, 6, 7, 3
        x = _normal(rng, (g, rows, t, k), dtype)
        w = _slab_weights(rng, g, k, n, dtype, False, 2)
        out = np.empty((g, rows, t, n), dtype=dtype)
        np.matmul(x, w[:, None], out=out)
        want = []
        for xg, wg in zip(x, w):
            o = np.empty((rows, t, n), dtype=dtype)
            np.matmul(xg.copy(), wg.copy(), out=o)
            want.append(o)
        _assert_bits(out, np.stack(want))


class TestStackedReductions:
    @settings(max_examples=120, deadline=None)
    @given(
        g=st.integers(1, 7),
        n=st.integers(1, 300),
        k=st.integers(1, 30),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_row_axis_add_reduce(self, g, n, k, dtype, seed):
        """Bias gradients: ``add.reduce(axis=1)`` of ``(G, n, k)`` equals
        each client's ``add.reduce(axis=0)`` of its ``(n, k)`` rows."""
        x = _normal(np.random.default_rng(seed), (g, n, k), dtype)
        out = np.empty((g, k), dtype=dtype)
        np.add.reduce(x, axis=1, out=out)
        want = np.empty((g, k), dtype=dtype)
        for i in range(g):
            np.add.reduce(x[i].copy(), axis=0, out=want[i])
        _assert_bits(out, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_per_client_mean_is_ndarray_mean(self, dtype):
        """The per-client loss: ``add.reduce(axis=1)`` then ``true_divide``
        by the row count (as an ``intp``) equals ``ndarray.mean`` of each
        client's 1-D loss vector, for every n in 1…300."""
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            g = 1 + n % 6
            nll = -np.log(rng.uniform(1e-6, 1.0, size=(g, n))).astype(dtype)
            means = np.empty(g, dtype=dtype)
            np.add.reduce(nll, axis=1, out=means)
            np.true_divide(means, np.intp(n), out=means, casting="unsafe")
            want = np.array([nll[i].copy().mean() for i in range(g)], dtype=dtype)
            assert want.dtype == dtype
            _assert_bits(means, want)
            assert [float(v) for v in means] == [float(nll[i].copy().mean()) for i in range(g)]


class TestStackedRecurrentKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "rows,t,d,h", [(10, 10, 12, 12), (1, 10, 12, 12), (7, 5, 4, 6), (3, 1, 5, 3)]
    )
    def test_lstm_matmuls_equal_per_client_calls(self, rows, t, d, h, dtype):
        """The input projection ``x @ Wx`` over ``(G, rows·T, d)``, each
        step's ``h @ Wh`` and ``dz @ Wh.T`` (the transposed view of every
        client's slab block), and the parameter GEMMs ``x.T @ dz``,
        ``h.T @ dz`` and ``dz @ Wx.T``, G = 2…9."""
        rng = np.random.default_rng(rows * 1000 + t * 100 + d * 10 + h)
        for g in (2, 5, 9):
            wx = _slab_weights(rng, g, d, 4 * h, dtype, False, 3)
            wh = _slab_weights(rng, g, h, 4 * h, dtype, False, 5)
            x = _normal(rng, (g, rows * t, d), dtype)
            hs = _normal(rng, (g, rows * t, h), dtype)
            dzf = _normal(rng, (g, rows * t, 4 * h), dtype)
            step = (_normal(rng, (g, rows, h), dtype), _normal(rng, (g, rows, 4 * h), dtype))
            for a, b in (
                (x, wx),
                (step[0], wh),
                (step[1], wh.swapaxes(1, 2)),
                (x.swapaxes(1, 2), dzf),
                (hs.swapaxes(1, 2), dzf),
                (dzf, wx.swapaxes(1, 2)),
            ):
                out = np.empty((g, a.shape[1], b.shape[2]), dtype=dtype)
                np.matmul(a, b, out=out)
                _assert_bits(out, _per_slice_matmul(a, b, dtype))

    @settings(max_examples=80, deadline=None)
    @given(
        g=st.integers(1, 9),
        vocab=st.integers(1, 20),
        d=st.integers(1, 8),
        n=st.integers(1, 60),
        offset=st.integers(0, 9),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_add_at_by_client_and_id(self, g, vocab, d, n, offset, dtype, seed):
        """The embedding gradient: one ``np.add.at`` into a ``(G, vocab, d)``
        view of slab rows, indexed by ``(client, id)``, equals each client
        scattering its own ``n`` rows — repeated ids included."""
        rng = np.random.default_rng(seed)
        slab = _normal(rng, (g + 1, offset + vocab * d + 3), dtype)
        table = slab[1:, offset : offset + vocab * d].reshape(g, vocab, d)
        ids = rng.integers(0, vocab, size=(g, n))
        grad = _normal(rng, (g, n, d), dtype)
        want = table.copy()
        for i in range(g):
            np.add.at(want[i], ids[i], grad[i])
        np.add.at(table, (np.arange(g)[:, None], ids), grad)
        _assert_bits(table, want)


# --------------------------------------------------------------------- #
# A cohort trains each member exactly as it would train alone
# --------------------------------------------------------------------- #
BUILDERS = {
    "cnn": (
        (8, 8, 3),
        lambda rng: build_cnn((8, 8, 3), 5, rng=rng, filters=(3, 4, 4), dense_units=6),
    ),
    "femnist_cnn": (
        (8, 8, 1),
        lambda rng: build_femnist_cnn((8, 8, 1), 5, rng=rng, filters=(3, 4), dense_units=6),
    ),
    "mlp": ((16,), lambda rng: build_mlp(16, 5, rng=rng, hidden=(8,))),
    "logistic": ((16,), lambda rng: build_logistic(16, 5, rng=rng)),
}
OPTIMIZERS = {
    "adam": lambda: Adam(0.005),
    "sgd": lambda: SGD(0.05),
}
#: Shard sizes around a batch size of 10: below it, multiples, ragged last
#: batches — equal rows at a step group across different shard sizes, and
#: the groups they form are not contiguous runs of the sorted wave.
SHARDS = (3, 10, 14, 20, 7, 25, 15, 10, 26)


def _members(feature_shape, shards=SHARDS, *, seed=0, classes=5, ints=None):
    rng = np.random.default_rng(seed)
    members = []
    for cid, n in enumerate(shards):
        if ints is None:
            x = rng.normal(size=(n,) + feature_shape)
        else:
            x = rng.integers(0, ints, size=(n,) + feature_shape)
        y = rng.integers(0, classes, size=n)
        members.append(
            CohortMember(
                x,
                y,
                FixedBatchSchedule(n, 10, cid, seed=0),
                start_epoch=cid % 4,
                epochs=1 + cid % 3,
                lam=(0.0, 0.4, 1.5)[cid % 3],
            )
        )
    return members


def _alone(model, member, make_optimizer, start):
    """One client on its own through ``Sequential.train_on_batch`` — the
    allocating per-layer reference — with the optimizer, proximal hook,
    batches and dropout generator a cohort member gets. Returns (weights,
    mean batch loss)."""
    model.set_flat_weights(start)
    optimizer, hook = make_optimizer(), None
    if member.lam > 0:
        hook = ProximalTerm(member.lam)
        hook.set_reference(model.store)
    loss, rng = SoftmaxCrossEntropy(), member.schedule.mask_rng(member.start_epoch)
    losses = [
        model.train_on_batch(
            member.x[idx], member.y[idx], loss, optimizer, grad_hook=hook, rng=rng
        )
        for idx in member.schedule.epochs(member.start_epoch, member.epochs)
    ]
    return model.get_flat_weights(), float(np.mean(losses))


def _assert_same(got, want):
    assert len(got) == len(want)
    for (w_got, l_got), (w_want, l_want) in zip(got, want):
        _assert_bits(w_got, w_want)
        assert l_got == l_want


def _lstm_classifier(dropout=0.1, batch_norm=True):
    def build(rng):
        return build_lstm_classifier(
            24, 24, rng=rng, embed_dim=6, hidden_dim=6, dropout=dropout, batch_norm=batch_norm
        )

    return build


def _counting_moves(monkeypatch):
    moves = []
    move = TrainingPlan._move_rows

    def counted(slabs, dst, src):
        moves.append((dst.tolist(), src.tolist()))
        move(slabs, dst, src)

    monkeypatch.setattr(TrainingPlan, "_move_rows", staticmethod(counted))
    return moves


class TestCohortIsEachClientAlone:
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_float64_against_the_per_layer_reference(self, kind, optimizer, monkeypatch):
        feature_shape, build = BUILDERS[kind]
        members = _members(feature_shape)
        make = OPTIMIZERS[optimizer]
        model = build(np.random.default_rng(1))
        start = model.get_flat_weights()
        want = [_alone(build(np.random.default_rng(1)), m, make, start) for m in members]
        moves = _counting_moves(monkeypatch)
        for wave_size in (None, 3):  # B from the arena (one wave here), and B = 3
            plan = TrainingPlan(model, SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(start, members, make()), want)
            assert plan.wave_size is not None
        assert moves  # some step's group was not a contiguous run of rows

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_float32_against_one_member_at_a_time(self, kind):
        """At float32 the per-layer reference's tie-broken max-pool promotes
        to float64 (see tests/nn/test_plan.py), so the per-client reference
        is the plan with one member per call: nothing stacked."""
        feature_shape, build = BUILDERS[kind]
        members = _members(feature_shape, seed=1)
        model = build(np.random.default_rng(2)).astype(np.float32)
        start = model.get_flat_weights()
        alone = TrainingPlan(model, SoftmaxCrossEntropy())
        want = [alone.run_cohort(start, [m], Adam(0.005))[0] for m in members]
        assert want[0][0].dtype == np.float32
        for wave_size in (None, 2):
            plan = TrainingPlan(model, SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)

    def test_float64_start_into_a_float32_model(self):
        """The start vector is cast as ``set_flat_weights`` casts it, and the
        proximal term pulls toward that cast."""
        feature_shape, build = BUILDERS["mlp"]
        members = _members(feature_shape, seed=3)
        model = build(np.random.default_rng(2)).astype(np.float32)
        start = np.random.default_rng(4).normal(size=model.store.total)
        alone = TrainingPlan(model, SoftmaxCrossEntropy())
        want = [alone.run_cohort(start, [m], Adam(0.005))[0] for m in members]
        plan = TrainingPlan(model, SoftmaxCrossEntropy())
        _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.lists(st.integers(1, 31), min_size=1, max_size=9),
        batch_size=st.integers(1, 12),
        wave_size=st.sampled_from([None, 1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_any_cohort_of_the_logistic_model(self, shards, batch_size, wave_size, seed):
        feature_shape, build = BUILDERS["logistic"]
        members = [
            m._replace(schedule=FixedBatchSchedule(m.schedule.n, batch_size, i, seed=0))
            for i, m in enumerate(_members(feature_shape, shards, seed=seed))
        ]
        model = build(np.random.default_rng(seed))
        start = model.get_flat_weights()
        reference = build(np.random.default_rng(seed))
        want = [_alone(reference, m, OPTIMIZERS["adam"], start) for m in members]
        plan = TrainingPlan(model, SoftmaxCrossEntropy())
        plan.wave_size = wave_size
        _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)

    def test_results_come_back_in_member_order_as_owned_copies(self):
        feature_shape, build = BUILDERS["mlp"]
        members = _members(feature_shape)
        model = build(np.random.default_rng(1))
        plan = model.training_plan(SoftmaxCrossEntropy())
        start = model.get_flat_weights()
        inputs = [a.copy() for m in members for a in (m.x, m.y)] + [start.copy()]
        forward = plan.run_cohort(start, members, Adam(0.005))
        backward = plan.run_cohort(start, members[::-1], Adam(0.005))
        _assert_same(forward, backward[::-1])
        for weights, _ in forward:
            assert weights.base is None and not plan.arena.owns(weights)
        for before, after in zip(inputs, [a for m in members for a in (m.x, m.y)] + [start]):
            np.testing.assert_array_equal(before, after)  # only ever read
        assert plan.run_cohort(start, [], Adam(0.005)) == []

    def test_the_models_own_weights_as_the_start(self):
        """``run_epochs`` starts from the store itself; a cohort may too."""
        feature_shape, build = BUILDERS["cnn"]
        model = build(np.random.default_rng(1))
        start = model.get_flat_weights()
        reference = build(np.random.default_rng(1))
        for lams in ((0.0,), (0.0, 0.4)):
            members = [
                m._replace(lam=lams[i % len(lams)])
                for i, m in enumerate(_members(feature_shape, seed=5))
            ]
            want = [_alone(reference, m, OPTIMIZERS["adam"], start) for m in members]
            for wave_size in (1, 3):
                model.set_flat_weights(start)
                plan = TrainingPlan(model, SoftmaxCrossEntropy())
                plan.wave_size = wave_size
                _assert_same(plan.run_cohort(model.store.data, members, Adam(0.005)), want)

    def test_lstm_classifier_stacks_as_if_each_member_trained_alone(self):
        """Embedding, LSTM, Dropout and BatchNorm stack. For any B each
        member's weights — its batch-norm running statistics among them —
        and loss equal the reference training it alone with its round's
        dropout generator; in any member order."""
        build = _lstm_classifier()
        members = _members((5,), classes=24, ints=24)
        reference = build(np.random.default_rng(1))
        start = reference.get_flat_weights()
        want = [_alone(reference, m, OPTIMIZERS["adam"], start) for m in members]
        for wave_size in (None, 1, 2, 3):
            plan = TrainingPlan(build(np.random.default_rng(1)), SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)
            _assert_same(plan.run_cohort(start, members[::-1], Adam(0.005)), want[::-1])
        bn = build(np.random.default_rng(1)).store.trainable
        assert all(not np.array_equal(w[bn:], start[bn:]) for w, _ in want)  # statistics moved

    def test_two_dropouts_draw_one_generator_in_layer_order(self):
        """Every dropout of a member draws from that member's one generator,
        layer after layer within a step, stacked or alone."""

        def build(rng):
            return Sequential(
                [
                    Dense(4, 4, rng=rng, name="a"),
                    Dropout(0.1),
                    Dense(4, 4, rng=rng, name="b"),
                    Dropout(0.3),
                    Dense(4, 3, rng=rng, name="c"),
                ]
            )

        members = _members((4,), classes=3)
        start = build(np.random.default_rng(1)).get_flat_weights()
        reference = build(np.random.default_rng(1))
        want = [_alone(reference, m, OPTIMIZERS["adam"], start) for m in members]
        plan = TrainingPlan(build(np.random.default_rng(1)), SoftmaxCrossEntropy())
        _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)

    @settings(max_examples=20, deadline=None)
    @given(
        shards=st.lists(st.integers(1, 25), min_size=1, max_size=7),
        batch_size=st.integers(1, 12),
        wave_size=st.sampled_from([None, 1, 2, 4]),
        dropout=st.sampled_from([0.0, 0.1]),
        batch_norm=st.booleans(),
        lam=st.sampled_from([0.0, 0.4]),
        seed=st.integers(0, 2**16),
    )
    def test_any_cohort_of_the_lstm_classifier(
        self, shards, batch_size, wave_size, dropout, batch_norm, lam, seed
    ):
        build = _lstm_classifier(dropout=dropout, batch_norm=batch_norm)
        members = [
            m._replace(schedule=FixedBatchSchedule(m.schedule.n, batch_size, i, seed=0), lam=lam)
            for i, m in enumerate(_members((5,), shards, seed=seed, classes=24, ints=24))
        ]
        reference = build(np.random.default_rng(seed))
        start = reference.get_flat_weights()
        want = [_alone(reference, m, OPTIMIZERS["adam"], start) for m in members]
        model = build(np.random.default_rng(seed))
        plan = TrainingPlan(model, SoftmaxCrossEntropy())
        plan.wave_size = wave_size
        _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)

    def test_lstm_classifier_float32_against_one_member_at_a_time(self):
        """At float32 the per-client reference is the plan with one member
        per call: nothing stacked."""

        def build(rng):
            return _lstm_classifier()(rng).astype(np.float32)

        members = _members((5,), seed=1, classes=24, ints=24)
        one_by_one = build(np.random.default_rng(2))
        alone = TrainingPlan(one_by_one, SoftmaxCrossEntropy())
        start = one_by_one.get_flat_weights()
        want = [alone.run_cohort(start, [m], Adam(0.005))[0] for m in members]
        assert want[0][0].dtype == np.float32
        for wave_size in (None, 2):
            model = build(np.random.default_rng(2))
            plan = TrainingPlan(model, SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(start, members, Adam(0.005)), want)


def _with_rows(members, rows):
    """``members`` departing from rows ``rows[i % len(rows)]`` of a stack."""
    return [m._replace(row=rows[i % len(rows)]) for i, m in enumerate(members)]


class TestEachMemberFromItsOwnStartRow:
    """A cohort may mix members launched from different global versions:
    ``start_weights`` is an ``(S, P)`` stack and each member starts from,
    and is pulled toward, the row it names. Rows interleave across the
    sorted waves, so the proximal references move with swapped rows."""

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_float64_against_the_per_layer_reference(self, kind, monkeypatch):
        feature_shape, build = BUILDERS[kind]
        members = _with_rows(_members(feature_shape, seed=6), (2, 0, 1, 1, 0))
        model = build(np.random.default_rng(1))
        rng = np.random.default_rng(9)
        starts = model.get_flat_weights() + rng.normal(0, 0.05, size=(3, model.store.total))
        reference = build(np.random.default_rng(1))
        want = [_alone(reference, m, OPTIMIZERS["adam"], starts[m.row]) for m in members]
        moves = _counting_moves(monkeypatch)
        for wave_size in (None, 1, 3):
            plan = TrainingPlan(model, SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(starts, members, Adam(0.005)), want)
        assert moves

    def test_one_row_is_the_vector(self):
        feature_shape, build = BUILDERS["mlp"]
        members = _members(feature_shape, seed=7)
        model = build(np.random.default_rng(1))
        start = model.get_flat_weights()
        plan = TrainingPlan(model, SoftmaxCrossEntropy())
        _assert_same(
            plan.run_cohort(start[None], members, Adam(0.005)),
            plan.run_cohort(start, members, Adam(0.005)),
        )

    def test_a_float64_stack_into_a_float32_model(self):
        feature_shape, build = BUILDERS["cnn"]
        members = _with_rows(_members(feature_shape, seed=8), (1, 0))
        model = build(np.random.default_rng(2)).astype(np.float32)
        starts = np.random.default_rng(4).normal(0, 0.1, size=(2, model.store.total))
        alone = TrainingPlan(model, SoftmaxCrossEntropy())
        want = [
            alone.run_cohort(starts[m.row], [m._replace(row=0)], Adam(0.005))[0] for m in members
        ]
        plan = TrainingPlan(model, SoftmaxCrossEntropy())
        _assert_same(plan.run_cohort(starts, members, Adam(0.005)), want)

    def test_lstm_classifier_from_several_rows(self):
        """Each member's batch-norm statistics start from its own row too."""
        build = _lstm_classifier()
        members = _with_rows(_members((5,), seed=2, classes=24, ints=24), (0, 1, 1, 2))
        reference = build(np.random.default_rng(1))
        starts = reference.get_flat_weights() + np.random.default_rng(3).normal(
            0, 0.05, size=(3, reference.store.total)
        )
        want = [_alone(reference, m, OPTIMIZERS["adam"], starts[m.row]) for m in members]
        for wave_size in (None, 2):
            model = build(np.random.default_rng(1))
            plan = TrainingPlan(model, SoftmaxCrossEntropy())
            plan.wave_size = wave_size
            _assert_same(plan.run_cohort(starts, members, Adam(0.005)), want)


class TestWhatCannotStackIsRefused:
    """Stacking is the only path through the plan: what cannot take it is
    refused by name when the layer or the plan is built, never trained
    some other way."""

    def test_a_layer_without_planned_kernels(self):
        class Square(Layer):
            def forward(self, x, training=False):
                self._x = x
                return x * x

            def backward(self, grad):
                return 2.0 * self._x * grad

        rng = np.random.default_rng(1)
        model = Sequential([Dense(4, 4, rng=rng), Square(), Dense(4, 3, rng=rng)])
        for loss in (SoftmaxCrossEntropy(), None):
            with pytest.raises(ValueError, match="Square has no planned kernels"):
                TrainingPlan(model, loss)

    def test_a_subclass_whose_forward_drops_scratch(self):
        """The signature is read off the class that runs, so overriding a
        planned layer's forward without ``scratch`` gives up its kernels."""

        class LoggedDense(Dense):
            def forward(self, x, training=False):
                return super().forward(x, training)

        rng = np.random.default_rng(1)
        model = Sequential([Dense(4, 4, rng=rng), LoggedDense(4, 3, rng=rng)])
        with pytest.raises(ValueError, match="LoggedDense has no planned kernels"):
            TrainingPlan(model, SoftmaxCrossEntropy())


def _recording_waves(plan, monkeypatch):
    waves = []
    run_wave = plan._run_wave

    def recorded(wave, *args):
        waves.append(wave)
        return run_wave(wave, *args)

    monkeypatch.setattr(plan, "_run_wave", recorded)
    return waves


class TestWaves:
    def test_waves_are_as_even_as_b_allows(self, monkeypatch):
        feature_shape, build = BUILDERS["logistic"]
        plan = TrainingPlan(build(np.random.default_rng(1)), SoftmaxCrossEntropy())
        plan.wave_size = 6
        waves = _recording_waves(plan, monkeypatch)
        members = _members(feature_shape, (20,) * 10)
        plan.run_cohort(plan.model.get_flat_weights(), members, Adam(0.005))
        assert [len(w) for w in waves] == [5, 5]

    def test_the_first_cohort_sizes_b_from_its_largest_member(self, monkeypatch):
        feature_shape, build = BUILDERS["cnn"]
        monkeypatch.setattr(plan_module, "WAVE_BYTES", 1)
        plan = TrainingPlan(build(np.random.default_rng(1)), SoftmaxCrossEntropy())
        waves = _recording_waves(plan, monkeypatch)
        members = _members(feature_shape, (12, 30, 20, 11, 30, 15))
        plan.run_cohort(plan.model.get_flat_weights(), members, Adam(0.005))
        assert plan.wave_size == 1  # one client's arena is over any budget of 1 byte
        assert waves[0][0] is members[4]  # the largest shard (the later of two 30s)
        assert [len(w) for w in waves] == [1] * len(members)
        # Sorted by (shard size, epochs) after the first: equal shards meet.
        assert [m.schedule.n for (m,) in waves[1:]] == [11, 12, 15, 20, 30]


class TestLoudFailures:
    """A member whose data its batch schedule cannot cover is refused by
    name before anything trains — where a mismatch used to ignore rows,
    train on empty batches, or fail inside ``np.take``."""

    def _plan_and_member(self, n_x, n_y, n_schedule=12):
        feature_shape, build = BUILDERS["mlp"]
        rng = np.random.default_rng(0)
        member = CohortMember(
            rng.normal(size=(n_x,) + feature_shape),
            rng.integers(0, 5, size=n_y),
            FixedBatchSchedule(n_schedule, 10, 7, seed=0),
            start_epoch=0,
            epochs=2,
        )
        return build(np.random.default_rng(1)).training_plan(SoftmaxCrossEntropy()), member

    def _assert_refused(self, plan, member):
        before = plan.model.get_flat_weights()
        with pytest.raises(ValueError, match=r"client 7: x has \d+ rows and y \d+"):
            plan.run_cohort(before, [member], Adam(0.005))
        with pytest.raises(ValueError, match="client 7"):
            plan.run_epochs(member.x, member.y, member.schedule, 0, 2, Adam(0.005))
        np.testing.assert_array_equal(plan.model.get_flat_weights(), before)

    def test_a_few_extra_rows(self):
        """Used to be silently ignored: the schedule never indexes them."""
        self._assert_refused(*self._plan_and_member(14, 14))

    def test_many_extra_rows(self):
        """Used to run empty batches past the schedule's end: a NaN loss,
        then an IndexError on the loss buffer."""
        self._assert_refused(*self._plan_and_member(40, 40))

    def test_too_few_rows(self):
        """Used to raise IndexError from inside ``np.take``."""
        self._assert_refused(*self._plan_and_member(9, 9))

    def test_labels_that_do_not_match(self):
        self._assert_refused(*self._plan_and_member(12, 11))

    def test_members_that_cannot_share_a_batch(self):
        plan, member = self._plan_and_member(12, 12)
        other = member._replace(
            x=member.x.astype(np.float32),
            schedule=FixedBatchSchedule(12, 10, 9, seed=0),
        )
        with pytest.raises(ValueError, match="client 9: samples of shape"):
            plan.run_cohort(plan.model.get_flat_weights(), [member, other], Adam(0.005))

    def test_zero_epochs_and_negative_lambda(self):
        plan, member = self._plan_and_member(12, 12)
        start = plan.model.get_flat_weights()
        with pytest.raises(ValueError, match="client 7: epochs must be >= 1"):
            plan.run_cohort(start, [member._replace(epochs=0)], Adam(0.005))
        with pytest.raises(ValueError, match="client 7: lambda must be non-negative"):
            plan.run_cohort(start, [member._replace(lam=-0.1)], Adam(0.005))

    def test_start_vector_of_the_wrong_size(self):
        plan, member = self._plan_and_member(12, 12)
        with pytest.raises(ValueError, match="flat vector"):
            plan.run_cohort(np.zeros(3), [member], Adam(0.005))

    def test_a_start_row_outside_the_stack(self):
        plan, member = self._plan_and_member(12, 12)
        starts = np.stack([plan.model.get_flat_weights()] * 2)
        with pytest.raises(ValueError, match="client 7: start row 2 of 2"):
            plan.run_cohort(starts, [member._replace(row=2)], Adam(0.005))
        with pytest.raises(ValueError, match="client 7: start row -1 of 2"):
            plan.run_cohort(starts, [member._replace(row=-1)], Adam(0.005))
