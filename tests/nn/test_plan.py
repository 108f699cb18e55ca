"""Fused training plan: bit-identity to the per-layer reference, arena hygiene.

The whole contract in one file:

1. kernel equivalence — every planned (``out=``/``scratch=``) layer and
   loss kernel produces bitwise the allocating (``scratch=None``) result, including
   the awkward cases (time-distributed Dense, 'valid' convolutions,
   cropped and tied max-pooling); the recurrent model's kernels do so
   stacked too, G clients against G references, and leave batch-norm's
   statistics and dropout's stream where cohort order puts them;
2. loop equivalence — ``SimClient.local_train`` through
   ``TrainingPlan.run_cohort`` reproduces a reference loop written here
   over ``Sequential.train_on_batch`` byte for byte, for CNN, MLP and
   logistic models, ragged final batches, multiple epochs, stateful and
   explicit-cursor schedules (full FL histories are pinned by
   ``tests/fixtures/golden``);
3. arena hygiene — scratch reuse never aliases or mutates caller-owned
   arrays (hypothesis-driven), buffers stop growing after the first
   round (and, for cohorts, never exceed B one-client arenas), and layer
   caches are released between rounds;
4. plan lifecycle — plans are cached per loss, a forward-only plan
   refuses to train, and plans never survive pickling/cloning/astype.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import FixedBatchSchedule
from repro.data.datasets import make_dataset
from repro.exec import OptimizerSpec
from repro.metrics.evaluation import Evaluator
from repro.nn.activations import ReLU, Sigmoid, Tanh, sigmoid, softmax
from repro.nn.conv import Conv2D
from repro.nn.layers import BatchNorm, Dense, Dropout, Flatten
from repro.nn.losses import LOG_EPS, SoftmaxCrossEntropy
from repro.nn import plan as plan_module
from repro.nn.model import Sequential
from repro.nn.plan import ScratchArena, TrainingPlan
from repro.nn.pooling import MaxPool2D
from repro.nn.proximal import ProximalTerm
from repro.nn.recurrent import LSTM, Embedding
from repro.nn.zoo import build_cnn, build_logistic, build_lstm_classifier, build_mlp
from repro.sim.client import SimClient


def _cnn(rng=None, shape=(8, 8, 3)):
    return build_cnn(
        shape, 10, rng=rng or np.random.default_rng(1), filters=(4, 6, 6), dense_units=12
    )


def _lstm_classifier(rng=None):
    return build_lstm_classifier(
        64, 64, rng=rng or np.random.default_rng(1), embed_dim=8, hidden_dim=8, dropout=0.1
    )


def _reddit_dataset(num_clients=2, samples=12):
    return make_dataset(
        "reddit", np.random.default_rng(0), num_clients=num_clients, samples_per_client=samples
    )


def _masked_sigmoid(x):
    """The two-sided stable sigmoid ``repro.nn.activations.sigmoid`` used to
    be, kept here as the oracle for its branch-free body."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _assert_same_bits(a, b):
    """Equal bit patterns wherever a number is stored; NaN where NaN."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


_SIGMOID_EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308, 36.8, -36.8, 709.9,
]


def _image_dataset(num_clients=3, samples=16, shape=(8, 8, 3)):
    return make_dataset(
        "cifar10",
        np.random.default_rng(0),
        num_clients=num_clients,
        samples_per_client=samples,
        image_shape=shape,
        classes_per_client=2,
    )


# --------------------------------------------------------------------- #
# 1. Planned kernels == legacy kernels, layer by layer
# --------------------------------------------------------------------- #
class TestKernelEquivalence:
    def _roundtrip(self, legacy, planned, x, grad, training=True, slot=None):
        """forward+backward both ways; assert bitwise equality."""
        if slot is None:
            slot = ScratchArena().slot(0)
        y_legacy = legacy.forward(x.copy(), training=training)
        y_planned = planned.forward(x.copy(), training=training, scratch=slot)
        np.testing.assert_array_equal(y_legacy, y_planned)
        g_legacy = legacy.backward(grad.copy())
        g_planned = planned.backward(grad.copy(), scratch=slot)
        np.testing.assert_array_equal(g_legacy, g_planned)

    def test_dense_2d(self):
        rng = np.random.default_rng(0)
        a = Dense(6, 4, rng=np.random.default_rng(1))
        b = Dense(6, 4, rng=np.random.default_rng(1))
        self._roundtrip(a, b, rng.normal(size=(7, 6)), rng.normal(size=(7, 4)))
        np.testing.assert_array_equal(a.w.grad, b.w.grad)
        np.testing.assert_array_equal(a.b.grad, b.b.grad)

    def test_dense_time_distributed(self):
        rng = np.random.default_rng(0)
        a = Dense(5, 3, rng=np.random.default_rng(1))
        b = Dense(5, 3, rng=np.random.default_rng(1))
        self._roundtrip(a, b, rng.normal(size=(4, 6, 5)), rng.normal(size=(4, 6, 3)))
        np.testing.assert_array_equal(a.w.grad, b.w.grad)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv(self, padding):
        rng = np.random.default_rng(0)
        a = Conv2D(3, 5, 3, padding=padding, rng=np.random.default_rng(1))
        b = Conv2D(3, 5, 3, padding=padding, rng=np.random.default_rng(1))
        x = rng.normal(size=(4, 6, 6, 3))
        out_spatial = 6 if padding == "same" else 4
        g = rng.normal(size=(4, out_spatial, out_spatial, 5))
        self._roundtrip(a, b, x, g)
        np.testing.assert_array_equal(a.w.grad, b.w.grad)
        np.testing.assert_array_equal(a.b.grad, b.b.grad)

    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid])
    def test_activations(self, cls):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 9))
        self._roundtrip(cls(), cls(), x, rng.normal(size=(5, 9)))

    def test_activation_inplace_out(self):
        """out=x (the plan's in-place mode) gives the same values."""
        rng = np.random.default_rng(0)
        for cls in (ReLU, Tanh, Sigmoid):
            x = rng.normal(size=(4, 7))
            ref = cls().forward(x.copy(), training=True)
            arena = ScratchArena()
            buf = x.copy()
            got = cls().forward(buf, training=True, scratch=arena.slot(0), out=buf)
            assert got is buf
            np.testing.assert_array_equal(ref, got)

    @pytest.mark.parametrize(
        "hw", [(6, 6), (7, 7)], ids=["even", "cropped"]
    )
    def test_maxpool_float(self, hw):
        rng = np.random.default_rng(0)
        h, w = hw
        x = rng.normal(size=(3, h, w, 4))
        g = rng.normal(size=(3, h // 2, w // 2, 4))
        self._roundtrip(MaxPool2D(2), MaxPool2D(2), x, g)

    def test_maxpool_ties(self):
        """Integer-valued inputs force ties; the tie branch must match."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(3, 6, 6, 4)).astype(np.float64)
        g = rng.normal(size=(3, 3, 3, 4))
        self._roundtrip(MaxPool2D(2), MaxPool2D(2), x, g)

    def test_maxpool_post_relu_zeros(self):
        """Post-ReLU activations tie on exact zeros constantly — the
        regime the pool backward's tied branch actually runs in."""
        rng = np.random.default_rng(0)
        x = np.maximum(rng.normal(size=(3, 6, 6, 4)), 0.0)
        g = rng.normal(size=(3, 3, 3, 4))
        self._roundtrip(MaxPool2D(2), MaxPool2D(2), x, g)

    def test_loss(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(9, 5))
        labels = rng.integers(0, 5, size=9)
        a, b = SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        arena = ScratchArena()
        slot = arena.slot("loss")
        assert a.forward(logits, labels) == b.forward(logits, labels, scratch=slot)
        np.testing.assert_array_equal(a.backward(), b.backward(scratch=slot))

    @pytest.mark.parametrize("seq", [False, True], ids=["last", "sequences"])
    @pytest.mark.parametrize(
        "ntdh", [(6, 5, 4, 8), (5, 1, 3, 6), (1, 4, 3, 5), (3, 6, 7, 11)],
        ids=["plain", "T=1", "N=1", "odd-H"],
    )
    def test_lstm(self, ntdh, seq):
        n, t, d, h = ntdh
        rng = np.random.default_rng(0)
        a = LSTM(d, h, rng=np.random.default_rng(1), return_sequences=seq)
        b = LSTM(d, h, rng=np.random.default_rng(1), return_sequences=seq)
        x = rng.normal(size=(n, t, d))
        slot = ScratchArena().slot(0)
        self._roundtrip(a, b, x, rng.normal(size=(n, t, h) if seq else (n, h)), slot=slot)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.grad, pb.grad)
        # As a model's first layer: no dL/dx, parameter gradients intact.
        grad = rng.normal(size=(n, t, h) if seq else (n, h))
        a.forward(x, training=True)
        a.backward(grad)
        b.forward(x, training=True, scratch=slot)
        assert b.backward(grad, scratch=slot, input_grad=False) is None
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.grad, pb.grad)
        # The inference kernel keeps no BPTT history: same values, no backward.
        np.testing.assert_array_equal(
            a.forward(x), b.forward(x, training=False, scratch=slot)
        )
        with pytest.raises(RuntimeError, match="training=True"):
            b.backward(grad, scratch=slot)

    @pytest.mark.parametrize("seq", [False, True], ids=["last", "sequences"])
    def test_lstm_batch_sizes_share_one_slab(self, seq):
        """Every input shape is a prefix of one grow-only buffer, so each
        call must re-establish its own zeros (h_0, c_0, the empty dh rows)
        over whatever the previous shape left there."""
        rng = np.random.default_rng(0)
        d, h, t = 4, 6, 5
        a = LSTM(d, h, rng=np.random.default_rng(1), return_sequences=seq)
        b = LSTM(d, h, rng=np.random.default_rng(1), return_sequences=seq)
        arena = ScratchArena()
        slot = arena.slot(0)
        sizes = []
        for n in (7, 3, 7, 3, 1, 7):
            x = rng.normal(size=(n, t, d))
            np.testing.assert_array_equal(
                a.forward(x), b.forward(x, training=False, scratch=slot)
            )
            self._roundtrip(
                a, b, x, rng.normal(size=(n, t, h) if seq else (n, h)), slot=slot
            )
            for pa, pb in zip(a.params, b.params):
                np.testing.assert_array_equal(pa.grad, pb.grad)
            sizes.append(arena.nbytes)
        assert len(set(sizes)) == 1  # the first (largest) batch sized it

    def test_lstm_mixed_dtype_takes_the_reference_path(self):
        """float64 activations into float32 weights promote mid-sequence;
        the one-dtype slab cannot reproduce that, so the plan must not try."""
        rng = np.random.default_rng(0)
        a = LSTM(3, 4, rng=np.random.default_rng(1))
        b = LSTM(3, 4, rng=np.random.default_rng(1))
        for layer in (a, b):
            for p in layer.params:
                p.data, p.grad = p.data.astype(np.float32), p.grad.astype(np.float32)
        self._roundtrip(a, b, rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 4)))

    def test_embedding_repeated_ids(self):
        rng = np.random.default_rng(0)
        a = Embedding(9, 5, rng=np.random.default_rng(1))
        b = Embedding(9, 5, rng=np.random.default_rng(1))
        ids = np.array([[2, 2, 7, 2], [0, 7, 7, 8], [2, 0, 0, 0]])
        slot = ScratchArena().slot(0)
        grad = rng.normal(size=(3, 4, 5))
        self._roundtrip(a, b, ids, grad, slot=slot)
        np.testing.assert_array_equal(a.w.grad, b.w.grad)
        # As the model's first layer nothing reads dL/d(ids).
        assert b.backward(grad, scratch=slot, input_grad=False) is None
        with pytest.raises(ValueError, match="token id 9 out of range .* vocab_size 9"):
            b.forward(np.array([[2, 9]]), scratch=slot)
        with pytest.raises(ValueError, match="token id -1 out of range .* vocab_size 9"):
            a.forward(np.array([[-1, 9]]))

    def test_dropout_draws_the_reference_masks(self):
        """``rng.random(out=...)`` must consume a generator exactly as
        ``rng.random(shape)`` does, call after call and shape after shape."""
        rng = np.random.default_rng(0)
        a, b = Dropout(0.3), Dropout(0.3)
        streams = [np.random.default_rng(5)], [np.random.default_rng(5)]
        slot = ScratchArena().slot(0)
        for shape in [(6, 9), (4, 9), (6, 9)]:
            x, grad = rng.normal(size=shape), rng.normal(size=shape)
            np.testing.assert_array_equal(
                a.forward(x, training=True, rngs=streams[0]),
                b.forward(x, training=True, scratch=slot, rngs=streams[1]),
            )
            np.testing.assert_array_equal(
                a.backward(grad.copy()), b.backward(grad.copy(), scratch=slot)
            )
            np.testing.assert_array_equal(a._mask, b._mask)
        x = rng.normal(size=(6, 9))
        assert b.forward(x, training=False, scratch=slot) is x  # identity at inference
        assert streams[0][0].random() == streams[1][0].random()  # streams still in step

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_batchnorm(self, training):
        rng = np.random.default_rng(0)
        a, b = BatchNorm(7), BatchNorm(7)
        for layer in (a, b):
            layer.gamma.data[...] = np.linspace(0.5, 1.5, 7)
            layer.beta.data[...] = np.linspace(-1.0, 1.0, 7)
        slot = ScratchArena().slot(0)
        for n in (9, 4, 9, 1) if not training else (9, 4, 9):
            # A training step first, so inference normalizes by running
            # statistics that are not their initial 0 / 1.
            self._roundtrip(
                a, b, rng.normal(2.0, 3.0, size=(n, 7)), rng.normal(size=(n, 7)), slot=slot
            )
            if not training:
                self._roundtrip(
                    a, b, rng.normal(size=(n, 7)), rng.normal(size=(n, 7)),
                    training=False, slot=slot,
                )
            np.testing.assert_array_equal(a.running_mean.data, b.running_mean.data)
            np.testing.assert_array_equal(a.running_var.data, b.running_var.data)
            np.testing.assert_array_equal(a.gamma.grad, b.gamma.grad)
            np.testing.assert_array_equal(a.beta.grad, b.beta.grad)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(min_value=-50.0, max_value=50.0),
                st.sampled_from(_SIGMOID_EDGES),
            ),
            min_size=1,
            max_size=60,
        ),
        cols=st.integers(min_value=1, max_value=7),
        layout=st.sampled_from(["contiguous", "column-slice", "every-other", "transposed"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_is_the_masked_formula_bit_for_bit(self, values, cols, layout):
        rows = -(-len(values) // cols)
        base = np.zeros((rows, 2 * cols + 1))
        base.reshape(-1)[: len(values)] = values
        x = {
            "contiguous": base,
            "column-slice": base[:, :cols],
            "every-other": base[:, ::2],
            "transposed": base.T,
        }[layout]
        want = _masked_sigmoid(x)
        _assert_same_bits(sigmoid(x), want)
        work = (np.empty(x.shape), np.empty(x.shape, dtype=np.bool_))
        out = np.full((x.shape[0], x.shape[1] + 3), 7.0)[:, : x.shape[1]]  # strided target
        assert sigmoid(x, out=out, work=work) is out
        _assert_same_bits(out, want)
        inplace = x.copy()
        _assert_same_bits(sigmoid(inplace, out=inplace), want)

    def test_sigmoid_edges_and_float32(self):
        x = np.array(_SIGMOID_EDGES)
        _assert_same_bits(sigmoid(x), _masked_sigmoid(x))
        _assert_same_bits(sigmoid(x[::-1][::3]), _masked_sigmoid(x[::-1][::3]))
        x32 = np.random.default_rng(0).normal(scale=20.0, size=(5, 8)).astype(np.float32)
        got = sigmoid(x32)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, _masked_sigmoid(x32.astype(np.float64)), rtol=1e-6)

    def test_input_grad_skip_leaves_param_grads_intact(self):
        rng = np.random.default_rng(0)
        a = Conv2D(3, 4, 3, rng=np.random.default_rng(1))
        b = Conv2D(3, 4, 3, rng=np.random.default_rng(1))
        x = rng.normal(size=(2, 6, 6, 3))
        g = rng.normal(size=(2, 6, 6, 4))
        arena = ScratchArena()
        a.forward(x, training=True)
        a.backward(g)
        b.forward(x, training=True, scratch=arena.slot(0))
        assert b.backward(g, scratch=arena.slot(0), input_grad=False) is None
        np.testing.assert_array_equal(a.w.grad, b.w.grad)
        np.testing.assert_array_equal(a.b.grad, b.b.grad)


def _cohort_stack(layers):
    """G layers' parameters as one cohort group's ``stack``: views of the
    rows of a weight and a zeroed gradient slab, shaped the way
    ``TrainingPlan._stacks`` hands them over (no client axis for G = 1)."""
    weights = np.stack([np.concatenate([p.data.ravel() for p in layer.params]) for layer in layers])
    grads = np.zeros_like(weights)
    lead = (len(layers),) if len(layers) > 1 else ()
    stack, a = [], 0
    for p in layers[0].params:
        b = a + p.data.size
        shape = lead + p.shape
        stack.append((weights[:, a:b].reshape(shape), grads[:, a:b].reshape(shape)))
        a = b
    return stack


#: (clients, rows) of successive stacked calls through one arena: totals
#: that shrink, grow and repeat with a different G.
_COHORT_SHAPES = [(3, 4), (1, 7), (2, 6), (4, 3), (3, 4)]


class TestStackedKernelEquivalence:
    """A stacked kernel over G clients' client-major batch and their
    ``(G, *shape)`` stack equals G allocating per-layer references, each on
    its own client's rows: outputs, input and parameter gradients, and
    what forward writes into the stack (batch-norm's running statistics) —
    every shape through one arena."""

    def _roundtrip(self, make, x_of, grad_of, *, input_grad=True):
        rng = np.random.default_rng(0)
        planned, slot = make(0), ScratchArena().slot(0)
        for g, rows in _COHORT_SHAPES:
            refs = [make(10 + i) for i in range(g)]
            stack = _cohort_stack(refs)
            xs = [x_of(rng, rows) for _ in range(g)]
            grads = [grad_of(rng, rows) for _ in range(g)]
            y = planned.forward(np.concatenate(xs), training=True, scratch=slot, stack=stack)
            want = [r.forward(x, training=True) for r, x in zip(refs, xs)]
            _assert_same_bits(y, np.concatenate(want))
            gx = planned.backward(
                np.concatenate(grads), scratch=slot, input_grad=input_grad, stack=stack
            )
            gx_want = [r.backward(grad) for r, grad in zip(refs, grads)]
            if input_grad:
                _assert_same_bits(gx, np.concatenate(gx_want))
            for (data, grad), params in zip(stack, zip(*(r.params for r in refs))):
                want = np.stack([p.data for p in params])
                _assert_same_bits(data.reshape(want.shape), want)
                want = np.stack([p.grad for p in params])
                _assert_same_bits(grad.reshape(want.shape), want)

    @pytest.mark.parametrize("seq", [False, True], ids=["last", "sequences"])
    def test_lstm(self, seq):
        t, d, h = 4, 5, 6
        self._roundtrip(
            lambda seed: LSTM(d, h, rng=np.random.default_rng(seed), return_sequences=seq),
            lambda rng, rows: rng.normal(size=(rows, t, d)),
            lambda rng, rows: rng.normal(size=(rows, t, h) if seq else (rows, h)),
        )

    @pytest.mark.parametrize("input_grad", [False, True])
    def test_embedding(self, input_grad):
        self._roundtrip(
            lambda seed: Embedding(9, 5, rng=np.random.default_rng(seed)),
            lambda rng, rows: rng.integers(0, 9, size=(rows, 4)),
            lambda rng, rows: rng.normal(size=(rows, 4, 5)),
            input_grad=input_grad,
        )

    def test_batchnorm(self):
        """Per-client statistics for the output, each client's running
        statistics updated in its own rows of the stack."""

        def make(seed):
            layer = BatchNorm(7)
            r = np.random.default_rng(seed)
            layer.gamma.data[...] = r.uniform(0.5, 1.5, 7)
            layer.beta.data[...] = r.normal(size=7)
            layer.running_mean.data[...] = r.normal(size=7)
            layer.running_var.data[...] = r.uniform(0.5, 1.5, 7)
            return layer

        self._roundtrip(
            make,
            lambda rng, rows: rng.normal(2.0, 3.0, size=(rows, 7)),
            lambda rng, rows: rng.normal(size=(rows, 7)),
        )

    def test_dropout_draws_each_clients_rows_from_its_own_generator(self):
        """Client i's rows come from the generator it is handed, as its own
        reference draws them; each generator ends where its reference's
        does."""
        rng = np.random.default_rng(0)
        planned, slot, reference = Dropout(0.3), ScratchArena().slot(0), Dropout(0.3)
        streams = [np.random.default_rng(s) for s in range(4)]
        twins = [np.random.default_rng(s) for s in range(4)]
        for g, rows in _COHORT_SHAPES:
            xs = [rng.normal(size=(rows, 6)) for _ in range(g)]
            # Each group's clients in reverse generator order.
            y = planned.forward(
                np.concatenate(xs), training=True, scratch=slot, rngs=streams[:g][::-1]
            )
            want = [
                reference.forward(x, training=True, rngs=[twin])
                for x, twin in zip(xs, twins[:g][::-1])
            ]
            _assert_same_bits(y, np.concatenate(want))
        assert [s.random() for s in streams] == [t.random() for t in twins]


# --------------------------------------------------------------------- #
# 2. Loop equivalence: a one-member run_cohort == the per-layer reference loop
# --------------------------------------------------------------------- #
def _reference_round(model, data, flat, *, epochs, batch_size, lam, spec, loss, start_epoch):
    """One client round over ``Sequential.train_on_batch`` — the allocating
    per-layer reference — with the schedule, optimizer and proximal hook
    ``SimClient.local_train`` uses. Returns (weights, mean batch loss)."""
    model.set_flat_weights(flat)
    optimizer = spec.build()
    hook = None
    if lam > 0:
        hook = ProximalTerm(lam)
        hook.set_reference(model.store)
    schedule = FixedBatchSchedule(data.num_train, batch_size, data.client_id, seed=0)
    x, y, rng = data.x_train, data.y_train, schedule.mask_rng(start_epoch)
    losses = [
        model.train_on_batch(x[idx], y[idx], loss, optimizer, grad_hook=hook, rng=rng)
        for idx in schedule.epochs(start_epoch, epochs)
    ]
    return model.get_flat_weights(), float(np.mean(losses))


def _train_once(planned, builder, dataset, *, epochs=2, batch_size=10, lam=0.4,
                optimizer=("adam", 0.005), start_epoch=None, rounds=1):
    """``rounds`` sweeps over the dataset's clients, each client starting
    from the previous one's weights; ``planned`` trains through
    ``SimClient.local_train`` (the fused plan), otherwise through the
    in-test reference loop. ``start_epoch=None`` exercises the clients'
    stateful schedule cursors (the reference tracks them by hand)."""
    model = builder(np.random.default_rng(1))
    loss = SoftmaxCrossEntropy()
    spec = OptimizerSpec(*optimizer)
    flat = model.get_flat_weights()
    clients = [SimClient(c, None, batch_size=batch_size, seed=0) for c in dataset.clients]
    out = []
    for r in range(rounds):
        for client in clients:
            if planned:
                res = client.local_train(
                    model, flat, epochs=epochs, loss=loss, optimizer_factory=spec.build,
                    lam=lam, latency=1.0, start_epoch=start_epoch,
                )
                pair = (res.weights, res.train_loss)
            else:
                pair = _reference_round(
                    model, client.data, flat, epochs=epochs, batch_size=batch_size,
                    lam=lam, spec=spec, loss=loss,
                    start_epoch=r * epochs if start_epoch is None else start_epoch,
                )
            out.append(pair)
            flat = pair[0]
    if planned and start_epoch is None:
        assert all(c.schedule.epochs_consumed == rounds * epochs for c in clients)
    return out


def _assert_rounds_identical(a, b):
    assert len(a) == len(b)
    for (wa, la), (wb, lb) in zip(a, b):
        np.testing.assert_array_equal(wa, wb)
        assert la == lb


class TestLoopEquivalence:
    @pytest.mark.parametrize("kind", ["cnn", "mlp", "logreg"])
    @pytest.mark.parametrize("batch_size", [10, 7], ids=["even", "ragged"])
    def test_local_train_bit_identical(self, kind, batch_size):
        if kind == "cnn":
            builder = _cnn
            ds = _image_dataset()
        else:
            builder = {
                "mlp": lambda rng: build_mlp(64, 3, rng=rng, hidden=(16,)),
                "logreg": lambda rng: build_logistic(64, 3, rng=rng),
            }[kind]
            ds = make_dataset(
                "sentiment140", np.random.default_rng(0),
                num_clients=3, samples_per_client=17,
            )
        _assert_rounds_identical(
            _train_once(True, builder, ds, batch_size=batch_size),
            _train_once(False, builder, ds, batch_size=batch_size),
        )

    def test_sgd_and_explicit_cursor(self):
        ds = _image_dataset(num_clients=2)
        kwargs = dict(optimizer=("sgd", 0.05), start_epoch=3, epochs=2)
        _assert_rounds_identical(
            _train_once(True, _cnn, ds, **kwargs), _train_once(False, _cnn, ds, **kwargs)
        )

    def test_stateful_schedule_cursor_advances_identically(self):
        """Without ``start_epoch`` each round starts at the client's own
        cursor: round r must train epochs [r*E, (r+1)*E) exactly as the
        reference loop replaying those epochs does, and leave the cursor
        at (r+1)*E (asserted inside ``_train_once``)."""
        ds = _image_dataset(num_clients=2)
        _assert_rounds_identical(
            _train_once(True, _cnn, ds, rounds=2), _train_once(False, _cnn, ds, rounds=2)
        )

    def test_stacked_activations_bit_identical(self):
        """Tanh/Sigmoid backward reads its cached output, so the plan must
        not let a following activation overwrite that buffer in place —
        regression test for the stacked-activation in-place hazard. Flatten
        hands that buffer on as a view, so the same holds one layer on (a
        ReLU there would not show it: it zeroes exactly the gradients its
        in-place write would corrupt)."""
        from repro.nn.model import Sequential

        ds = make_dataset(
            "sentiment140", np.random.default_rng(0),
            num_clients=2, samples_per_client=15,
        )

        def builder(rng):
            return Sequential(
                [
                    Dense(64, 12, rng=rng, name="fc1"),
                    Sigmoid(),
                    ReLU(),
                    Tanh(),
                    Flatten(),
                    Sigmoid(),
                    Dense(12, 8, rng=rng, name="fc2"),
                    Tanh(),
                    Tanh(),
                    Dense(8, 3, rng=rng, name="head"),
                ],
                name="stacked",
            )

        _assert_rounds_identical(
            _train_once(True, builder, ds, epochs=2), _train_once(False, builder, ds, epochs=2)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [dict(epochs=1), dict(epochs=2, batch_size=7, rounds=2)],
        ids=["even", "ragged"],
    )
    def test_recurrent_model_bit_identical(self, kwargs):
        """Embedding -> LSTM -> Dropout -> BatchNorm -> Dense, every layer on
        its planned kernels: dropout's masks from the round's generator,
        batch-norm's running statistics in the weights and the LSTM's shared
        slab (a ragged final batch alternates two shapes through it) all
        have to stay in step."""
        ds = _reddit_dataset(samples=24)
        _assert_rounds_identical(
            _train_once(True, _lstm_classifier, ds, **kwargs),
            _train_once(False, _lstm_classifier, ds, **kwargs),
        )

    def test_stacked_lstm_bit_identical(self):
        """``return_sequences`` inside a plan: the first LSTM's output is a
        strided view of the slab its backward reads h_1..h_{T-1} from, so
        the activation after it must not run in place over it."""

        def builder(rng):
            return Sequential(
                [
                    Embedding(64, 6, rng=rng),
                    LSTM(6, 7, rng=rng, return_sequences=True, name="lstm1"),
                    ReLU(),
                    LSTM(7, 5, rng=rng, name="lstm2"),
                    Dense(5, 64, rng=rng, name="head"),
                ],
                name="stacked_lstm",
            )

        ds = _reddit_dataset(samples=24)
        kwargs = dict(epochs=2, batch_size=7)
        _assert_rounds_identical(
            _train_once(True, builder, ds, **kwargs), _train_once(False, builder, ds, **kwargs)
        )

    def test_evaluator_matches_model_forward(self):
        """The evaluator's forward-only plan scores exactly what chunked
        ``Sequential.forward`` calls score."""
        ds = _image_dataset(num_clients=3)
        model = _cnn()
        got = Evaluator(ds, model, eval_batch_size=13).evaluate_flat(model.get_flat_weights())

        x = np.concatenate([c.x_test for c in ds.clients])
        y = np.concatenate([c.y_test for c in ds.clients]).reshape(-1)
        logits = np.concatenate(
            [model.forward(x[a : a + 13], training=False) for a in range(0, len(x), 13)]
        )
        correct = (np.argmax(logits, axis=-1) == y).astype(np.float64)
        nll = -np.log(softmax(logits)[np.arange(len(y)), y] + LOG_EPS)
        assert got["accuracy"] == float(correct.mean())
        assert got["loss"] == float(nll.mean())


# --------------------------------------------------------------------- #
# 3. Arena hygiene
# --------------------------------------------------------------------- #
class TestArenaHygiene:
    @given(
        batch_size=st.integers(min_value=1, max_value=9),
        epochs=st.integers(min_value=1, max_value=3),
        n_samples=st.integers(min_value=3, max_value=15),
        lam=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_arena_never_aliases_or_mutates_caller_arrays(
        self, batch_size, epochs, n_samples, lam
    ):
        """Property: whatever the batch geometry, caller-owned inputs are
        only read, and the returned weights are an owned copy sharing no
        memory with the arena or the store."""
        ds = make_dataset(
            "sentiment140", np.random.default_rng(0),
            num_clients=1, samples_per_client=n_samples,
        )
        model = build_mlp(64, 3, rng=np.random.default_rng(1), hidden=(8,))
        client = SimClient(ds.clients[0], None, batch_size=batch_size, seed=0)
        flat = model.get_flat_weights()
        x_before = client.data.x_train.copy()
        y_before = client.data.y_train.copy()
        flat_before = flat.copy()
        res = client.local_train(
            model, flat, epochs=epochs, loss=SoftmaxCrossEntropy(),
            optimizer_factory=OptimizerSpec("adam", 0.005).build,
            lam=lam, latency=1.0,
        )
        np.testing.assert_array_equal(client.data.x_train, x_before)
        np.testing.assert_array_equal(client.data.y_train, y_before)
        np.testing.assert_array_equal(flat, flat_before)
        assert res.weights.base is None  # owned, not a view
        for p in model._plans.values():
            assert not p.arena.owns(res.weights)
        assert not np.shares_memory(res.weights, model.store.data)

    def test_arena_stops_growing_after_first_round(self):
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        for ds, model in (
            (_image_dataset(num_clients=2), _cnn()),
            # 17-18 training rows at batch size 10: a ragged batch every epoch.
            (_reddit_dataset(samples=24), _lstm_classifier()),
        ):
            flat = model.get_flat_weights()
            clients = [SimClient(c, None, batch_size=10, seed=0) for c in ds.clients]

            def sweep():
                for c in clients:
                    c.local_train(
                        model, flat, epochs=1, loss=loss,
                        optimizer_factory=spec.build, latency=1.0,
                    )

            sweep()
            plan = model.training_plan(loss)
            nbytes_after_first_sweep = plan.arena.nbytes
            for _ in range(3):
                sweep()
            assert plan.arena.nbytes == nbytes_after_first_sweep, model.name

    @pytest.mark.parametrize("budget", ["default", "three_clients"])
    def test_cohort_arena_stops_growing_and_holds_b_clients(self, budget, monkeypatch):
        """Cohorts in lockstep waves: from the first on the arena stops
        growing, and it never holds more than B one-client
        arenas — B being how many fit ``WAVE_BYTES`` (forced to 3 here),
        with a wave's weight, state and gradient rows counted per client.
        (The first cohort's largest member trains alone to size a client,
        so a cohort must outnumber B for its waves to reach B.)"""
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        ds = _image_dataset(num_clients=14, samples=20)
        members = [SimClient(c, None, batch_size=10, seed=0).member(2, 0.4) for c in ds.clients]
        assert min(m.schedule.n for m in members) >= 10  # step 0 stacks a full wave
        flat = _cnn().get_flat_weights()
        if budget == "three_clients":
            probe = TrainingPlan(_cnn(), loss)
            probe.run_cohort(flat, members, spec.build())
            monkeypatch.setattr(plan_module, "WAVE_BYTES", 3 * probe.client_bytes + 1)
        plan = TrainingPlan(_cnn(), loss)
        sizes = []
        for _ in range(4):
            plan.run_cohort(flat, members, spec.build())
            sizes.append(plan.arena.nbytes)
        assert len(set(sizes)) == 1, sizes
        assert plan.wave_size < len(members) - 1
        if budget == "three_clients":
            assert plan.wave_size == 3
        assert plan.arena.nbytes <= plan.wave_size * plan.client_bytes

    def test_waves_keep_their_arena_across_cohorts(self):
        """A stacked cohort grows the arena past one client's, and the arena
        keeps it for every later cohort, stacked or not: flushed launches
        stack almost every time, so giving it back would only reallocate."""
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        ds = _image_dataset(num_clients=6, samples=20)
        members = [SimClient(c, None, batch_size=10, seed=0).member(1, 0.0) for c in ds.clients]
        plan = TrainingPlan(_cnn(), loss)
        flat = plan.model.get_flat_weights()
        sizes = []
        for cohort in (members[:1], members, members[:1], members):
            plan.run_cohort(flat, cohort, spec.build())
            sizes.append(plan.arena.nbytes)
        one, stacked, alone_after, again = sizes
        assert 0 < one < stacked == alone_after == again

    def test_view_cache_survives_ragged_batches(self):
        arena = ScratchArena()
        full = arena.take("k", (10, 4), np.float64)
        ragged = arena.take("k", (6, 4), np.float64)
        assert ragged.base is full  # prefix view of the full buffer
        assert arena.take("k", (6, 4), np.float64) is ragged  # cached view
        grown = arena.take("k", (12, 4), np.float64)
        assert grown.shape == (12, 4)
        assert not np.shares_memory(grown, full)  # old buffer replaced

    def test_shared_scratch_pool_reuses_one_buffer(self):
        arena = ScratchArena()
        a = arena.slot(0)("~x", (4, 3), np.float64)
        b = arena.slot(5)("~x", (2, 6), np.float64)
        assert np.shares_memory(a, b)
        c = arena.slot(1)("~x", (5, 5), np.float64)  # grows
        assert c.size == 25

    def test_run_epochs_releases_layer_caches(self):
        for ds, model in (
            (_image_dataset(num_clients=1), _cnn()),
            (_reddit_dataset(num_clients=1), _lstm_classifier()),
        ):
            client = SimClient(ds.clients[0], None, batch_size=10, seed=0)
            client.local_train(
                model, model.get_flat_weights(), epochs=1,
                loss=SoftmaxCrossEntropy(),
                optimizer_factory=OptimizerSpec("adam", 0.005).build, latency=1.0,
            )
            for layer in model.layers:
                for attr in layer._cache_attrs:
                    assert not hasattr(layer, attr), (
                        f"{type(layer).__name__}.{attr} still pinned after run_epochs"
                    )


# --------------------------------------------------------------------- #
# 4. Plan lifecycle
# --------------------------------------------------------------------- #
#: One instance of every layer :mod:`repro.nn` exports.
_EVERY_LAYER = {
    "Dense": lambda rng: Dense(3, 2, rng=rng),
    "Flatten": lambda rng: Flatten(),
    "Dropout": lambda rng: Dropout(0.5),
    "BatchNorm": lambda rng: BatchNorm(3),
    "Conv2D": lambda rng: Conv2D(1, 2, rng=rng),
    "MaxPool2D": lambda rng: MaxPool2D(2),
    "Embedding": lambda rng: Embedding(8, 3, rng=rng),
    "LSTM": lambda rng: LSTM(3, 3, rng=rng),
    "ReLU": lambda rng: ReLU(),
    "Tanh": lambda rng: Tanh(),
    "Sigmoid": lambda rng: Sigmoid(),
}


class TestKernelProtocol:
    """The signature is the protocol: every exported layer's kernels take
    exactly the keywords the plan's compiled closures pass it, so every
    one compiles — there is no other path a layer could take."""

    def test_every_exported_layer_is_listed(self):
        import repro.nn
        from repro.nn.layers import Layer

        exported = {
            name
            for name in repro.nn.__all__
            if isinstance(getattr(repro.nn, name), type)
            and issubclass(getattr(repro.nn, name), Layer)
        }
        assert exported == set(_EVERY_LAYER)

    @pytest.mark.parametrize("name", sorted(_EVERY_LAYER))
    def test_kernels_take_what_the_plan_passes(self, name):
        import inspect

        layer = _EVERY_LAYER[name](np.random.default_rng(0))
        fwd = set(inspect.signature(layer.forward).parameters)
        bwd = set(inspect.signature(layer.backward).parameters)
        assert "scratch" in fwd
        assert {"scratch", "input_grad"} <= bwd
        if layer.params:
            assert "stack" in fwd and "stack" in bwd
        if layer.draws:
            assert "rngs" in fwd
        if getattr(layer, "plan_inplace", False):
            assert "out" in fwd
        fwd_step, bwd_step = plan_module._compile_layer(layer, ScratchArena().slot(0))
        assert callable(fwd_step) and callable(bwd_step)


class TestPlanLifecycle:
    def test_plan_cached_per_loss(self):
        model = _cnn()
        loss = SoftmaxCrossEntropy()
        assert model.training_plan(loss) is model.training_plan(loss)
        assert model.training_plan(None) is not model.training_plan(loss)

    def test_pickle_and_clone_drop_plans(self):
        model = _cnn()
        model.training_plan(SoftmaxCrossEntropy())
        assert model._plans
        assert not pickle.loads(pickle.dumps(model))._plans
        assert not model.clone()._plans

    def test_astype_invalidates_plans(self):
        model = _cnn()
        plan = model.training_plan(None)
        model.astype(np.float32)
        assert model._plans == {}
        fresh = model.training_plan(None)
        assert fresh is not plan

    def test_plan_forward_matches_model_forward(self):
        model = _cnn()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 8, 8, 3))
        plan = model.training_plan(None)
        np.testing.assert_array_equal(
            model.forward(x, training=False), plan.forward(x, training=False)
        )

    def test_forward_only_plan_refuses_training(self):
        model = _cnn()
        plan = model.training_plan(None)
        ds = _image_dataset(num_clients=1)
        client = SimClient(ds.clients[0], None, batch_size=10, seed=0)
        with pytest.raises(ValueError, match="without a loss"):
            plan.run_epochs(
                client.data.x_train, client.data.y_train, client.schedule,
                0, 1, OptimizerSpec("adam", 0.005).build(),
            )

    def test_float32_plan_close_to_reference_and_deterministic(self):
        """At float32 the reference max-pool tie branch silently promotes
        the gradient to float64 (``f32 / int64`` counts), which the plan's
        dtype-stable kernels deliberately do not replicate — so the two
        agree to float32 round-off rather than bitwise (the hard bitwise
        contract is float64). The plan itself must be deterministic."""
        ds = _image_dataset(num_clients=2)

        def builder(rng):
            return _cnn(rng).astype(np.float32)

        a = _train_once(True, builder, ds, epochs=1)
        b = _train_once(False, builder, ds, epochs=1)
        a2 = _train_once(True, builder, ds, epochs=1)
        for (wa, _), (wb, _), (wa2, _) in zip(a, b, a2):
            assert wa.dtype == np.float32
            assert np.all(np.isfinite(wa))
            np.testing.assert_allclose(wa, wb, atol=1e-5, rtol=1e-4)
            np.testing.assert_array_equal(wa, wa2)  # deterministic

    def test_float32_recurrent_plan_close_to_reference(self):
        """The recurrent kernels keep a float32 store float32 (slabs take
        the input dtype, constants stay weak scalars) and agree with the
        reference to float32 round-off."""
        ds = _reddit_dataset(samples=24)

        def builder(rng):
            return _lstm_classifier(rng).astype(np.float32)

        kwargs = dict(epochs=2, batch_size=7)
        a = _train_once(True, builder, ds, **kwargs)
        b = _train_once(False, builder, ds, **kwargs)
        a2 = _train_once(True, builder, ds, **kwargs)
        for (wa, _), (wb, _), (wa2, _) in zip(a, b, a2):
            assert wa.dtype == np.float32
            np.testing.assert_allclose(wa, wb, atol=1e-5, rtol=1e-4)
            np.testing.assert_array_equal(wa, wa2)
