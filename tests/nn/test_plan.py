"""Fused training plan: bit-identity to the per-layer reference, arena hygiene.

The whole contract in one file:

1. kernel equivalence — every planned (``out=``/``scratch=``) layer and
   loss kernel produces bitwise the allocating (``scratch=None``) result, including
   the awkward cases (time-distributed Dense, 'valid' convolutions,
   cropped and tied max-pooling);
2. loop equivalence — ``SimClient.local_train`` through
   ``TrainingPlan.run_epochs`` reproduces a reference loop written here
   over ``Sequential.train_on_batch`` byte for byte, for CNN, MLP and
   logistic models, ragged final batches, multiple epochs, stateful and
   explicit-cursor schedules (full FL histories are pinned by
   ``tests/fixtures/golden``);
3. arena hygiene — scratch reuse never aliases or mutates caller-owned
   arrays (hypothesis-driven), buffers stop growing after the first
   round, and layer caches are released between rounds;
4. fallbacks — models with non-planned layers (LSTM, dropout, batch
   norm) run through the plan's generic steps with identical results,
   and plans never survive pickling/cloning/astype.
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
from repro.nn.activations import ReLU, Sigmoid, Tanh, softmax
from repro.nn.conv import Conv2D
from repro.nn.layers import Dense
from repro.nn.losses import LOG_EPS, SoftmaxCrossEntropy
from repro.nn.plan import ScratchArena
from repro.nn.pooling import MaxPool2D
from repro.nn.proximal import ProximalTerm
from repro.nn.zoo import build_cnn, build_logistic, build_lstm_classifier, build_mlp
from repro.sim.client import SimClient


def _cnn(rng=None, shape=(8, 8, 3)):
    return build_cnn(
        shape, 10, rng=rng or np.random.default_rng(1), filters=(4, 6, 6), dense_units=12
    )


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
    def _roundtrip(self, legacy, planned, x, grad, training=True):
        """forward+backward both ways; assert bitwise equality."""
        arena = ScratchArena()
        slot = arena.slot(0)
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


# --------------------------------------------------------------------- #
# 2. Loop equivalence: run_epochs == the per-layer reference loop
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
    x, y = data.x_train, data.y_train
    losses = [
        model.train_on_batch(x[idx], y[idx], loss, optimizer, grad_hook=hook)
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

    def test_sgd_momentum_and_explicit_cursor(self):
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
        regression test for the stacked-activation in-place hazard."""
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

    def test_generic_fallback_model(self):
        """LSTM + dropout + batch-norm layers take the generic (unplanned)
        steps inside the compiled plan; results must still match exactly."""
        ds = make_dataset(
            "reddit", np.random.default_rng(0), num_clients=2, samples_per_client=12
        )

        def builder(rng):
            return build_lstm_classifier(
                64, 64, rng=rng, embed_dim=8, hidden_dim=8, dropout=0.1
            )

        _assert_rounds_identical(
            _train_once(True, builder, ds, epochs=1), _train_once(False, builder, ds, epochs=1)
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
        ds = _image_dataset(num_clients=2)
        model = _cnn()
        loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
        flat = model.get_flat_weights()
        clients = [SimClient(c, None, batch_size=10, seed=0) for c in ds.clients]
        for c in clients:
            c.local_train(
                model, flat, epochs=1, loss=loss,
                optimizer_factory=spec.build, latency=1.0,
            )
        plan = model.training_plan(loss)
        nbytes_after_first_sweep = plan.arena.nbytes
        for _ in range(3):
            for c in clients:
                c.local_train(
                    model, flat, epochs=1, loss=loss,
                    optimizer_factory=spec.build, latency=1.0,
                )
        assert plan.arena.nbytes == nbytes_after_first_sweep

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
        ds = _image_dataset(num_clients=1)
        model = _cnn()
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
