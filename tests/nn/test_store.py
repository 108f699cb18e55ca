"""Zero-copy flat-parameter store: aliasing, replication, coverage.

The store rebinds every ``Parameter.data``/``.grad`` to views of one
contiguous buffer, so three invariants carry the layout:

1. aliasing — mutating a parameter mutates the flat buffer and vice versa;
2. replica independence — ``clone()`` (and the pickle path pool workers
   use) produces models whose buffers share nothing with the original;
3. coverage — whole-buffer operations only ever stand in for a parameter
   list that is exactly the store's.

Full FL histories through this layout are pinned by ``tests/fixtures/golden``.
"""

import pickle

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam
from repro.nn.store import FlatParameterStore
from tests.helpers import build_mlp


def _mlp(seed=0, **kwargs):
    return build_mlp(6, 3, rng=np.random.default_rng(seed), **kwargs)


class TestAliasing:
    def test_parameter_data_is_view_of_flat_buffer(self):
        m = _mlp()
        store = m.store
        for p, (a, b) in zip(m.params, store.offsets):
            assert p.data.base is store.data
            assert p.grad.base is store.grad
            np.testing.assert_array_equal(p.data.reshape(-1), store.data[a:b])

    def test_mutating_parameter_mutates_buffer(self):
        m = _mlp()
        p = m.params[0]
        p.data[...] = 7.5
        a, b = m.store.offsets[0]
        assert (m.store.data[a:b] == 7.5).all()
        p.grad[...] = -1.25
        assert (m.store.grad[a:b] == -1.25).all()

    def test_mutating_buffer_mutates_parameter(self):
        m = _mlp()
        m.store.data[:] = 3.0
        for p in m.params:
            assert (p.data == 3.0).all()
        m.store.grad[:] = 0.5
        for p in m.params:
            assert (p.grad == 0.5).all()

    def test_flat_weights_are_one_memcpy_of_the_buffer(self):
        m = _mlp()
        flat = m.get_flat_weights()
        np.testing.assert_array_equal(flat, m.store.data)
        assert flat is not m.store.data and flat.base is None  # owned copy

    def test_set_flat_weights_is_visible_through_views(self):
        m = _mlp()
        new = np.arange(m.num_params, dtype=np.float64)
        m.set_flat_weights(new)
        np.testing.assert_array_equal(m.params[0].data.reshape(-1),
                                      new[: m.params[0].size])

    def test_flat_weights_view_is_readonly_and_zero_copy(self):
        m = _mlp()
        view = m.flat_weights_view()
        assert view.base is m.store.data
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_set_flat_weights_validates_size(self):
        m = _mlp()
        with pytest.raises(ValueError):
            m.set_flat_weights(np.zeros(m.num_params + 1))


class TestReplication:
    def test_clone_buffers_are_independent(self):
        m = _mlp()
        replica = m.clone()
        assert replica.store.data is not m.store.data
        replica.store.data[:] = 42.0
        assert not (m.store.data == 42.0).any()
        np.testing.assert_array_equal(
            m.get_flat_weights(), _mlp().get_flat_weights()
        )

    def test_clone_reattaches_views(self):
        replica = _mlp().clone()
        for p in replica.params:
            assert p.data.base is replica.store.data
            assert p.store is replica.store

    def test_pickle_roundtrip_reattaches_and_isolates(self):
        """The pool-worker path: a pickled replica must come back with a
        working store that shares nothing with the original."""
        m = _mlp()
        replica = pickle.loads(pickle.dumps(m))
        np.testing.assert_array_equal(
            replica.get_flat_weights(), m.get_flat_weights()
        )
        for p in replica.params:
            assert p.data.base is replica.store.data
        replica.store.data[:] = -9.0
        assert not (m.store.data == -9.0).any()

    def test_replicas_keep_the_batch_norm_statistics(self):
        """Running statistics are entries of the flat vector: a clone or a
        pickled replica carries them, still after every trainable entry."""
        from repro.nn.zoo import build_lstm_classifier

        m = build_lstm_classifier(8, 4, rng=np.random.default_rng(0), embed_dim=4, hidden_dim=4)
        m.store.data[m.store.trainable :] = np.arange(8.0)
        for replica in (m.clone(), pickle.loads(pickle.dumps(m))):
            np.testing.assert_array_equal(replica.get_flat_weights(), m.get_flat_weights())
            assert replica.store.trainable == m.store.trainable == m.store.total - 8
            assert [p.trainable for p in replica.params][-3:] == [True, False, False]

    def test_clone_with_weights_installs_them(self):
        m = _mlp()
        w = np.linspace(-1, 1, m.num_params)
        replica = m.clone(w)
        np.testing.assert_array_equal(replica.get_flat_weights(), w)


class TestCoverage:
    def test_partial_param_list_is_not_covered(self):
        """A subset of a store's parameters is not the store: a whole-buffer
        update standing in for it would also move the other parameters."""
        m = _mlp()
        with pytest.raises(ValueError, match="FlatParameterStore"):
            FlatParameterStore.of(m.params[:1])
        assert FlatParameterStore.of(m.params) is m.store
        before = m.get_flat_weights()
        with pytest.raises(ValueError, match="FlatParameterStore"):
            Adam(0.01).step(m.params[:1])
        with pytest.raises(ValueError, match="does not cover"):
            Adam(0.01).step(m.params[:1], store=m.store)
        np.testing.assert_array_equal(m.get_flat_weights(), before)

    def test_params_list_is_cached_with_the_store(self):
        """``train_on_batch`` hands the optimizer the store's own list, so
        the coverage check is an identity test, not a scan; the list is
        rebuilt whenever the store is (astype, unpickling)."""
        m = _mlp()
        seen = []

        class Recording(Adam):
            def step(self, params, store=None):
                seen.append((params, store))
                super().step(params, store=store)

        x = np.zeros((2, 6))
        y = np.zeros(2, dtype=np.int64)
        m.train_on_batch(x, y, SoftmaxCrossEntropy(), Recording(0.01))
        assert seen[0][0] is m.store.params and seen[0][1] is m.store
        old = m.store
        m.astype(np.float32)
        assert m.store is not old and m.params == m.store.params
        assert all(p.store is m.store for p in m.params)

    def test_astype_float32_roundtrip(self):
        m = _mlp()
        ref = m.get_flat_weights()
        m.astype(np.float32)
        assert m.store.data.dtype == np.float32
        assert m.params[0].data.dtype == np.float32
        np.testing.assert_allclose(m.get_flat_weights(), ref, atol=1e-6)
        out = m.forward(np.zeros((2, 6), dtype=np.float64))
        assert out.dtype == np.float32  # activations cast at the door


class TestMemoryBehavior:
    """Worker replicas must not pin per-batch arrays between rounds."""

    def _one_round(self, model, client, flat):
        from repro.exec import OptimizerSpec

        return client.local_train(
            model,
            flat,
            epochs=1,
            loss=SoftmaxCrossEntropy(),
            optimizer_factory=OptimizerSpec("adam", 0.005).build,
            latency=1.0,
        )

    def test_plan_releases_forward_caches_between_rounds(self):
        """After a round no layer holds activation caches (which would pin
        each layer's last-batch tensors until the next round touches it —
        for idle replicas, indefinitely)."""
        from repro.data.datasets import make_dataset
        from repro.sim.client import SimClient

        ds = make_dataset(
            "sentiment140", np.random.default_rng(0),
            num_clients=1, samples_per_client=12,
        )
        model = build_mlp(64, 3, rng=np.random.default_rng(1), hidden=(16,))
        client = SimClient(ds.clients[0], None, batch_size=5, seed=0)
        self._one_round(model, client, model.get_flat_weights())
        for layer in model.layers:
            for attr in layer._cache_attrs:
                assert not hasattr(layer, attr), (
                    f"{type(layer).__name__}.{attr} pinned between rounds"
                )
        # ... and the scratch arena is bounded: more rounds, same bytes.
        plan = next(iter(model._plans.values()))
        first = plan.arena.nbytes
        for _ in range(3):
            self._one_round(model, client, model.get_flat_weights())
        assert plan.arena.nbytes == first
