"""LR schedules and gradient clipping tests."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD
from repro.nn.schedules import (
    ClippedOptimizer,
    constant_lr,
    exponential_decay,
    global_grad_norm,
    inverse_time_decay,
    step_decay,
)
from tests.helpers import adopted


class TestSchedules:
    def test_constant(self):
        f = constant_lr(0.1)
        assert f(0) == f(1000) == 0.1

    def test_step_decay(self):
        f = step_decay(1.0, drop=0.5, every=10)
        assert f(0) == 1.0
        assert f(9) == 1.0
        assert f(10) == 0.5
        assert f(25) == 0.25

    def test_exponential_decay(self):
        f = exponential_decay(1.0, rate=0.9)
        assert f(0) == 1.0
        assert f(2) == pytest.approx(0.81)

    def test_inverse_time_decay(self):
        f = inverse_time_decay(1.0, k=1.0)
        assert f(0) == 1.0
        assert f(1) == 0.5

    def test_all_monotone_nonincreasing(self):
        for f in (
            constant_lr(0.1),
            step_decay(0.1),
            exponential_decay(0.1),
            inverse_time_decay(0.1),
        ):
            vals = [f(t) for t in range(0, 500, 7)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_lr(0.0)
        with pytest.raises(ValueError):
            step_decay(0.1, drop=0.0)
        with pytest.raises(ValueError):
            step_decay(0.1, every=0)
        with pytest.raises(ValueError):
            exponential_decay(0.1, rate=1.5)
        with pytest.raises(ValueError):
            inverse_time_decay(0.1, k=-1)


class TestClipping:
    def test_global_norm(self):
        p1, p2 = adopted(np.zeros(2), np.zeros(1))
        p1.grad[...] = [3.0, 0.0]
        p2.grad[...] = [4.0]
        assert global_grad_norm([p1, p2]) == pytest.approx(5.0)

    def test_clips_large_gradient(self):
        (p,) = adopted(np.array([0.0]))
        p.grad[...] = [10.0]
        opt = ClippedOptimizer(SGD(lr=1.0), max_norm=1.0)
        opt.step([p])
        # Clipped to norm 1 → step of exactly -1.
        np.testing.assert_allclose(p.data, [-1.0])
        assert opt.last_norm == pytest.approx(10.0)

    def test_leaves_small_gradient(self):
        (p,) = adopted(np.array([0.0]))
        p.grad[...] = [0.5]
        opt = ClippedOptimizer(SGD(lr=1.0), max_norm=1.0)
        opt.step([p])
        np.testing.assert_allclose(p.data, [-0.5])

    def test_preserves_direction(self, rng):
        g = rng.normal(size=8) * 100
        (p,) = adopted(np.zeros(8))
        p.grad[...] = g
        opt = ClippedOptimizer(SGD(lr=1.0), max_norm=2.0)
        opt.step([p])
        cos = float(np.dot(-p.data, g) / (np.linalg.norm(p.data) * np.linalg.norm(g)))
        assert cos == pytest.approx(1.0)
        assert np.linalg.norm(p.data) == pytest.approx(2.0)

    def test_reset_delegates(self):
        inner = SGD(lr=0.1, momentum=0.9)
        opt = ClippedOptimizer(inner, max_norm=1.0)
        (p,) = adopted(np.ones(2))
        p.grad[...] = 1.0
        opt.step([p])
        opt.reset_state()
        assert inner._velocity is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ClippedOptimizer(SGD(0.1), max_norm=0.0)


class TestSubsampleCodec:
    def test_roundtrip_keeps_sampled_coords(self, rng):
        from repro.compression.codec import SubsampleCodec

        flat = rng.normal(size=100)
        codec = SubsampleCodec(0.3, seed=1)
        out, payload = codec.roundtrip(flat)
        nonzero = np.flatnonzero(out)
        assert nonzero.size == 30
        np.testing.assert_allclose(out[nonzero], flat[nonzero], atol=1e-6)
        assert payload.nbytes == 30 * 4 + 8

    def test_fraction_one_is_lossless_float32(self, rng):
        from repro.compression.codec import SubsampleCodec

        flat = rng.normal(size=50)
        out, _ = SubsampleCodec(1.0).roundtrip(flat)
        np.testing.assert_allclose(out, flat, atol=1e-6)

    def test_factory(self):
        from repro.compression.codec import SubsampleCodec, make_codec

        codec = make_codec("subsample:0.5")
        assert isinstance(codec, SubsampleCodec)
        assert codec.fraction == 0.5

    def test_validation(self):
        from repro.compression.codec import SubsampleCodec

        with pytest.raises(ValueError):
            SubsampleCodec(0.0)
