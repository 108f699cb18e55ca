"""Optimizer tests on closed-form objectives."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, Adam
from repro.nn.store import FlatParameterStore
from repro.nn.tensor import Parameter
from tests.helpers import adopted


def quadratic_step(p: Parameter) -> None:
    """Set grad of f(w) = ½‖w‖² (minimum at 0)."""
    p.grad[...] = p.data


class TestSGD:
    def test_plain_step(self):
        (p,) = adopted(np.array([1.0, -2.0]))
        opt = SGD(lr=0.1)
        quadratic_step(p)
        opt.step([p])
        np.testing.assert_allclose(p.data, [0.9, -1.8])

    def test_converges_on_quadratic(self):
        (p,) = adopted(np.array([5.0, -3.0]))
        opt = SGD(lr=0.3)
        for _ in range(100):
            quadratic_step(p)
            opt.step([p])
        np.testing.assert_allclose(p.data, 0.0, atol=1e-8)

    def test_grad_cleared_after_step(self):
        (p,) = adopted(np.ones(3))
        opt = SGD(lr=0.1)
        quadratic_step(p)
        opt.step([p])
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_unadopted_parameters_rejected(self):
        """Standalone parameters have no flat buffers to update: stepping
        them is an error that says so, not a silent no-op."""
        p = Parameter(np.array([1.0, -2.0]))
        quadratic_step(p)
        for opt in (SGD(lr=0.1), Adam(lr=0.1)):
            with pytest.raises(ValueError, match="FlatParameterStore"):
                opt.step([p])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        (p,) = adopted(np.array([5.0, -3.0, 0.7]))
        opt = Adam(lr=0.2)
        for _ in range(300):
            quadratic_step(p)
            opt.step([p])
        np.testing.assert_allclose(p.data, 0.0, atol=1e-4)

    def test_first_step_magnitude_is_lr(self):
        """With bias correction, the first Adam step ≈ lr·sign(grad)."""
        (p,) = adopted(np.array([1.0, -1.0]))
        opt = Adam(lr=0.01)
        p.grad[...] = np.array([3.0, -0.002])
        opt.step([p])
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -1.0 + 0.01], atol=1e-4)

    def test_per_parameter_state_isolated(self):
        """One flat moment buffer, but elementwise: a parameter's trajectory
        does not depend on what else shares the store."""
        p1, p2 = params = adopted(np.array([1.0]), np.array([100.0]))
        (alone,) = adopted(np.array([1.0]))
        opt, opt_alone = Adam(lr=0.1), Adam(lr=0.1)
        for _ in range(5):
            for p in (p1, p2, alone):
                quadratic_step(p)
            opt.step(params)
            opt_alone.step([alone])
        assert opt._m.shape == (2,)
        np.testing.assert_array_equal(p1.data, alone.data)

    def test_reset_state(self):
        (p,) = adopted(np.array([1.0]))
        opt = Adam(lr=0.1)
        quadratic_step(p)
        opt.step([p])
        opt.reset_state()
        assert opt._t == 0 and opt._m is None and opt._v is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(lr=-1)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)


@pytest.mark.parametrize("make", [lambda: SGD(0.1), lambda: Adam(0.1)], ids=["sgd", "adam"])
def test_a_step_moves_only_the_trainable_prefix(make):
    """Non-trainable entries sit after every trainable one, wherever they
    were listed, and no step moves them, whatever their gradient holds."""
    frozen = Parameter(np.array([5.0, 6.0]), "stat", trainable=False)
    p, q = Parameter(np.array([1.0]), "p"), Parameter(np.array([2.0]), "q")
    store = FlatParameterStore([p, frozen, q])
    assert store.params == [p, q, frozen] and store.trainable == 2
    store.grad[:] = 1.0
    make().step(store.params, store=store)
    np.testing.assert_array_equal(frozen.data, [5.0, 6.0])
    assert p.data[0] < 1.0 and q.data[0] < 2.0
    np.testing.assert_array_equal(store.grad, 0.0)
