"""End-to-end coverage of the ``FLConfig.dtype="float32"`` path.

PR 3 shipped the dtype knob with the bit-identity proof only for float64;
this locks the reduced-precision path: full runs complete with finite
histories for the method families, float32 runs are deterministic, and the
flat store round-trips float32 vectors exactly. The ``fedat_float32`` golden
pins one float32 history bit for bit; ``tests/nn/test_plan.py`` bounds the
float32 plan against the per-layer reference loop.
"""

import numpy as np
import pytest

from repro.experiments.config import build_model_builder
from repro.experiments.runner import build_federation, run_experiment


@pytest.mark.parametrize("method", ["fedat", "fedavg", "fedasync"])
def test_float32_run_completes_with_finite_history(method):
    history = run_experiment(
        method, "sentiment140", scale="tiny", seed=2, max_rounds=5,
        dtype="float32",
    )
    assert history.rounds()[-1] > 0
    assert np.all(np.isfinite(history.accuracies()))
    assert np.all(np.isfinite(history.losses()))
    assert np.all(np.isfinite(history.accuracy_variances()))


def test_float32_run_is_deterministic():
    kwargs = dict(
        scale="tiny", seed=4, max_rounds=4, eval_every=1, dtype="float32",
    )
    a = run_experiment("fedavg", "sentiment140", **kwargs)
    b = run_experiment("fedavg", "sentiment140", **kwargs)
    assert a.to_dict()["records"] == b.to_dict()["records"]


def test_flat_store_roundtrip_preserves_float32_exactly():
    dataset = build_federation(
        "sentiment140", "tiny", 0, num_clients=4, samples_per_client=12
    )
    model = build_model_builder(dataset, "tiny")(np.random.default_rng(0))
    model.astype(np.float32)
    flat = model.get_flat_weights()
    assert flat.dtype == np.float32
    # Round-trip through set/get is bit-exact, including non-representable-
    # in-fewer-bits values: the store never detours through float64.
    vec = np.linspace(-1.5, 1.5, flat.size, dtype=np.float32)
    vec[0] = np.float32(np.pi)
    model.set_flat_weights(vec)
    out = model.get_flat_weights()
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, vec)
    assert all(p.data.dtype == np.float32 for p in model.params)
