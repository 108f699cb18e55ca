"""RunHistory / EvalRecord tests."""

import numpy as np
import pytest

from repro.metrics.history import EvalRecord, RunHistory


def _rec(t, rnd, acc, var=0.01, up=100, down=50, loss=1.0):
    return EvalRecord(
        time=t, round=rnd, accuracy=acc, loss=loss,
        accuracy_variance=var, uplink_bytes=up, downlink_bytes=down,
    )


def _history(accs, times=None):
    h = RunHistory("fedat", "toy")
    times = times or list(range(len(accs)))
    for i, (t, a) in enumerate(zip(times, accs)):
        h.append(_rec(t, i, a))
    return h


def test_append_and_series():
    h = _history([0.1, 0.5, 0.4])
    np.testing.assert_array_equal(h.accuracies(), [0.1, 0.5, 0.4])
    np.testing.assert_array_equal(h.times(), [0, 1, 2])
    assert len(h.records) == 3


def test_append_rejects_time_regression():
    h = _history([0.1])
    with pytest.raises(ValueError):
        h.append(_rec(-5.0, 1, 0.2))


def test_best_and_final_accuracy():
    h = _history([0.1, 0.9, 0.5, 0.6, 0.6, 0.6])
    assert h.best_accuracy() == 0.9
    assert h.final_accuracy(tail=3) == pytest.approx(0.6)


def test_best_accuracy_empty_raises():
    with pytest.raises(ValueError):
        RunHistory("x", "y").best_accuracy()


def test_mean_accuracy_variance_skips_warmup():
    h = RunHistory("m", "d")
    for i, var in enumerate([10.0, 10.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]):
        h.append(_rec(i, i, 0.5, var=var))
    # First 25% (2 records) skipped.
    assert h.mean_accuracy_variance() == pytest.approx(0.1)


def test_total_bytes():
    r = _rec(0, 0, 0.5, up=70, down=30)
    assert r.total_bytes == 100


def test_round_trip_dict():
    h = _history([0.2, 0.3])
    h.meta["note"] = "hello"
    h2 = RunHistory.from_dict(h.to_dict())
    assert h2.method == "fedat" and h2.dataset == "toy"
    assert h2.meta["note"] == "hello"
    np.testing.assert_array_equal(h2.accuracies(), h.accuracies())
    np.testing.assert_array_equal(h2.times(), h.times())
