"""Update quarantine: policies, audit trail, and poisoned-run survival."""

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.fedat import FedAT
from repro.core.guard import GuardAbort, UpdateGuard
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.sim.client import LocalTrainingResult


def _result(client_id, weights):
    return LocalTrainingResult(
        client_id=client_id,
        weights=np.asarray(weights, dtype=np.float64),
        n_samples=10,
        train_loss=0.5,
        latency=1.0,
    )


REF = np.zeros(4)


def test_parse_specs():
    assert UpdateGuard.parse(None) is None
    assert UpdateGuard.parse("none") is None
    assert UpdateGuard.parse("off") is None
    g = UpdateGuard.parse("reject")
    assert (g.policy, g.max_norm) == ("reject", 1e6)
    g = UpdateGuard.parse("clip:50")
    assert (g.policy, g.max_norm) == ("clip", 50.0)
    with pytest.raises(ValueError):
        UpdateGuard.parse("banish")
    with pytest.raises(ValueError):
        UpdateGuard.parse("clip:norm")
    with pytest.raises(ValueError):
        UpdateGuard("reject", max_norm=0.0)


def test_reject_drops_nan_and_blowups():
    guard = UpdateGuard("reject", max_norm=10.0)
    healthy = _result(0, [1.0, 0, 0, 0])
    nan = _result(1, [np.nan, 0, 0, 0])
    huge = _result(2, [100.0, 0, 0, 0])
    kept = guard.filter([healthy, nan, huge], REF, round_no=3, time=7.5)
    assert kept == [healthy]
    assert guard.checked == 3 and guard.rejected == 2 and guard.clipped == 0
    reasons = {t["client"]: t for t in guard.trace}
    assert "non-finite" in reasons[1]["reason"]
    assert "max_norm" in reasons[2]["reason"]
    assert reasons[2]["norm"] == pytest.approx(100.0)
    assert all(t["round"] == 3 and t["time"] == 7.5 for t in guard.trace)


def test_clip_preserves_direction():
    guard = UpdateGuard("clip", max_norm=5.0)
    huge = _result(0, [30.0, 40.0, 0, 0])  # norm 50 from REF
    nan = _result(1, [np.inf, 0, 0, 0])  # unclippable: rejected
    kept = guard.filter([huge, nan], REF)
    assert len(kept) == 1
    clipped = kept[0].weights
    assert np.linalg.norm(clipped - REF) == pytest.approx(5.0)
    # Direction preserved: the clipped update is a positive multiple.
    assert clipped[0] / clipped[1] == pytest.approx(30.0 / 40.0)
    assert guard.clipped == 1 and guard.rejected == 1


def test_clip_measures_norm_from_reference():
    ref = np.full(4, 100.0)
    guard = UpdateGuard("clip", max_norm=2.0)
    res = _result(0, [104.0, 100, 100, 100])  # ‖w−ref‖ = 4
    (kept,) = guard.filter([res], ref)
    assert np.linalg.norm(kept.weights - ref) == pytest.approx(2.0)
    assert kept.weights[1] == pytest.approx(100.0)


def test_abort_raises_with_context():
    guard = UpdateGuard("abort", max_norm=1.0)
    with pytest.raises(GuardAbort) as excinfo:
        guard.filter([_result(7, [5.0, 0, 0, 0])], REF)
    assert excinfo.value.client_id == 7
    assert excinfo.value.norm == pytest.approx(5.0)
    assert "client 7" in str(excinfo.value)


def test_healthy_updates_pass_untouched():
    guard = UpdateGuard("reject")
    results = [_result(i, np.full(4, 0.1 * i)) for i in range(5)]
    kept = guard.filter(results, REF)
    assert kept == results
    assert guard.rejected == 0 and guard.trace == []


# --------------------------------------------------------------------- #
# End-to-end: a diverging local solver must not poison the global model
# --------------------------------------------------------------------- #
def _config(cls, **kw):
    base = dict(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=4 if cls is FedAvg else 8,
        eval_every=2,
        num_tiers=3,
        num_unstable=2,
        seed=0,
        compression="polyline:4" if cls is FedAT else None,
    )
    base.update(kw)
    return route_config(cls.name, **knobs_read_by(cls.name, base))


@pytest.mark.parametrize("cls", [FedAvg, FedAT], ids=["fedavg", "fedat"])
@pytest.mark.parametrize("policy", ["reject", "clip:1e3"])
def test_guard_keeps_global_model_finite_under_explosion(
    tiny_bow_dataset, cls, policy
):
    """An absurd SGD learning rate explodes every local solve; the guard
    must keep the global model finite and record the quarantine."""
    cfg = _config(cls, optimizer="sgd", learning_rate=1e25, guard=policy)
    system = cls(tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), cfg)
    history = system.run()
    assert np.isfinite(system.global_weights).all()
    snap = history.meta["guard"]
    assert snap["checked"] > 0
    assert snap["rejected"] + snap["clipped"] > 0
    assert snap["quarantined"], "quarantine trace must record interventions"


def test_guard_abort_policy_stops_poisoned_run(tiny_bow_dataset):
    cfg = _config(FedAvg, optimizer="sgd", learning_rate=1e25, guard="abort")
    system = FedAvg(
        tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), cfg
    )
    with pytest.raises(GuardAbort):
        system.run()


@pytest.mark.parametrize("cls", [FedAvg, FedAT], ids=["fedavg", "fedat"])
def test_guard_is_invisible_on_healthy_runs(tiny_bow_dataset, cls):
    """With sane hyperparameters the guard never fires, and the history is
    bit-identical to an unguarded run (plus the audit meta key)."""
    plain = cls(
        tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), _config(cls)
    ).run()
    guarded = cls(
        tiny_bow_dataset,
        build_model_builder(tiny_bow_dataset, "tiny"),
        _config(cls, guard="reject"),
    ).run()
    assert [r.__dict__ for r in plain.records] == [
        r.__dict__ for r in guarded.records
    ]
    assert guarded.meta["guard"]["rejected"] == 0
    assert "guard" not in plain.meta
