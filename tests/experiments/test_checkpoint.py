"""In-run checkpoint/resume: a killed run continues bit-identically.

The sweep layer already resumes at *cell* granularity; these tests pin the
new *round* granularity — :class:`RunCheckpointer` persists the full
mutable simulation state (RNG stream positions, meters, history, server
state, the in-flight event queue) at round boundaries, and a system
rebuilt from the same config + checkpoint finishes with a history
byte-identical to the uninterrupted run.
"""

import pickle
import shutil
from pathlib import Path

import pytest

from repro.baselines.asofed import ASOFed
from repro.baselines.fedasync import FedAsync
from repro.baselines.fedavg import FedAvg
from repro.baselines.fedprox import FedProx
from repro.baselines.tifl import TiFL
from repro.core.fedat import FedAT
from repro.experiments.checkpoint import (
    RunCheckpointer,
    strip_volatile_meta,
    VOLATILE_META_KEYS,
)
from repro.experiments.config import build_model_builder, knobs_read_by, route_config
from repro.experiments.runner import run_experiment


class KillAfter(RunCheckpointer):
    """Checkpointer that simulates a mid-run kill after N saves."""

    def __init__(self, *args, kill_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.kill_after = kill_after

    def maybe_save(self, system, queue=None):
        saved = super().maybe_save(system, queue)
        if self.saves >= self.kill_after:
            raise KeyboardInterrupt("simulated mid-run kill")
        return saved


_BUDGETS = {FedAT: 10, FedAvg: 4, FedProx: 4, FedAsync: 20, ASOFed: 20, TiFL: 6}


def _config(cls, **kw):
    base = dict(
        clients_per_round=4,
        local_epochs=1,
        batch_size=8,
        max_rounds=_BUDGETS[cls],
        eval_every=2,
        num_tiers=3,
        num_unstable=2,
        seed=3,
        compression="polyline:4" if cls is FedAT else None,
    )
    base.update(kw)
    return route_config(cls.name, **knobs_read_by(cls.name, base))


def _system(dataset, cls, **kw):
    return cls(dataset, build_model_builder(dataset, "tiny"), _config(cls, **kw))


# --------------------------------------------------------------------- #
# RunCheckpointer mechanics
# --------------------------------------------------------------------- #
def test_checkpointer_round_throttling(tmp_path, tiny_bow_dataset):
    system = _system(tiny_bow_dataset, FedAvg)
    ckpt = RunCheckpointer(tmp_path, "t", every=2)
    assert not ckpt.exists()
    assert ckpt.maybe_save(system)  # first save always lands (round 0)
    assert not ckpt.maybe_save(system)  # same round: skipped
    system.round = 1
    assert not ckpt.maybe_save(system)  # 1 % 2 != 0: skipped
    system.round = 2
    assert ckpt.maybe_save(system)
    assert ckpt.saves == 2
    assert not list(tmp_path.glob("*.tmp")), "atomic writes leave no temp files"
    system.executor.close()


def test_checkpointer_load_round_trip(tmp_path, tiny_bow_dataset):
    system = _system(tiny_bow_dataset, FedAvg)
    system.round = 5
    RunCheckpointer(tmp_path, "t").save(system, queue=None)
    payload = RunCheckpointer(tmp_path, "t").load()
    assert payload["method"] == "fedavg"
    assert payload["round"] == 5
    assert "history" in payload["state"] and "_select_rng" in payload["state"]
    system.executor.close()


def test_checkpointer_rejects_unknown_format(tmp_path):
    ckpt = RunCheckpointer(tmp_path, "t")
    ckpt.directory.mkdir(exist_ok=True)
    ckpt.path.write_bytes(pickle.dumps({"format": 99}))
    with pytest.raises(ValueError, match="format"):
        ckpt.load()
    ckpt.clear()
    assert not ckpt.exists()
    ckpt.clear()  # idempotent


def test_checkpointer_refuses_format_2(tmp_path, monkeypatch):
    """A format-2 checkpoint is refused by its format field, and one whose
    queue pickled a per-method payload class this build no longer has is
    refused before that class is looked up."""
    import repro.baselines.fedasync as fedasync_module

    ckpt = RunCheckpointer(tmp_path, "t")
    ckpt.path.write_bytes(pickle.dumps({"format": 2, "queue": None}))
    with pytest.raises(ValueError, match="has format 2, this build reads 3"):
        ckpt.load()

    class _ClientDone:  # the format-2 FedAsync completion payload
        pass

    _ClientDone.__module__ = fedasync_module.__name__
    _ClientDone.__qualname__ = "_ClientDone"
    monkeypatch.setattr(fedasync_module, "_ClientDone", _ClientDone, raising=False)
    ckpt.path.write_bytes(pickle.dumps({"format": 2, "queue": [_ClientDone()]}))
    monkeypatch.delattr(fedasync_module, "_ClientDone")
    with pytest.raises(ValueError, match="older format, this build reads 3"):
        ckpt.load()


def test_checkpointer_validates_every():
    with pytest.raises(ValueError):
        RunCheckpointer(".", "t", every=0)


def test_resume_rejects_method_mismatch(tmp_path, tiny_bow_dataset):
    donor = _system(tiny_bow_dataset, FedAvg)
    RunCheckpointer(tmp_path, "t").save(donor, queue=None)
    donor.executor.close()
    other = _system(tiny_bow_dataset, FedAT)
    with pytest.raises(ValueError, match="belongs to method"):
        other.attach_checkpointer(RunCheckpointer(tmp_path, "t"), resume=True)
    other.executor.close()


def test_resume_refuses_another_budget(tmp_path, tiny_bow_dataset):
    """Launches in a checkpoint may hold clients skipped because no event
    could read them under its budget; another budget could read them."""
    donor = _system(tiny_bow_dataset, FedAsync, max_rounds=8)
    ckpt = RunCheckpointer(tmp_path, "t")
    ckpt.save(donor, queue=None)
    donor.executor.close()
    for budget, line in (
        ({"max_rounds": 9}, "max_rounds=9, max_time=None"),
        ({"max_time": 500.0}, "max_rounds=8, max_time=500.0"),
    ):
        other = _system(tiny_bow_dataset, FedAsync, **{"max_rounds": 8, **budget})
        with pytest.raises(ValueError) as refused:
            other.attach_checkpointer(ckpt, resume=True)
        assert str(refused.value) == (
            f"checkpoint {ckpt.path} ran under max_rounds=8, max_time=None, not {line}"
        )
        other.executor.close()
    # A payload from before the budget was recorded is taken as it is.
    payload = ckpt.load()
    del payload["max_rounds"], payload["max_time"]
    ckpt.path.write_bytes(pickle.dumps(payload))
    other = _system(tiny_bow_dataset, FedAsync, max_rounds=9)
    assert other.attach_checkpointer(ckpt, resume=True)
    other.executor.close()


def test_strip_volatile_meta_keeps_everything_else():
    hist = {"records": [1], "meta": {"seed": 0, "phase_seconds": {"a": 1}, "faults": {}}}
    out = strip_volatile_meta(hist)
    assert out["meta"] == {"seed": 0}
    assert all(k in ("phase_seconds", "faults") for k in VOLATILE_META_KEYS)


# --------------------------------------------------------------------- #
# Kill-and-resume bit-identity, every method
# --------------------------------------------------------------------- #
#: Arrivals at t≈11…68 of a ~92 s run that re-tiers every 2 rounds (clients
#: move at rounds 16–22 and 34): killed at round 19, the checkpoint holds a
#: grown tier index with observations pending, and arrivals and moves follow.
_GROWING_WORLD = {
    "scenario": "arrival:0.5",
    "retier_interval": 2,
    "max_rounds": 40,
    "dropout_horizon": 100.0,
}

#: Churn plus arrivals inside a ~40-update FedAsync run.
_CHURN_ARRIVAL_WORLD = {
    "scenario": "churn+arrival",
    "max_rounds": 40,
    "dropout_horizon": 100.0,
}


@pytest.mark.parametrize(
    "cls, world, kill_after, data",
    [
        (FedAT, {}, 3, "bow"),
        (FedAT, {"scenario": "churn"}, 3, "bow"),
        (FedAT, {"scenario": "arrival"}, 3, "bow"),  # the arrival-pool replay on restore
        (FedAT, _GROWING_WORLD, 20, "bow"),  # the tracker carries the tier index
        (FedAvg, {}, 3, "bow"),
        (FedAvg, {"scenario": "churn", "dropout_horizon": 100.0}, 3, "bow"),
        (FedProx, {"local_epochs": 3}, 3, "bow"),  # the epoch stream resumes mid-draw
        (TiFL, {}, 3, "bow"),  # exercises the tier-evaluator rebuild on restore
        (TiFL, {"retier_interval": 2, "tifl_interval": 2, "max_rounds": 8}, 4, "bow"),
        (FedAsync, {}, 3, "bow"),
        (FedAsync, _CHURN_ARRIVAL_WORLD, 3, "bow"),  # relaunch and arrival events in flight
        (ASOFed, {}, 3, "bow"),
        (ASOFed, {"scenario": "churn", "dropout_horizon": 20.0}, 3, "bow"),  # relaunches
        # Batch-norm statistics and dropout masks: the reddit model's whole
        # round state lives in the weights and the task, so it resumes too.
        (FedAT, {}, 3, "reddit"),
        (FedAsync, {}, 6, "reddit"),
    ],
    ids=[
        "fedat",
        "fedat-churn",
        "fedat-arrival",
        "fedat-arrival-retier",
        "fedavg",
        "fedavg-churn",
        "fedprox",
        "tifl",
        "tifl-retier",
        "fedasync",
        "fedasync-churn-arrival",
        "asofed",
        "asofed-churn",
        "fedat-reddit",
        "fedasync-reddit",
    ],
)
def test_killed_run_resumes_bit_identically(tmp_path, request, cls, world, kill_after, data):
    dataset = request.getfixturevalue(f"tiny_{data}_dataset")
    kw = {**world, "guard": "reject"}
    reference = _system(dataset, cls, **kw).run()

    killed = _system(dataset, cls, **kw)
    killed.attach_checkpointer(KillAfter(tmp_path, "kr", kill_after=kill_after))
    with pytest.raises(KeyboardInterrupt):
        killed.run()

    ckpt = RunCheckpointer(tmp_path, "kr")
    assert ckpt.exists()
    resumed_system = _system(dataset, cls, **kw)
    assert resumed_system.attach_checkpointer(ckpt, resume=True)
    assert resumed_system.round > 0, "resume must start mid-run, not from scratch"
    resumed = resumed_system.run()

    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(
        reference.to_dict()
    )
    ckpt.clear()


def test_checkpoint_holding_skipped_clients_resumes_bit_identically(tmp_path, tiny_bow_dataset):
    """Six updates for the twelve clients launched at t = 0: the first
    flush trains only the clients whose uploads the budget reads, and
    checkpoints taken every round hold that launch with the rest skipped.
    The resumed run reads none of them."""
    from repro.core.base import ClientDone

    reference = _system(tiny_bow_dataset, FedAsync, max_rounds=6).run()

    killed = _system(tiny_bow_dataset, FedAsync, max_rounds=6)
    killed.attach_checkpointer(KillAfter(tmp_path, "sk", kill_after=3))
    with pytest.raises(KeyboardInterrupt):
        killed.run()

    ckpt = RunCheckpointer(tmp_path, "sk")
    heap = ckpt.load()["queue"]._heap
    assert any(isinstance(ev.payload, ClientDone) and ev.payload.launch.skipped for ev in heap)
    resumed_system = _system(tiny_bow_dataset, FedAsync, max_rounds=6)
    assert resumed_system.attach_checkpointer(ckpt, resume=True)
    assert resumed_system.round > 0
    resumed = resumed_system.run()
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(reference.to_dict())


#: Mid-run checkpoints committed under ``tests/fixtures/checkpoints/``,
#: written by the tree that still trained every cohort at departure:
#: name -> (method, the event payload class they hold in flight). Never
#: regenerate them: they prove a format-3 checkpoint from before deferred
#: training still resumes to the uninterrupted history.
PRE_DEFERRAL_CHECKPOINTS = {
    "fedat_tiers_in_flight": (FedAT, "RoundDone"),
    "fedasync_clients_in_flight": (FedAsync, "ClientDone"),
}

CHECKPOINT_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"


def write_pre_deferral_checkpoints(directory: Path, dataset) -> None:
    """How the committed fixtures were written: each run killed after its
    third save, with ``guard="reject"`` so the guard's state rides along."""
    for name, (cls, _) in PRE_DEFERRAL_CHECKPOINTS.items():
        system = _system(dataset, cls, guard="reject")
        system.attach_checkpointer(KillAfter(directory, name, kill_after=3))
        try:
            system.run()
        except KeyboardInterrupt:
            pass
        (directory / f"run_{name}.ckpt").rename(directory / f"{name}.ckpt")


@pytest.mark.parametrize("name", sorted(PRE_DEFERRAL_CHECKPOINTS))
def test_checkpoint_from_before_deferral_resumes(tmp_path, tiny_bow_dataset, name):
    cls, in_flight = PRE_DEFERRAL_CHECKPOINTS[name]
    shutil.copy(CHECKPOINT_FIXTURES / f"{name}.ckpt", tmp_path / f"run_{name}.ckpt")
    ckpt = RunCheckpointer(tmp_path, name)
    queue = ckpt.load()["queue"]
    assert sum(type(ev.payload).__name__ == in_flight for ev in queue._heap) >= 2

    resumed_system = _system(tiny_bow_dataset, cls, guard="reject")
    assert resumed_system.attach_checkpointer(ckpt, resume=True)
    assert resumed_system.round > 0
    resumed = resumed_system.run()
    reference = _system(tiny_bow_dataset, cls, guard="reject").run()
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(reference.to_dict())


def _queued_joins(ckpt) -> list:
    from repro.core.base import ClientJoin

    return [ev.payload for ev in ckpt.load()["queue"]._heap if isinstance(ev.payload, ClientJoin)]


@pytest.mark.parametrize(
    "cls, world, kill_after",
    [(FedAT, _GROWING_WORLD, 14), (FedAsync, _CHURN_ARRIVAL_WORLD, 39)],
    ids=["fedat", "fedasync"],
)
def test_killed_run_with_a_chained_arrival_resumes(
    tmp_path, tiny_bow_dataset, cls, world, kill_after
):
    """Late arrivals are queued one at a time, each handled arrival
    queueing the next: the checkpoint holds the one in flight, and the
    resumed run continues the chain to the uninterrupted history."""
    kw = {**world, "guard": "reject"}
    reference = _system(tiny_bow_dataset, cls, **kw).run()

    killed = _system(tiny_bow_dataset, cls, **kw)
    killed.attach_checkpointer(KillAfter(tmp_path, "ch", kill_after=kill_after))
    with pytest.raises(KeyboardInterrupt):
        killed.run()

    ckpt = RunCheckpointer(tmp_path, "ch")
    (in_flight,) = [join for join in _queued_joins(ckpt) if join.arrival is not None]
    assert in_flight.arrival > 0, "the kill must land after the chain advanced"
    resumed_system = _system(tiny_bow_dataset, cls, **kw)
    assert resumed_system.attach_checkpointer(ckpt, resume=True)
    resumed = resumed_system.run()
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(reference.to_dict())


#: Mid-run checkpoints of arrival worlds, committed under
#: ``tests/fixtures/checkpoints/`` and written by the tree that queued every
#: late arrival before round 1: name -> (method, world). Their queues hold
#: every arrival still to come, as ``ClientJoin`` payloads without an
#: ``arrival`` position. Never regenerate them.
PRE_CHAIN_CHECKPOINTS = {
    "fedat_arrivals_queued": (FedAT, _GROWING_WORLD),
    "fedasync_arrivals_queued": (FedAsync, _CHURN_ARRIVAL_WORLD),
}


def write_pre_chain_checkpoints(directory: Path, dataset) -> None:
    """How the committed fixtures were written: the FedAT run killed after
    its fifth save, the FedAsync run after its third, both with
    ``guard="reject"``."""
    for name, (cls, world) in PRE_CHAIN_CHECKPOINTS.items():
        system = _system(dataset, cls, guard="reject", **world)
        kill_after = 5 if cls is FedAT else 3
        system.attach_checkpointer(KillAfter(directory, name, kill_after=kill_after))
        try:
            system.run()
        except KeyboardInterrupt:
            pass
        (directory / f"run_{name}.ckpt").rename(directory / f"{name}.ckpt")


@pytest.mark.parametrize("name", sorted(PRE_CHAIN_CHECKPOINTS))
def test_checkpoint_holding_every_arrival_resumes(tmp_path, tiny_bow_dataset, name):
    """A format-3 checkpoint from before arrivals were chained resumes to
    the uninterrupted history: its queued arrivals are handled once each
    and queue no successor."""
    cls, world = PRE_CHAIN_CHECKPOINTS[name]
    shutil.copy(CHECKPOINT_FIXTURES / f"{name}.ckpt", tmp_path / f"run_{name}.ckpt")
    ckpt = RunCheckpointer(tmp_path, name)
    queued = _queued_joins(ckpt)
    assert len(queued) >= 2 and all("arrival" not in vars(join) for join in queued)

    kw = {**world, "guard": "reject"}
    resumed_system = _system(tiny_bow_dataset, cls, **kw)
    assert resumed_system.attach_checkpointer(ckpt, resume=True)
    resumed = resumed_system.run()
    reference = _system(tiny_bow_dataset, cls, **kw).run()
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(reference.to_dict())
    if cls is FedAT:
        arrived = [a["client"] for a in resumed.meta["arrival_trace"]]
        assert len(arrived) == len(set(arrived)) >= len(queued)


def test_resume_without_checkpoint_is_fresh_start(tmp_path, tiny_bow_dataset):
    system = _system(tiny_bow_dataset, FedAvg)
    resumed = system.attach_checkpointer(
        RunCheckpointer(tmp_path, "missing"), resume=True
    )
    assert not resumed
    reference = _system(tiny_bow_dataset, FedAvg).run()
    history = system.run()
    assert strip_volatile_meta(history.to_dict()) == strip_volatile_meta(
        reference.to_dict()
    )


# --------------------------------------------------------------------- #
# run_experiment wiring
# --------------------------------------------------------------------- #
def test_run_experiment_checkpoints_and_cleans_up(tmp_path, monkeypatch):
    kwargs = dict(
        scale="tiny",
        seed=1,
        num_clients=8,
        max_rounds=4,
        dataset_overrides={"samples_per_client": 16},
    )
    reference = run_experiment("fedavg", "sentiment140", **kwargs)

    saves = []
    orig = RunCheckpointer.maybe_save

    def killing_save(self, system, queue=None):
        out = orig(self, system, queue)
        saves.append(self.saves)
        if self.saves >= 2:
            raise KeyboardInterrupt("simulated kill")
        return out

    monkeypatch.setattr(RunCheckpointer, "maybe_save", killing_save)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(
            "fedavg", "sentiment140", checkpoint_dir=tmp_path, **kwargs
        )
    assert list(tmp_path.glob("run_*.ckpt")), "kill must leave a checkpoint"

    monkeypatch.setattr(RunCheckpointer, "maybe_save", orig)
    resumed = run_experiment(
        "fedavg", "sentiment140", checkpoint_dir=tmp_path, resume=True, **kwargs
    )
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(
        reference.to_dict()
    )
    assert not list(tmp_path.glob("run_*.ckpt")), "completed run clears its checkpoint"


def test_serial_checkpoint_resumes_under_the_pool(tmp_path, monkeypatch):
    """Execution settings are not part of the checkpoint key: a run killed
    while serial resumes mid-run on the process pool and still matches the
    uninterrupted serial history."""
    from repro.core.base import FLSystem

    kwargs = dict(
        scale="tiny",
        seed=1,
        num_clients=8,
        max_rounds=4,
        dataset_overrides={"samples_per_client": 16},
    )
    reference = run_experiment("fedavg", "sentiment140", **kwargs)

    orig_save = RunCheckpointer.maybe_save

    def killing_save(self, system, queue=None):
        out = orig_save(self, system, queue)
        if self.saves >= 2:
            raise KeyboardInterrupt("simulated kill")
        return out

    monkeypatch.setattr(RunCheckpointer, "maybe_save", killing_save)
    with pytest.raises(KeyboardInterrupt):
        run_experiment("fedavg", "sentiment140", checkpoint_dir=tmp_path, **kwargs)
    monkeypatch.setattr(RunCheckpointer, "maybe_save", orig_save)

    attached = []
    orig_attach = FLSystem.attach_checkpointer

    def spying_attach(self, checkpointer, *, resume=False):
        resumed = orig_attach(self, checkpointer, resume=resume)
        attached.append((self.executor.name, resumed, self.round))
        return resumed

    monkeypatch.setattr(FLSystem, "attach_checkpointer", spying_attach)
    resumed = run_experiment(
        "fedavg",
        "sentiment140",
        checkpoint_dir=tmp_path,
        resume=True,
        executor="dist",
        num_workers=2,
        **kwargs,
    )
    [(executor, did_resume, start_round)] = attached
    assert executor == "dist" and did_resume and start_round > 0
    assert strip_volatile_meta(resumed.to_dict()) == strip_volatile_meta(reference.to_dict())
    assert not list(tmp_path.glob("run_*.ckpt")), "completed run clears its checkpoint"
