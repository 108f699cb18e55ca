"""Deferred training is invisible: when launches train never shows.

``FLSystem.launch`` queues its clients and :meth:`FLSystem.flush` trains
every pending launch as one cohort when a result is first read (and before
a checkpoint and at the end of the run). The tests below hold that
policy against the eager one the loop had before — every launch trained at
departure, and an async client's upload scheduled only when the guard kept
it — rebuilt here by monkeypatching, never by an option:

- every method's history and deterministic meta are the same in the loop
  pins' worlds and a churn + arrival world;
- a quarantined async upload, which now pops as a no-op, moves neither the
  clock nor the checkpoint cadence;
- every launch a flush trains is still in flight — an event still refers
  to it, or it is the launch whose event is being handled — because the
  first read of any pending launch's result flushes them all; so a
  flush's start rows never exceed the launches in flight (FedAT's at most
  one per tier), which is why it needs no size cap;
- on the pool and dist, one FedAsync flush is one dispatch.
"""

import numpy as np
import pytest

from repro.core.base import AsyncFLSystem, ClientDone, ClientJoin, FLSystem
from repro.data.datasets import make_dataset
from repro.experiments.checkpoint import RunCheckpointer, strip_volatile_meta
from repro.sim.events import EventQueue
from tests.core.test_loop_pinned import METHODS, PINNED, WORLDS, build_world, history_digest

#: The loop pins' worlds plus churn and late arrivals at once.
FLUSH_WORLDS = {
    **WORLDS,
    "churn_arrival": ({"scenario": "churn+arrival", "dropout_horizon": 100.0}, None),
}
NUM_TIERS = 3


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(
        "sentiment140",
        np.random.default_rng(7),
        num_clients=12,
        samples_per_client=24,
        noise=0.7,
        writer_shift=0.3,
    )


def train_at_departure(monkeypatch) -> None:
    """Train every launch as it departs, and schedule an async upload only
    for a client the guard kept: the loop as it was before deferral."""
    launch = FLSystem.launch

    def eager_launch(self, client_ids, start):
        out = launch(self, client_ids, start)
        self.flush()
        return out

    def kept_cycles(self, client_ids, queue):
        out = self.launch(client_ids, self.now)
        for cid in out.churned:
            self.schedule_join(queue, ClientJoin(cid), [cid])
        for result, finish, _ in out.results:
            queue.schedule_at(finish, ClientDone(result.client_id, self.round, out))

    monkeypatch.setattr(FLSystem, "launch", eager_launch)
    monkeypatch.setattr(AsyncFLSystem, "_start_cycles", kept_cycles)


def record_flushes(monkeypatch) -> list:
    """``(pending launches, distinct start rows, pending launches not in
    flight)`` of every flush that trains something. In flight: a queued
    event refers to the launch, or the event last popped does."""
    flush, sizes = FLSystem.flush, []
    init, pop, queues = EventQueue.__init__, EventQueue.pop, []

    def tracked_init(queue):
        init(queue)
        queue.popped = None
        queues.append(queue)

    def tracked_pop(queue):
        queue.popped = pop(queue)
        return queue.popped

    def recording_flush(self):
        if self._pending:
            events = [ev for q in queues for ev in (*q._heap, q.popped) if ev is not None]
            in_flight = {id(getattr(ev.payload, "launch", None)) for ev in events}
            strays = sum(id(p.launch) not in in_flight for p in self._pending)
            rows = len({id(p.received) for p in self._pending})
            sizes.append((len(self._pending), rows, strays))
        flush(self)

    monkeypatch.setattr(EventQueue, "__init__", tracked_init)
    monkeypatch.setattr(EventQueue, "pop", tracked_pop)
    monkeypatch.setattr(FLSystem, "flush", recording_flush)
    return sizes


class RecordingCheckpointer(RunCheckpointer):
    """Takes each snapshot a save would write, and records what it saw
    instead of writing it."""

    def __init__(self):
        super().__init__(".", "unused")
        self.seen = []

    def save(self, system, queue=None):
        system.state_dict()
        guard = system.guard
        self.seen.append(
            (system.round, system.now, len(system.history.records), guard.checked, guard.rejected)
        )
        self._last_saved_round = system.round
        self.saves += 1


def _canonical(history) -> dict:
    return strip_volatile_meta(history.to_dict())


@pytest.mark.parametrize("world", sorted(FLUSH_WORLDS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_training_at_departure_gives_the_same_history(dataset, method, world, monkeypatch):
    with monkeypatch.context() as patch:
        sizes = record_flushes(patch)
        shipped = build_world(dataset, method, world, FLUSH_WORLDS).run()
    assert sizes, "every world trains someone"
    assert all(rows <= launches and not strays for launches, rows, strays in sizes)
    if method == "fedat":
        assert max(launches for launches, _, _ in sizes) <= NUM_TIERS
    train_at_departure(monkeypatch)
    eager = build_world(dataset, method, world, FLUSH_WORLDS).run()
    assert _canonical(eager) == _canonical(shipped)


@pytest.mark.parametrize("method", ["asofed", "fedasync"])
def test_quarantined_uploads_pop_as_invisible_no_ops(dataset, method, monkeypatch):
    """Every update explodes under ``guard_reject``: the async uploads the
    guard drops pop as no-ops that leave the history, the clock seen by
    each checkpoint and the rounds checkpoints land on as they were when
    those uploads were never scheduled."""

    def run():
        popped, pop = [], EventQueue.pop

        def recording_pop(queue):
            ev = pop(queue)
            popped.append(ev.payload)
            return ev

        system = build_world(dataset, method, "guard_reject")
        checkpointer = RecordingCheckpointer()
        system.attach_checkpointer(checkpointer)
        with monkeypatch.context() as patch:
            patch.setattr(EventQueue, "pop", recording_pop)
            history = system.run()
        no_ops = sum(isinstance(p, ClientDone) and p.result is None for p in popped)
        return _canonical(history), checkpointer.seen, no_ops

    shipped, shipped_saves, no_ops = run()
    assert no_ops > 0
    train_at_departure(monkeypatch)
    eager, eager_saves, eager_no_ops = run()
    assert eager_no_ops == 0
    assert shipped == eager
    assert shipped_saves == eager_saves


@pytest.mark.parametrize("executor", ["parallel", "dist"])
def test_a_fedasync_flush_is_one_dispatch(dataset, executor, monkeypatch):
    """Relaunches from several global versions train together: each flush
    of two or more clients is one dispatch, whatever rows it carries."""
    flushed, train_cohort = [], FLSystem.train_cohort

    def recording_train_cohort(self, tasks, starts):
        flushed.append((len(tasks), len(np.atleast_2d(starts))))
        return train_cohort(self, tasks, starts)

    monkeypatch.setattr(FLSystem, "train_cohort", recording_train_cohort)
    system = build_world(dataset, "fedasync", "static", executor=executor, num_workers=2)
    history = system.run()
    assert history_digest(history) == PINNED["fedasync", "static"]
    dispatched = [rows for tasks, rows in flushed if tasks >= system.executor.min_dispatch]
    assert system.executor._dispatch_seq == len(dispatched)
    assert max(dispatched) > 1  # a dispatch carried relaunches from several versions
