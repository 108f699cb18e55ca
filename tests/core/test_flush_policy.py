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
- a flush trains only what the budget can read: with no guard and a
  deterministic codec, a client whose read event has at least
  ``max_rounds - round`` read events ahead of it is skipped, and reading
  it raises; under a guard or a stateful codec every reporting client
  trains;
- on the pool and dist, one FedAsync flush is one dispatch.
"""

import numpy as np
import pytest

from repro.core.base import AsyncFLSystem, ClientDone, ClientJoin, FLSystem, RoundDone
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


def reads(payload) -> bool:
    """Whether handling ``payload`` reads a reporting client's result."""
    if isinstance(payload, RoundDone):
        return bool(payload.launch.finishes)
    return isinstance(payload, ClientDone)


def read_events(queues) -> list:
    """Every queued read event, in pop order, found by scanning the heaps."""
    return sorted(ev for q in queues for ev in q._heap if reads(ev.payload))


def record_flushes(monkeypatch) -> list:
    """``(pending launches, distinct start rows, pending launches not in
    flight)`` of every flush that trains something. In flight: a queued
    event refers to the launch, or the event last popped does.

    Each flush also checks whom it trained. With no guard and a
    deterministic codec, a trained client's read event is not queued yet,
    or has fewer than R = ``max_rounds - round`` read events ahead of it
    (none once the budget is spent), and nobody else trains. Otherwise
    every pending client trains."""
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
        pending = list(self._pending)
        if not pending:
            return flush(self)
        events = [ev for q in queues for ev in (*q._heap, q.popped) if ev is not None]
        in_flight = {id(getattr(ev.payload, "launch", None)) for ev in events}
        strays = sum(id(p.launch) not in in_flight for p in pending)
        rows = len({id(p.received) for p in pending})
        sizes.append((len(pending), rows, strays))
        ahead = {
            (id(ev.payload.launch), getattr(ev.payload, "client_id", None)): n
            for n, ev in enumerate(read_events(queues))
        }
        readable = 0 if self.budget_exhausted() else self.config.max_rounds - self.round
        flush(self)
        prunes = self.guard is None and self.codec.deterministic
        for p in pending:
            for cid in p.launch.finishes:
                n = ahead.get((id(p.launch), cid), ahead.get((id(p.launch), None)))
                trains = not prunes or n is None or n < readable
                assert (cid not in p.launch.skipped) == trains, (cid, n, readable)

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


def count_training(monkeypatch) -> dict:
    """Client rounds trained, and clients that report back, in one run."""
    counts = {"trained": 0, "reporting": 0}
    train_cohort, launch = FLSystem.train_cohort, FLSystem.launch

    def counting_train_cohort(self, tasks, starts):
        counts["trained"] += len(tasks)
        return train_cohort(self, tasks, starts)

    def counting_launch(self, client_ids, start):
        out = launch(self, client_ids, start)
        counts["reporting"] += len(out.finishes)
        return out

    monkeypatch.setattr(FLSystem, "train_cohort", counting_train_cohort)
    monkeypatch.setattr(FLSystem, "launch", counting_launch)
    return counts


#: (method, world) -> (client rounds trained, uploads metered). Training
#: every reporting client trained 42, 37, 60 and 39.
TRAINED = {
    ("fedasync", "static"): (38, 30),
    ("fedasync", "churn_arrival"): (34, 30),
    ("fedat", "static"): (52, 48),
    ("fedat", "churn_arrival"): (36, 33),
}


@pytest.mark.parametrize("method, world", sorted(TRAINED))
def test_clients_no_event_reads_do_not_train(dataset, method, world, monkeypatch):
    counts = count_training(monkeypatch)
    history = build_world(dataset, method, world, FLUSH_WORLDS).run()
    assert (counts["trained"], history.meta["network"]["uplink_messages"]) == TRAINED[method, world]
    assert counts["trained"] < counts["reporting"]


@pytest.mark.parametrize(
    "method, world",
    [("fedasync", "guard_reject"), ("fedat", "guard_reject"), ("fedat", "subsample")],
)
def test_a_guard_or_a_stateful_codec_trains_every_reporting_client(
    dataset, method, world, monkeypatch
):
    """The guard's trace counts every reporting client, and a stateful
    codec draws per uplink row: both train them all, as before skipping."""
    worlds = {**FLUSH_WORLDS, "subsample": ({"compression": "subsample:0.5"}, None)}
    counts = count_training(monkeypatch)
    with monkeypatch.context() as patch:
        record_flushes(patch)
        build_world(dataset, method, world, worlds).run()
    assert counts["trained"] == counts["reporting"] > 0


@pytest.mark.parametrize("method, max_rounds", [("fedasync", 5), ("fedat", 12)])
def test_reading_a_skipped_result_raises(dataset, method, max_rounds, monkeypatch):
    """A skipped client never reads as empty or quarantined: its launch's
    ``results`` and ``quarantined`` and its upload raise, naming it, the
    round and the budget; the launch's trained clients still upload."""
    launches, launch = [], FLSystem.launch

    def recording_launch(self, client_ids, start):
        launches.append(launch(self, client_ids, start))
        return launches[-1]

    monkeypatch.setattr(FLSystem, "launch", recording_launch)
    worlds = {"budget": ({"max_rounds": max_rounds}, None)}
    build_world(dataset, method, "budget", worlds).run()
    skipped = [out for out in launches if out.skipped]
    assert skipped
    out = max(skipped, key=lambda out: len(out.finishes) - len(out.skipped))
    cid = min(out.skipped)
    message = (
        rf"^client {cid}'s result was never trained: at round \d+ no event could "
        rf"read it before max_rounds={max_rounds}$"
    )
    for read in (
        lambda: out.results,
        lambda: out.quarantined,
        ClientDone(cid, 0, out).upload,
    ):
        with pytest.raises(RuntimeError, match=message):
            read()
    if method == "fedasync":  # the t = 0 launch: a few trained, the rest skipped
        trained = [c for c in out.finishes if c not in out.skipped]
        assert trained and all(ClientDone(c, 0, out).result.client_id == c for c in trained)
