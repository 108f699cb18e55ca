"""Deferred training is invisible: when launches train never shows.

``FLSystem.launch`` queues its clients and :meth:`FLSystem.flush` trains
pending clients as one cohort when a result is first read: the ones read
and those a latency horizon says will be read soon. Before a checkpoint
and at the end of the run it trains every pending client the budget can
read. The tests below hold that policy against the eager one the loop had
before — every launch trained at departure, and an async client's upload
scheduled only when the guard kept it — rebuilt here by monkeypatching,
never by an option:

- every method's history and deterministic meta are the same in the loop
  pins' worlds and a churn + arrival world;
- a quarantined async upload, which now pops as a no-op, moves neither the
  clock nor the checkpoint cadence;
- every launch a flush trains is still in flight — an event still refers
  to it, or it is the launch whose event is being handled — so a flush's
  start rows never exceed the launches in flight (FedAT's at most one per
  tier), which is why it needs no size cap;
- a flush trains only what the budget can read: with no guard, a client
  whose read event has at least ``max_rounds - round`` read events ahead
  of it is never trained, and reading it raises; a read trains the
  clients read and those due within the horizon, and leaves the rest
  pending; under a guard every reporting client trains at the first
  flush;
- reading a deferred client trains it at once, and a checkpoint holds no
  pending or part-trained launch;
- on the pool and dist, one FedAsync flush is one dispatch.
"""

import math

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


def state(launch, client_id) -> str:
    """``"trained"``, ``"pending"`` or ``"skipped"``: where a reporting
    client of ``launch`` stands (a quarantined client trained)."""
    uploads = launch.__dict__.get("_uploads")
    if uploads is not None:
        return "trained" if client_id in uploads else "pending"
    return "skipped" if client_id in launch.skipped else "trained"


def record_flushes(monkeypatch) -> list:
    """``(pending launches, distinct start rows, pending launches not in
    flight)`` of every flush with something pending. In flight: a queued
    event refers to the launch, or the event last popped does.

    Each flush also checks, against a scan of the heaps, where it left
    every client pending when it began. Under a guard all train.
    Otherwise let R = ``max_rounds - round`` (0 once the budget is spent)
    and n the read events ahead of a client's:
    - a flush that reads (a launch's results, or a client's upload) trains
      the clients read and each client with n < R whose read event is due
      before ``now + 2·d``, d the shortest delay a read event was queued
      with; the rest stay pending;
    - any other flush trains a client whose read event is not queued yet
      or has n < R, and skips the rest."""
    flush, sizes = FLSystem.flush, []
    init, pop, schedule_at = EventQueue.__init__, EventQueue.pop, EventQueue.schedule_at
    queues = []

    def tracked_init(queue):
        init(queue)
        queue.popped, queue.shortest = None, math.inf
        queues.append(queue)

    def tracked_pop(queue):
        queue.popped = pop(queue)
        return queue.popped

    def tracked_schedule_at(queue, time, payload):
        if reads(payload):
            queue.shortest = min(queue.shortest, time - queue.now)
        return schedule_at(queue, time, payload)

    def recording_flush(self, launch=None, client_id=None):
        pending = list(self._pending)
        if not pending:
            return flush(self, launch, client_id)
        events = [ev for q in queues for ev in (*q._heap, q.popped) if ev is not None]
        in_flight = {id(getattr(ev.payload, "launch", None)) for ev in events}
        strays = sum(id(p.launch) not in in_flight for p in pending)
        rows = len({id(p.received) for p in pending})
        sizes.append((len(pending), rows, strays))
        ahead = {
            (id(ev.payload.launch), getattr(ev.payload, "client_id", None)): (n, ev.time)
            for n, ev in enumerate(read_events(queues))
        }
        readable = 0 if self.budget_exhausted() else self.config.max_rounds - self.round
        horizon = self.now + 2 * min(q.shortest for q in queues)
        flush(self, launch, client_id)
        prunes = self.guard is None
        for p in pending:
            for task in p.tasks:
                cid = task.client_id
                n, due = ahead.get(
                    (id(p.launch), cid), ahead.get((id(p.launch), None), (None, None))
                )
                if not prunes:
                    want = "trained"
                elif launch is not None:
                    read = p.launch is launch and client_id in (None, cid)
                    soon = n is not None and n < readable and due < horizon
                    want = "trained" if read or soon else "pending"
                else:
                    want = "trained" if n is None or n < readable else "skipped"
                assert state(p.launch, cid) == want, (cid, n, readable, due, horizon)

    monkeypatch.setattr(EventQueue, "__init__", tracked_init)
    monkeypatch.setattr(EventQueue, "pop", tracked_pop)
    monkeypatch.setattr(EventQueue, "schedule_at", tracked_schedule_at)
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


def test_a_fedasync_flush_is_one_dispatch(dataset, monkeypatch):
    """Relaunches from several global versions train together: each flush
    of two or more clients is one dispatch, whatever rows it carries."""
    flushed, train_cohort = [], FLSystem.train_cohort

    def recording_train_cohort(self, tasks, starts):
        flushed.append((len(tasks), len(np.atleast_2d(starts))))
        return train_cohort(self, tasks, starts)

    monkeypatch.setattr(FLSystem, "train_cohort", recording_train_cohort)
    system = build_world(dataset, "fedasync", "static", executor="dist", num_workers=2)
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
#: every reporting client trained 42, 37, 60 and 39; training every
#: client the budget could read at each flush, 38, 34, 52 and 36.
TRAINED = {
    ("fedasync", "static"): (32, 30),
    ("fedasync", "churn_arrival"): (31, 30),
    ("fedat", "static"): (52, 48),
    ("fedat", "churn_arrival"): (34, 33),
}


@pytest.mark.parametrize("method, world", sorted(TRAINED))
def test_clients_no_event_reads_do_not_train(dataset, method, world, monkeypatch):
    counts = count_training(monkeypatch)
    history = build_world(dataset, method, world, FLUSH_WORLDS).run()
    assert (counts["trained"], history.meta["network"]["uplink_messages"]) == TRAINED[method, world]
    assert counts["trained"] < counts["reporting"]


@pytest.mark.parametrize("method", ["fedasync", "fedat"])
def test_a_guard_trains_every_reporting_client(dataset, method, monkeypatch):
    """The guard's trace counts every reporting client, so a run with a
    guard trains them all, as before skipping."""
    counts = count_training(monkeypatch)
    with monkeypatch.context() as patch:
        record_flushes(patch)
        build_world(dataset, method, "guard_reject", FLUSH_WORLDS).run()
    assert counts["trained"] == counts["reporting"] > 0


@pytest.mark.parametrize("method", ["fedasync", "fedat"])
def test_a_guard_defers_nothing(dataset, method, monkeypatch):
    """The guard's trace and ``filter`` order follow launch order: every
    flush, a read's too, leaves nothing pending."""
    flush, flushes = FLSystem.flush, []

    def recording_flush(self, launch=None, client_id=None):
        if self._pending:
            flush(self, launch, client_id)
            flushes.append((launch is not None, len(self._pending)))

    monkeypatch.setattr(FLSystem, "flush", recording_flush)
    build_world(dataset, method, "guard_reject", FLUSH_WORLDS).run()
    assert flushes and not any(left for _, left in flushes)
    assert any(read for read, _ in flushes)


def test_reading_a_deferred_client_trains_it_at_once(dataset, monkeypatch):
    """The first read of FedAsync's t = 0 launch leaves clients due past
    the horizon pending. Reading the earliest of them then trains it, in
    a cohort of its own, and the run reads that very result when its
    upload pops: the history does not move."""
    flush, train_cohort = FLSystem.flush, FLSystem.train_cohort
    cohorts, read = [], []

    def recording_train_cohort(self, tasks, starts):
        cohorts.append([t.client_id for t in tasks])
        return train_cohort(self, tasks, starts)

    def reading_flush(self, launch=None, client_id=None):
        flush(self, launch, client_id)
        deferred = [(p.launch, t.client_id) for p in self._pending for t in p.tasks]
        if read or launch is None or not deferred:
            return
        out, cid = min(deferred, key=lambda d: d[0].finishes[d[1]])
        read.append((out, cid, len(cohorts)))
        read.append(out.upload(cid))

    monkeypatch.setattr(FLSystem, "train_cohort", recording_train_cohort)
    monkeypatch.setattr(FLSystem, "flush", reading_flush)
    history = build_world(dataset, "fedasync", "static").run()
    assert history_digest(history) == PINNED["fedasync", "static"]
    (out, cid, before), (result, nbytes) = read
    assert cohorts[before] == [cid] and len(cohorts) > before + 1
    assert result.client_id == cid and nbytes > 0
    assert out.upload(cid)[0] is result


def test_a_checkpoint_holds_no_pending_launch_and_resumes(dataset, tmp_path):
    """A FedAsync run saved every round: the round-0 save follows a read
    that left the t = 0 launch part-trained, later saves follow reads that
    left relaunches pending. Each checkpoint holds every launch resolved,
    and a run killed after one of the later saves resumes to the
    uninterrupted history."""

    class KillWhenDeferred(RunCheckpointer):
        def __init__(self):
            super().__init__(tmp_path, "deferred")
            self.part_trained = []

        def save(self, system, queue=None):
            before = system._pending
            self.part_trained.append(any(p.launch._uploads for p in before))
            super().save(system, queue)
            assert not system._pending
            for ev in self.load()["queue"]._heap:
                launch = getattr(ev.payload, "launch", None)
                assert launch is None or not {"_flush", "_uploads"} & vars(launch).keys()
            if before and system.round > 0:
                raise KeyboardInterrupt("simulated mid-run kill")

    killed = build_world(dataset, "fedasync", "static")
    checkpointer = KillWhenDeferred()
    killed.attach_checkpointer(checkpointer)
    with pytest.raises(KeyboardInterrupt):
        killed.run()
    assert checkpointer.part_trained[0] and checkpointer.saves > 1

    resumed = build_world(dataset, "fedasync", "static")
    assert resumed.attach_checkpointer(RunCheckpointer(tmp_path, "deferred"), resume=True)
    assert resumed.round > 0
    assert history_digest(resumed.run()) == PINNED["fedasync", "static"]


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
