"""The supervision machinery: the deadline question, the dispatch state
machine the scheduler drives, and how the executor keeps the set of
workers it forked whole (``executor="dist"``).

The socket scheduler's side of the same machinery (and the lease table's
unit tests) are in ``test_dist.py``; the chaos behaviour in
``test_faults.py`` and ``test_equivalence.py``.
"""

import os
import signal
import statistics
import time
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fedavg import FedAvg
from repro.core.config import FLConfig
from repro.exec import CohortTask, DistExecutor, ExecConfig, OptimizerSpec, SerialExecutor
from repro.exec.faults import FaultPlan, chunk_checksum, parse_faults
from repro.exec.supervision import Dispatch, wait_budget
from repro.experiments.config import build_model_builder
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_logistic
from repro.sim.client import SimClient


class TestWaitBudget:
    def test_nothing_armed_means_block_until_an_event(self):
        assert wait_budget([], now=5.0) is None
        assert wait_budget([None, None], now=5.0) is None

    def test_distance_to_the_earliest_armed_deadline(self):
        assert wait_budget([None, 12.0, 7.5, None, 30.0], now=5.0) == 2.5
        assert wait_budget(iter([9.0]), now=5.0) == 4.0  # any iterable

    def test_due_deadline_still_sleeps_a_moment(self):
        """The supervisors fire on a strict ``now > deadline``: a wake-up
        exactly on the deadline fires nothing, and must not turn into a
        zero-timeout spin until the clock moves."""
        assert wait_budget([5.0], now=5.0) > 0
        assert wait_budget([4.0], now=5.0) > 0
        assert wait_budget([4.0], now=5.0) <= 0.01


# --------------------------------------------------------------------- #
# The dispatch state machine
# --------------------------------------------------------------------- #
_COUNTERS = ("retries", "timeouts", "corrupt_detected", "worker_errors")
_EVENTS = ("assign", "result", "corrupt", "stale", "error", "lost", "expire", "fail_pending")


def _chunk_results(chunk):
    return [
        SimpleNamespace(
            client_id=chunk, n_samples=3, train_loss=0.5, latency=1.0, weights=np.full(4, chunk)
        )
    ]


@settings(max_examples=300, deadline=None)
@given(
    num_chunks=st.integers(1, 4),
    retry_budget=st.integers(0, 3),
    events=st.lists(
        st.tuples(st.sampled_from(_EVENTS), st.integers(0, 3), st.integers(0, 2)), max_size=80
    ),
)
def test_dispatch_invariants_under_any_interleaving(num_chunks, retry_budget, events):
    """Whatever order events arrive in — from the holder, from a superseded
    attempt, or from nobody's lease at all — the budget holds, a resolved
    chunk stays resolved the same way, and every retry is accounted for."""
    counters = dict.fromkeys(_COUNTERS, 0)
    dispatch = Dispatch(
        0,
        [[chunk] for chunk in range(num_chunks)],
        retry_budget=retry_budget,
        timeout=10.0,
        counters=counters,
    )
    leases = dispatch.leases
    now = 0.0
    handed_out = 0  # attempts handed out, over all chunks
    requeued_unleased = 0  # requeues whose retry has not been leased (yet)
    first = {}  # chunk -> the results object that completed it
    for event, pick, who in events:
        chunk, worker = pick % num_chunks, f"w{who}"
        holder = leases[chunk].worker or worker
        held = {lease.chunk for lease in dispatch.outstanding()}
        if event == "assign":
            lease = dispatch.assign(worker, now=now)
            if lease is not None:
                assert not lease.done and lease.worker == worker
                handed_out += 1
                requeued_unleased -= lease.attempts > 1
        elif event == "result":
            good = _chunk_results(chunk)
            dispatch.result(chunk, holder, good, chunk_checksum(good))
        elif event == "corrupt":
            bad = _chunk_results(chunk)
            dispatch.result(chunk, holder, bad, chunk_checksum(bad) ^ 1)
        elif event == "stale":  # a verified result from a superseded attempt
            good = _chunk_results(chunk)
            dispatch.result(chunk, "superseded", good, chunk_checksum(good))
        elif event == "error":
            dispatch.error(chunk, worker, "boom")
        elif event == "lost":
            dispatch.lost(chunk, worker, "gone")
        elif event == "expire":
            now += 10.5  # past every deadline armed so far
            assert {lease.chunk for lease in dispatch.expire(now)} == held
        else:
            dispatch.fail_pending("no live workers")
        # A lease that was held and is now back in the queue was requeued.
        requeued_unleased += sum(
            leases[c].worker is None and not leases[c].resolved for c in held
        )

        assert dispatch.finished() == all(
            lease.done or lease.failed_reason is not None for lease in leases
        )
        if dispatch.finished():
            assert not dispatch.has_pending() and not dispatch.outstanding()
        for lease, results in zip(leases, dispatch.results):
            assert lease.attempts <= 1 + retry_budget
            assert not (lease.done and lease.failed_reason is not None)
            assert lease.done == (results is not None)
            if results is not None:
                assert first.setdefault(lease.chunk, results) is results  # never overwritten
        first_assigned = sum(lease.attempts > 0 for lease in leases)
        assert counters["retries"] == handed_out - first_assigned + requeued_unleased


def test_out_of_range_and_foreign_frames_are_ignored():
    """What the wire can deliver that the table never asked for."""
    counters = dict.fromkeys(_COUNTERS, 0)
    dispatch = Dispatch(0, [[0]], retry_budget=1, timeout=None, counters=counters)
    dispatch.assign("w0", now=0.0)
    good = _chunk_results(0)
    for chunk in (-1, 1):
        dispatch.result(chunk, "w0", good, None)
        dispatch.error(chunk, "w0", "boom")
        dispatch.lost(chunk, "w0", "gone")
    dispatch.error(0, "w1", "boom")  # not the holder
    dispatch.lost(0, "w1", "gone")
    assert not any(counters.values()) and dispatch.leases[0].worker == "w0"
    dispatch.result(0, "w0", good, None)  # no fault plan: no checksum to verify
    assert dispatch.finished() and dispatch.results == [good]


# --------------------------------------------------------------------- #
# The executor's own forked workers
# --------------------------------------------------------------------- #
def _executors(dataset, **dist_kw):
    """A serial reference and a two-worker ``dist`` executor whose
    workers have registered, so a strike finds each one known to the
    scheduler (an unregistered worker's death is nobody's loss)."""
    def model():
        return build_logistic(
            dataset.input_shape[0], dataset.num_classes, rng=np.random.default_rng(0)
        )

    def clients():
        return [SimClient(c, None, batch_size=10, seed=0) for c in dataset.clients]

    loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1)
    serial = SerialExecutor(model(), clients(), loss, spec)
    dist = DistExecutor(model(), clients(), loss, spec, num_workers=2, **dist_kw)
    assert dist.wait_for_workers(2) == 2
    return serial, dist


def _cohort(n):
    return [
        CohortTask(client_id=i, epochs=1, lam=0.0, latency=1.0 + i, start_epoch=0)
        for i in range(n)
    ]


def _assert_results_equal(a, b):
    assert [r.client_id for r in a] == [r.client_id for r in b]
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.weights, rb.weights)
        assert ra.train_loss == rb.train_loss


class TestDistSupervisor:
    def test_default_config_survives_a_worker_killed_mid_chunk(self, tiny_bow_dataset):
        """No fault plan, no chunk_timeout: the workers are supervised all the
        same. A worker that is killed with a chunk in hand (what the OOM
        killer does) is seen through its EOF and its sentinel, replaced,
        and its chunk run again — a bare ``pool.map`` never looks at worker
        exit codes and blocks forever. The failure costs the chunk it hit
        and nothing else: the sibling keeps its process, its chunk and its
        budget."""
        serial, dist = _executors(tiny_bow_dataset)
        # Half a second of training per chunk, so a strike 0.15 s into the
        # dispatch finds both workers with a chunk in hand.
        tasks = [
            CohortTask(client_id=i, epochs=4000, lam=0.0, latency=1.0, start_epoch=0)
            for i in range(2)
        ]
        try:
            start = serial.model.get_flat_weights()
            expected = serial.run_cohort(start, tasks)
            dist.run_cohort(start, _cohort(2))  # executor and workers warm
            assert not any(dist.fault_counters.values())
            victim, sibling = dist.worker_processes
            previous = signal.signal(
                signal.SIGALRM, lambda *_: os.kill(victim.pid, signal.SIGKILL)
            )
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.15)
                got = dist.run_cohort(start, tasks)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            _assert_results_equal(expected, got)
            assert dist.fault_counters["worker_deaths"] == 1
            assert dist.fault_counters["respawns"] == 1
            assert dist.fault_counters["retries"] == 1  # the victim's chunk, nobody else's
            assert dist.fault_counters["degraded_chunks"] == 0
            workers = dist.worker_processes
            assert len(workers) == 2 and sibling in workers and sibling.is_alive()
            assert victim not in workers
        finally:
            dist.close()
            serial.close()

    def test_worker_killed_while_idle_is_replaced(self, tiny_bow_dataset):
        """A worker that dies between dispatches holds nothing anyone waits
        on (each worker has a private socket — ``multiprocessing.Pool``
        could not be torn down after this): the next dispatch finds the
        corpse, replaces it and finishes."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            expected = serial.run_cohort(start, tasks)
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            for _ in range(2):
                assert dist.wait_for_workers(2) == 2  # the replacement too
                victim = dist.worker_processes[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                assert victim.exitcode is not None
                _assert_results_equal(expected, dist.run_cohort(start, tasks))
            assert dist.fault_counters["worker_deaths"] == 2
            assert dist.fault_counters["respawns"] == 2
            assert dist.fault_counters["degraded_chunks"] == 0
            # The roster is whole again: nothing left to recover.
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            assert dist.fault_counters["worker_deaths"] == 2
        finally:
            dist.close()
            serial.close()

    def test_no_lost_wakeups_over_many_dispatches(self, tiny_bow_dataset):
        """A reply that lands before the executor reaches its wait must
        still wake it: 300 back-to-back dispatches with a deadline armed."""
        serial, dist = _executors(tiny_bow_dataset, chunk_timeout=60.0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(2)
            t0 = time.monotonic()
            for i in range(300):
                weights = start + 1e-3 * i
                _assert_results_equal(
                    serial.run_cohort(weights, tasks), dist.run_cohort(weights, tasks)
                )
            # A lost wake-up would sit out the 60 s deadline.
            assert time.monotonic() - t0 < 45.0
            assert not any(dist.fault_counters.values())
        finally:
            dist.close()
            serial.close()

    def test_supervised_dispatch_has_no_sleep_floor(self, tiny_bow_dataset):
        """With a chunk_timeout set the old supervisor slept 20 ms per pass,
        so no dispatch could take less; a completion now wakes it directly."""
        serial, dist = _executors(tiny_bow_dataset, chunk_timeout=60.0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(4)
            dist.run_cohort(start, tasks)  # executor and workers warm
            samples = []
            for _ in range(30):
                t0 = time.perf_counter()
                dist.run_cohort(start, tasks)
                samples.append(time.perf_counter() - t0)
            assert statistics.median(samples) < 0.015
        finally:
            dist.close()
            serial.close()

    def test_recovery_is_a_function_of_the_fault_schedule(self, tiny_bow_dataset):
        """60 dispatches under ``crash:0.4+corrupt:0.2``, twice, on fresh
        executors. A failure costs only the chunk it hit, so which attempts
        fail is fixed by ``(seed, spec)``: both runs count the same retries,
        deaths, respawns and corruptions, and none degrades a chunk.
        (Tearing every worker down per death charged whoever else was in
        flight, so the counters — and whether a budget ran out — were down
        to timing.) Which worker steals a requeued chunk is timing, so
        ``steals`` is left out."""
        start = None
        runs = []
        for _ in range(2):
            plan = FaultPlan(parse_faults("crash:0.4+corrupt:0.2"), seed=3)
            serial, dist = _executors(tiny_bow_dataset, faults=plan, chunk_retries=12)
            try:
                start = serial.model.get_flat_weights()
                tasks = _cohort(4)
                for i in range(60):
                    weights = start + 1e-3 * i
                    _assert_results_equal(
                        serial.run_cohort(weights, tasks), dist.run_cohort(weights, tasks)
                    )
                runs.append({k: v for k, v in dist.fault_counters.items() if k != "steals"})
            finally:
                dist.close()
                serial.close()
        first, second = runs
        assert first == second
        assert first["degraded_chunks"] == 0 and first["timeouts"] == 0
        assert first["retries"] == first["worker_deaths"] + first["corrupt_detected"] > 60
        assert first["respawns"] == first["worker_deaths"]


def test_default_dist_run_records_its_recovery_counters(tiny_bow_dataset):
    """A ``dist`` run with no fault plan and no chunk_timeout whose
    worker is OOM-killed recovers, and ``history.meta["faults"]`` says so:
    the counters are published because the executor keeps them, not
    because the run asked for chaos."""
    config = FLConfig(
        clients_per_round=4,
        local_epochs=1,
        max_rounds=4,
        num_unstable=0,
        compression=None,
        exec=ExecConfig(executor="dist", num_workers=2),
    )
    system = FedAvg(tiny_bow_dataset, build_model_builder(tiny_bow_dataset, "tiny"), config)
    dist = system.executor
    run_cohort = dist.run_cohort
    dispatches = []

    def striking_run_cohort(start_weights, tasks):
        if len(tasks) >= dist.min_dispatch:  # smaller cohorts never dispatch
            dispatches.append(len(tasks))
            if len(dispatches) == 2:
                assert dist.wait_for_workers(2) == 2
                victim = dist.worker_processes[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
        return run_cohort(start_weights, tasks)

    dist.run_cohort = striking_run_cohort
    history = system.run()
    assert len(dispatches) >= 2, "the strike never landed"
    counters = history.meta["faults"]
    assert counters["worker_deaths"] == 1
    assert counters["respawns"] == 1
    assert counters["degraded_chunks"] == 0
