"""Event-driven supervision: the shared wake channel and deadline question,
and the process pool's supervisor built on them.

The socket scheduler's side of the same machinery is covered in
``test_dist.py``; the chaos behaviour of both in ``test_faults.py`` and
``test_equivalence.py``.
"""

import multiprocessing.connection
import os
import signal
import statistics
import threading
import time

import numpy as np

from repro.exec import CohortTask, OptimizerSpec, ParallelExecutor, SerialExecutor
from repro.exec.supervision import WakeChannel, wait_budget
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_logistic
from repro.sim.client import SimClient


def _readable(channel) -> bool:
    return bool(multiprocessing.connection.wait([channel], timeout=0))


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


class TestWakeChannel:
    def test_signal_makes_it_readable_until_drained(self):
        channel = WakeChannel()
        try:
            assert not _readable(channel)
            channel.signal()
            channel.signal()
            assert _readable(channel)
            channel.drain()
            assert not _readable(channel)
            channel.drain()  # draining an empty channel returns at once
        finally:
            channel.close()

    def test_full_pipe_neither_blocks_nor_raises(self):
        channel = WakeChannel()
        try:
            t0 = time.monotonic()
            for _ in range(20_000):  # far beyond a socket buffer of 1-byte sends
                channel.signal()
            assert time.monotonic() - t0 < 5.0
            assert _readable(channel)
            channel.drain()
            assert not _readable(channel)
        finally:
            channel.close()

    def test_signal_after_close_is_a_no_op(self):
        channel = WakeChannel()
        channel.close()
        channel.signal()
        channel.drain()
        channel.close()

    def test_wakes_a_sleeper_in_another_thread(self):
        channel = WakeChannel()
        woke = []

        def sleeper():
            woke.append(multiprocessing.connection.wait([channel], timeout=10.0))

        thread = threading.Thread(target=sleeper)
        try:
            thread.start()
            channel.signal()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert woke == [[channel]]
        finally:
            channel.close()


# --------------------------------------------------------------------- #
# The pool supervisor
# --------------------------------------------------------------------- #
def _executors(dataset, **pool_kw):
    def model():
        return build_logistic(
            dataset.input_shape[0], dataset.num_classes, rng=np.random.default_rng(0)
        )

    def clients():
        return [SimClient(c, None, batch_size=10, seed=0) for c in dataset.clients]

    loss, spec = SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1)
    serial = SerialExecutor(model(), clients(), loss, spec)
    pool = ParallelExecutor(model(), clients(), loss, spec, num_workers=2, **pool_kw)
    return serial, pool


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


class TestPoolSupervisor:
    def test_default_config_survives_a_worker_killed_mid_chunk(self, tiny_bow_dataset):
        """No fault plan, no chunk_timeout: the pool is supervised all the
        same. A worker that is killed with a chunk in hand (what the OOM
        killer does) is seen through its sentinel, the pool rebuilt and the
        cohort finished — a bare ``pool.map`` never looks at worker exit
        codes and blocks forever."""
        serial, pool = _executors(tiny_bow_dataset)
        # Half a second of training per chunk, so a strike 0.15 s into the
        # dispatch finds both workers with a chunk in hand.
        tasks = [
            CohortTask(client_id=i, epochs=4000, lam=0.0, latency=1.0, start_epoch=0)
            for i in range(2)
        ]
        try:
            start = serial.model.get_flat_weights()
            expected = serial.run_cohort(start, tasks)
            pool.run_cohort(start, _cohort(2))  # pool and workers warm
            assert not any(pool.fault_counters.values())
            victim = pool._pool[0].proc
            previous = signal.signal(
                signal.SIGALRM, lambda *_: os.kill(victim.pid, signal.SIGKILL)
            )
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.15)
                got = pool.run_cohort(start, tasks)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            _assert_results_equal(expected, got)
            assert pool.fault_counters["worker_deaths"] == 1
            assert pool.fault_counters["respawns"] == 1
            assert pool.fault_counters["retries"] == 2  # both chunks were in flight
            assert pool.fault_counters["degraded_chunks"] == 0
        finally:
            pool.close()
            serial.close()

    def test_worker_killed_while_idle_is_replaced(self, tiny_bow_dataset):
        """A worker that dies between dispatches holds nothing anyone waits
        on (each worker has a private pipe — ``multiprocessing.Pool`` could
        not be torn down after this): the next dispatch finds the corpse,
        rebuilds the pool and finishes."""
        serial, pool = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            expected = serial.run_cohort(start, tasks)
            _assert_results_equal(expected, pool.run_cohort(start, tasks))
            for slot in (0, 1):
                victim = pool._pool[slot].proc
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                assert victim.exitcode is not None
                _assert_results_equal(expected, pool.run_cohort(start, tasks))
            assert pool.fault_counters["worker_deaths"] == 2
            assert pool.fault_counters["respawns"] == 2
            assert pool.fault_counters["degraded_chunks"] == 0
            # The rebuilt pool is whole again: nothing left to recover.
            _assert_results_equal(expected, pool.run_cohort(start, tasks))
            assert pool.fault_counters["worker_deaths"] == 2
        finally:
            pool.close()
            serial.close()

    def test_no_lost_wakeups_over_many_dispatches(self, tiny_bow_dataset):
        """A reply that lands before the supervisor reaches its wait must
        still wake it: 300 back-to-back dispatches with a deadline armed."""
        serial, pool = _executors(tiny_bow_dataset, chunk_timeout=60.0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(2)
            t0 = time.monotonic()
            for i in range(300):
                weights = start + 1e-3 * i
                _assert_results_equal(
                    serial.run_cohort(weights, tasks), pool.run_cohort(weights, tasks)
                )
            # A lost wake-up would sit out the 60 s deadline.
            assert time.monotonic() - t0 < 45.0
            assert not any(pool.fault_counters.values())
        finally:
            pool.close()
            serial.close()

    def test_supervised_dispatch_has_no_sleep_floor(self, tiny_bow_dataset):
        """With a chunk_timeout set the old supervisor slept 20 ms per pass,
        so no dispatch could take less; a completion now wakes it directly."""
        serial, pool = _executors(tiny_bow_dataset, chunk_timeout=60.0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(4)
            pool.run_cohort(start, tasks)  # pool and workers warm
            samples = []
            for _ in range(30):
                t0 = time.perf_counter()
                pool.run_cohort(start, tasks)
                samples.append(time.perf_counter() - t0)
            assert statistics.median(samples) < 0.015
        finally:
            pool.close()
            serial.close()
