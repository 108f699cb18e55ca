"""Distributed executor: wire protocol, lease bookkeeping, and recovery.

The e2e contract: whatever the worker count, arrival order, kills,
disconnects, or injected network faults, ``DistExecutor`` must hand back
results bit-identical to ``SerialExecutor`` — faults cost wall clock and
recovery counters, never history bits.
"""

import os
import pickle
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.exec import CohortTask, OptimizerSpec, SerialExecutor
from repro.exec.dist import (
    DistExecutor,
    FrameBuffer,
    FrameError,
    parse_address,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.exec.dist.wire import encode_frame
from repro.exec.faults import ExecutorFaultError, FaultPlan, parse_faults
from repro.exec.supervision import Dispatch, worker_context
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_logistic
from repro.sim.client import SimClient


def _clients(dataset, batch_size=10, seed=0):
    return [
        SimClient(c, None, batch_size=batch_size, seed=seed) for c in dataset.clients
    ]


def _model(dataset, seed=0):
    return build_logistic(
        dataset.input_shape[0], dataset.num_classes, rng=np.random.default_rng(seed)
    )


def _cohort(n, epochs=1, lam=0.0):
    return [
        CohortTask(client_id=i, epochs=epochs, lam=lam, latency=1.0 + i, start_epoch=0)
        for i in range(n)
    ]


def _assert_results_equal(a, b):
    assert [r.client_id for r in a] == [r.client_id for r in b]
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.weights, rb.weights)
        assert ra.train_loss == rb.train_loss
        assert ra.n_samples == rb.n_samples
        assert ra.latency == rb.latency


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #
class TestWire:
    def test_blocking_roundtrip(self):
        a, b = socket.socketpair()
        try:
            msg = ("result", 3, 1, 0, [np.arange(5.0)], "abc")
            send_frame(a, msg)
            got = recv_frame(b)
            assert got[0] == "result" and got[1:4] == (3, 1, 0)
            np.testing.assert_array_equal(got[4][0], np.arange(5.0))
        finally:
            a.close()
            b.close()

    def test_buffer_reassembles_fragmented_frames(self):
        msgs = [("heartbeat", f"w{i}") for i in range(5)]
        stream = b"".join(encode_frame(m) for m in msgs)
        buf = FrameBuffer()
        out = []
        # Feed in pathological 3-byte slivers: frames must reassemble.
        for i in range(0, len(stream), 3):
            buf.feed(stream[i : i + 3])
            out.extend(buf.drain())
        assert out == msgs

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_frame(("register", "w0", 1, False, -1)))
        data[-1] ^= 0xFF  # flip a payload byte; header crc now disagrees
        buf = FrameBuffer()
        buf.feed(bytes(data))
        with pytest.raises(FrameError, match="crc32"):
            buf.drain()

    def test_length_cap_rejected(self):
        bogus = struct.pack("!II", (1 << 31) + 1, 0)
        buf = FrameBuffer()
        buf.feed(bogus)
        with pytest.raises(FrameError, match="cap"):
            buf.drain()

    def test_partial_frame_is_retained_not_lost(self):
        frame = encode_frame(("shutdown",))
        buf = FrameBuffer()
        buf.feed(frame[:5])
        assert buf.drain() == []
        buf.feed(frame[5:])
        assert buf.drain() == [("shutdown",)]

    def test_send_lock_serializes(self):
        import threading

        a, b = socket.socketpair()
        lock = threading.Lock()
        try:
            threads = [
                threading.Thread(
                    target=send_frame, args=(a, ("heartbeat", f"w{i}")), kwargs={"lock": lock}
                )
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            got = sorted(recv_frame(b)[1] for _ in range(8))
            assert got == [f"w{i}" for i in range(8)]
        finally:
            a.close()
            b.close()


def test_parse_address():
    assert parse_address("127.0.0.1:7070") == ("127.0.0.1", 7070)
    assert parse_address("scheduler.local:0") == ("scheduler.local", 0)
    for bad in ("7070", ":7070", "host:", "host:http"):
        with pytest.raises(ValueError):
            parse_address(bad)


# --------------------------------------------------------------------- #
# Lease bookkeeping (repro.exec.supervision.Dispatch; the transitions that
# verify results and count recovery are driven in test_supervision.py)
# --------------------------------------------------------------------- #
def _table(num_chunks, *, retry_budget, timeout):
    """A dispatch over ``num_chunks`` empty chunks: its leases alone."""
    return Dispatch(
        0,
        [[] for _ in range(num_chunks)],
        retry_budget=retry_budget,
        timeout=timeout,
        counters=dict.fromkeys(("retries", "timeouts", "corrupt_detected", "worker_errors"), 0),
    )


class TestDispatchLeases:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one chunk"):
            _table(0, retry_budget=1, timeout=None)
        with pytest.raises(ValueError, match="retry_budget"):
            _table(2, retry_budget=-1, timeout=None)

    def test_lifecycle(self):
        table = _table(2, retry_budget=1, timeout=None)
        assert table.has_pending() and not table.finished()
        a = table.assign("w0")
        b = table.assign("w1")
        assert (a.chunk, b.chunk) == (0, 1)
        assert a.attempts == 1 and a.worker == "w0"
        assert table.assign("w2") is None  # drained
        table.complete(0)
        table.complete(1)
        assert table.finished() and not table.failures()
        assert a.history == [(0, "w0", "done")]

    def test_requeue_respects_budget(self):
        table = _table(1, retry_budget=1, timeout=None)
        table.assign("w0")
        assert table.requeue(0, "worker died")  # attempt 1 of 2 burned
        table.assign("w1")
        assert not table.requeue(0, "checksum mismatch")  # budget spent
        assert table.finished()
        [failed] = table.failures()
        assert failed.failed_reason == "checksum mismatch"
        assert [h[2] for h in failed.history] == ["worker died", "checksum mismatch"]

    def test_steal_detection(self):
        table = _table(1, retry_budget=2, timeout=None)
        table.assign("w0")
        table.requeue(0, "timeout")
        lease = table.assign("w1")
        assert table.stolen(lease)  # moved w0 -> w1
        table.requeue(0, "timeout")
        lease = table.assign("w1")
        assert not table.stolen(lease)  # same worker retried

    def test_expired_deadlines(self):
        table = _table(2, retry_budget=1, timeout=10.0)
        table.assign("w0", now=100.0)
        table.assign("w1", now=105.0)
        assert table.expired(now=109.0) == []
        expired = table.expired(now=112.0)
        assert [lease.chunk for lease in expired] == [0]

    def test_next_deadline(self):
        table = _table(3, retry_budget=1, timeout=10.0)
        assert table.next_deadline() is None  # nothing leased, nothing armed
        table.assign("w0", now=100.0)
        table.assign("w1", now=105.0)
        assert table.next_deadline() == 110.0
        # The deadline is the last instant that is still on time.
        assert table.expired(now=110.0) == []
        assert [lease.chunk for lease in table.expired(now=110.001)] == [0]
        table.requeue(0, "lease deadline expired")  # pending again: disarmed
        assert table.next_deadline() == 115.0
        table.complete(1)
        assert table.next_deadline() is None
        table.assign("w1", now=120.0)  # the requeued chunk, leased afresh
        assert table.next_deadline() == 130.0

    def test_next_deadline_without_a_timeout(self):
        table = _table(1, retry_budget=0, timeout=None)
        table.assign("w0", now=100.0)
        assert table.outstanding() and table.next_deadline() is None

    def test_accepts_bounds_and_staleness(self):
        table = _table(2, retry_budget=0, timeout=None)
        assert not table.accepts(-1) and not table.accepts(2)
        table.assign("w0")
        assert table.accepts(0)
        # A stale attempt's result is still wanted while unresolved …
        table.requeue(0, "drop")
        assert table.accepts(0)
        # … but not once the chunk completed.
        table.leases[0].done = True
        assert not table.accepts(0)

    def test_fail_pending(self):
        table = _table(3, retry_budget=5, timeout=None)
        table.assign("w0")
        failed = table.fail_pending("no live workers")
        assert [lease.chunk for lease in failed] == [1, 2]
        assert not table.has_pending()
        assert len(table.outstanding()) == 1  # w0's lease survives


# --------------------------------------------------------------------- #
# End-to-end executor recovery
# --------------------------------------------------------------------- #
_TIGHT = dict(heartbeat_interval=0.1, heartbeat_timeout=1.0, worker_grace=20.0)


def _executors(dataset, **dist_kw):
    model = _model(dataset)
    serial = SerialExecutor(
        _model(dataset), _clients(dataset), SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1)
    )
    kw = dict(num_workers=2, **_TIGHT)
    kw.update(dist_kw)
    dist = DistExecutor(
        model, _clients(dataset), SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1), **kw
    )
    return serial, dist


class TestDistExecutor:
    def test_bit_identical_to_serial(self, tiny_bow_dataset):
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            for round_no in range(3):
                tasks = _cohort(8, epochs=1 + round_no % 2)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
        finally:
            dist.close()
            serial.close()

    def test_singleton_and_empty_cohorts_use_fast_path(self, tiny_bow_dataset):
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            assert dist.run_cohort(start, []) == []
            _assert_results_equal(
                serial.run_cohort(start, _cohort(1)), dist.run_cohort(start, _cohort(1))
            )
        finally:
            dist.close()
            serial.close()

    def test_network_chaos_bit_identical(self, tiny_bow_dataset):
        """Dropped connections and delayed results must cost only retries."""
        plan = FaultPlan(parse_faults("drop:0.3+delay:0.4"), seed=5, delay_seconds=0.05)
        # drop:0.3 can deterministically land several drops in a row on one
        # chunk; a generous retry budget keeps this a pure-recovery test.
        serial, dist = _executors(
            tiny_bow_dataset, faults=plan, chunk_timeout=5.0, chunk_retries=8
        )
        try:
            start = serial.model.get_flat_weights()
            for _ in range(4):
                tasks = _cohort(8)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            assert dist.fault_counters["reconnects"] > 0
            assert dist.fault_counters["retries"] > 0
            assert dist.fault_counters["degraded_chunks"] == 0
        finally:
            dist.close()
            serial.close()

    def test_malformed_messages_drop_only_their_connection(self, tiny_bow_dataset):
        """A message of the wrong arity or type, from any peer, costs that
        peer its connection: the workers and the dispatch carry on. Nothing
        reads the sockets between dispatches, so the passes of the next
        dispatch are what find the peers and drop them."""
        serial, dist = _executors(tiny_bow_dataset)
        peers = []
        try:
            assert dist.wait_for_workers(2) == 2
            for msg in [("register", "x"), ("result", 0, 0), 42]:
                peer = socket.create_connection(dist._scheduler.address, timeout=10)
                peers.append(peer)
                peer.sendall(encode_frame(msg))
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
            for peer in peers:
                assert peer.recv(1 << 16) == b""  # the scheduler hung up
            assert dist._scheduler.live_workers == 2
            assert dist.fault_counters["worker_deaths"] == 0
        finally:
            for peer in peers:
                peer.close()
            dist.close()
            serial.close()

    def test_exception_in_a_pass_leaves_run_cohort_as_itself(self, tiny_bow_dataset):
        """The passes run on the caller's thread, so an exception raised in
        one is the caller's, unchanged — for this dispatch and the next —
        and ``close()`` still shuts the workers down."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            workers = list(dist.worker_processes)
            start = serial.model.get_flat_weights()

            def broken(now):
                raise OSError("selector gone")

            dist._scheduler._step = broken
            for _ in range(2):
                with pytest.raises(OSError, match="selector gone"):
                    dist.run_cohort(start, _cohort(8))
        finally:
            dist.close()
            serial.close()
        assert [p.exitcode for p in workers] == [0, 0]

    def test_parent_starts_no_thread(self, tiny_bow_dataset):
        """The scheduler runs on the executor's thread: building the
        executor and running a cohort leaves the parent's thread count as
        it was (the workers it forks are processes)."""
        before = threading.active_count()
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
            assert threading.active_count() == before
        finally:
            dist.close()
            serial.close()
        assert threading.active_count() == before

    def test_sigkill_worker_recovers(self, tiny_bow_dataset):
        """SIGKILL a local worker between dispatches: the lease layer
        redistributes, the executor respawns, results stay identical."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
            victim = dist.worker_processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            for _ in range(2):
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            assert dist.fault_counters["respawns"] >= 1
            assert dist.fault_counters["degraded_chunks"] == 0
        finally:
            dist.close()
            serial.close()

    def test_sigstop_worker_misses_heartbeats(self, tiny_bow_dataset):
        """A wedged (stopped) worker is declared dead by heartbeat timeout
        and its lease is stolen by the survivor."""
        serial, dist = _executors(tiny_bow_dataset, chunk_timeout=5.0)
        try:
            dist.wait_for_workers(2)
            victim = dist.worker_processes[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                start = serial.model.get_flat_weights()
                tasks = _cohort(8)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            assert dist.fault_counters["heartbeat_misses"] >= 1
        finally:
            dist.close()
            serial.close()

    def test_corruption_detected_and_degraded(self, tiny_bow_dataset):
        plan = FaultPlan(parse_faults("corrupt:1.0"), seed=0)
        serial, dist = _executors(tiny_bow_dataset, faults=plan, chunk_retries=0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(6)
            with pytest.warns(RuntimeWarning, match="degrading to in-process"):
                chaos = dist.run_cohort(start, tasks)
            _assert_results_equal(serial.run_cohort(start, tasks), chaos)
            assert dist.fault_counters["corrupt_detected"] > 0
            assert dist.fault_counters["degraded_chunks"] > 0
        finally:
            dist.close()
            serial.close()

    def test_fault_error_carries_dist_context(self, tiny_bow_dataset):
        """With degradation off, budget exhaustion must surface the full
        diagnosis: backend, chunk, attempts, live workers, counters."""
        plan = FaultPlan(parse_faults("corrupt:1.0"), seed=0)
        _, dist = _executors(tiny_bow_dataset, faults=plan, chunk_retries=1, fault_degrade=False)
        try:
            start = dist._local.model.get_flat_weights()
            with pytest.raises(ExecutorFaultError) as excinfo:
                dist.run_cohort(start, _cohort(6))
            err = excinfo.value
            assert err.executor == "dist"
            assert err.attempts == 2  # 1 + chunk_retries
            assert err.retry_budget == 1
            assert err.chunk_size > 0
            assert err.counters["corrupt_detected"] > 0
            text = str(err)
            assert "chunk_retries" in text and "fault_degrade" in text
        finally:
            dist.close()

    def test_knob_validation(self, tiny_bow_dataset):
        kwargs = dict(
            model=_model(tiny_bow_dataset),
            clients=_clients(tiny_bow_dataset),
            loss=SoftmaxCrossEntropy(),
            optimizer=OptimizerSpec("sgd", 0.1),
        )
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DistExecutor(**kwargs, heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="worker_grace"):
            DistExecutor(**kwargs, worker_grace=0.0)
        with pytest.raises(ValueError, match="chunk_retries"):
            DistExecutor(**kwargs, chunk_retries=-1)

    def test_close_is_idempotent(self, tiny_bow_dataset):
        _, dist = _executors(tiny_bow_dataset)
        dist.close()
        dist.close()
        assert dist.worker_processes == []

    def test_close_does_not_wait_for_unregistered_workers(self, tiny_bow_dataset):
        """Closing before the forked workers have dialled in used to cost a
        2 s join timeout per worker: the child held a copy of the listening
        socket, so its late connect() landed in a backlog nobody accepted."""
        t0 = time.monotonic()
        _, dist = _executors(tiny_bow_dataset)
        workers = list(dist.worker_processes)
        dist.close()
        elapsed = time.monotonic() - t0
        assert len(workers) == 2
        assert not any(p.is_alive() for p in workers)
        assert elapsed < 0.5

    def test_close_after_a_run_shuts_workers_down_cleanly(self, tiny_bow_dataset):
        """Registered, idle workers are told to exit and do so on their own
        (exit code 0), promptly — nothing is terminated, nothing times out."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            dist.run_cohort(start, _cohort(4))
            workers = list(dist.worker_processes)
            t0 = time.monotonic()
        finally:
            dist.close()
            serial.close()
        assert time.monotonic() - t0 < 0.5
        assert [p.exitcode for p in workers] == [0, 0]

    def test_no_lost_wakeups_over_many_dispatches(self, tiny_bow_dataset):
        """A result landing while a pass is between its ``select`` calls
        must still end the dispatch. 300 back-to-back two-task dispatches,
        fresh weights every time (so each one also ships a weights frame);
        a lost wake-up would hang until a heartbeat at best."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            tasks = _cohort(2)
            t0 = time.monotonic()
            for i in range(300):
                weights = start + 1e-3 * i
                _assert_results_equal(
                    serial.run_cohort(weights, tasks), dist.run_cohort(weights, tasks)
                )
            # One lost wake-up per dispatch, rescued by the next heartbeat
            # (0.1 s here), would already take 30 s.
            assert time.monotonic() - t0 < 20.0
            assert not any(dist.fault_counters.values())
        finally:
            dist.close()
            serial.close()

    def test_dispatch_has_no_poll_floor(self, tiny_bow_dataset):
        """The tick loop picked a submitted job up at its next 20 ms poll,
        so no dispatch could beat that; the caller's passes now lease it
        out at once."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            tasks = _cohort(4)
            dist.run_cohort(start, tasks)  # workers hold init payload + weights
            samples = []
            for _ in range(30):
                t0 = time.perf_counter()
                dist.run_cohort(start, tasks)
                samples.append(time.perf_counter() - t0)
            assert statistics.median(samples) < 0.015
        finally:
            dist.close()
            serial.close()

    def test_unchanged_start_weights_keep_their_version(self, tiny_bow_dataset):
        """``begin`` encodes a weights frame only for weights it has not
        seen last: equal weights (even a fresh array) reuse the version."""
        _, dist = _executors(tiny_bow_dataset, dist_bind=f"127.0.0.1:{_free_port()}")
        try:
            scheduler = dist._scheduler
            start = dist._local.model.get_flat_weights()
            dispatch = Dispatch(0, [[]], retry_budget=0, timeout=None, counters={})
            scheduler.begin(dispatch, start)
            version, frame = scheduler._weights_version, scheduler._weights_frame
            scheduler.begin(dispatch, start.copy())
            assert (scheduler._weights_version, scheduler._weights_frame) == (version, frame)
            scheduler.begin(dispatch, start + 1.0)
            assert scheduler._weights_version == version + 1
        finally:
            dist.close()

    def test_weights_and_lease_leave_in_one_send(self, tiny_bow_dataset):
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            scheduler = dist._scheduler
            sends = []  # bytes buffered for the connection at each flush
            flush = scheduler._flush
            scheduler._flush = lambda conn: (sends.append(len(conn.out)), flush(conn))
            start = serial.model.get_flat_weights()
            dist.run_cohort(start, _cohort(4))  # new weights: frame + lease per worker
            assert len(sends) == 2 and min(sends) > start.nbytes
            del sends[:]
            dist.run_cohort(start, _cohort(4))  # same weights: the lease alone
            assert len(sends) == 2 and max(sends) < start.nbytes
        finally:
            dist.close()
            serial.close()


# --------------------------------------------------------------------- #
# Scheduler timers: each test below is resolved by one timer and by
# nothing else — no frame arrives at the moment the scheduler must act.
# --------------------------------------------------------------------- #
def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _hang_plan(hung, clear=(), **plan_kw):
    """A real ``hang:0.5`` plan whose schedule hangs exactly the ``hung``
    ``(dispatch, chunk, attempt)`` keys and none of the ``clear`` ones."""
    spec = parse_faults("hang:0.5")
    for seed in range(4096):
        plan = FaultPlan(spec, seed=seed, **plan_kw)
        if all(plan.chunk_faults(*k) == ("hang",) for k in hung) and not any(
            plan.chunk_faults(*k) for k in clear
        ):
            return plan
    raise AssertionError("no seed produces the requested hang schedule")


class TestSchedulerTimers:
    def test_idle_scheduler_wakes_for_heartbeats_only(self, tiny_bow_dataset):
        """Between dispatches nothing reads the sockets. An idle gap of
        2.5 heartbeat timeouts costs no worker: the next dispatch reads the
        heartbeats that piled up before it judges any deadline by them."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            expected = serial.run_cohort(start, tasks)
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            time.sleep(2.5 * dist.config.heartbeat_timeout)
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            counters = dist.fault_counters
            assert counters["heartbeat_misses"] == counters["worker_deaths"] == 0
            assert counters["respawns"] == 0
            assert dist._scheduler.live_workers == 2
        finally:
            dist.close()
            serial.close()

    def test_a_reconnected_worker_heartbeats_while_idle(self, tiny_bow_dataset):
        """A worker that reconnects already holding its init payload gets no
        frame until the next dispatch, yet it beats from its registration
        on: an idle gap of 2.5 heartbeat timeouts after the reconnect costs
        no heartbeat miss and no second reconnect."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            expected = serial.run_cohort(start, tasks)
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            scheduler = dist._scheduler
            scheduler._dead(scheduler._conns[0], "connection reset")  # the link drops
            assert dist.wait_for_workers(2) == 2  # the worker dialled back in
            time.sleep(2.5 * dist.config.heartbeat_timeout)
            _assert_results_equal(expected, dist.run_cohort(start, tasks))
            counters = dist.fault_counters
            assert counters["heartbeat_misses"] == 0
            assert counters["reconnects"] == 1
            assert counters["respawns"] == 0
            assert scheduler.live_workers == 2
        finally:
            dist.close()
            serial.close()

    def test_a_fresh_worker_beats_at_the_runs_interval(self, tiny_bow_dataset):
        """A worker beats from registration at its default interval until the
        init payload names the run's, which restarts the beat: a timeout
        shorter than that default costs no idle worker its connection."""
        _, dist = _executors(tiny_bow_dataset, heartbeat_interval=0.02, heartbeat_timeout=0.12)
        try:
            assert dist.wait_for_workers(2) == 2
            dist._scheduler.drive(lambda: False, timeout=1.0)
            assert dist.fault_counters["heartbeat_misses"] == 0
            assert dist._scheduler.live_workers == 2
        finally:
            dist.close()

    def test_a_drive_ends_on_its_timeout(self, tiny_bow_dataset):
        """With no timer armed and nothing arriving, a drive sleeps until
        its own timeout and no longer: the condition alone cannot end it."""
        _, dist = _executors(tiny_bow_dataset, dist_bind=f"127.0.0.1:{_free_port()}")
        try:
            t0 = time.monotonic()
            assert dist._scheduler.drive(lambda: False, timeout=0.2) == []
            assert 0.2 <= time.monotonic() - t0 < 2.0
        finally:
            dist.close()

    def test_a_fired_sentinel_ends_the_drive(self, tiny_bow_dataset):
        """A watched sentinel that turns readable ends the drive at once,
        whatever its condition says, and comes back as fired — and is not
        watched by the next drive."""
        _, dist = _executors(tiny_bow_dataset, dist_bind=f"127.0.0.1:{_free_port()}")
        read_end, write_end = os.pipe()
        try:
            os.close(write_end)  # what a process's exit does to its sentinel
            t0 = time.monotonic()
            assert dist._scheduler.drive(lambda: False, sentinels=[read_end]) == [read_end]
            assert time.monotonic() - t0 < 1.0
            assert dist._scheduler.drive(lambda: False, timeout=0.05) == []
        finally:
            os.close(read_end)
            dist.close()

    def test_lease_deadline_recovers_hung_worker(self, tiny_bow_dataset):
        """A worker that hangs mid-lease keeps heartbeating, so neither EOF
        nor the heartbeat timeout fires: only the lease deadline frees the
        chunk, and the idle survivor steals it. The executor forked the
        hung worker, so it is dropped, killed and replaced at once — a
        death and a respawn, counted before the dispatch returns."""
        plan = _hang_plan(
            hung=[(0, 0, 0)], clear=[(0, 1, 0), (0, 0, 1), (0, 1, 1)], hang_seconds=30.0
        )
        serial, dist = _executors(tiny_bow_dataset, faults=plan, chunk_timeout=0.4)
        try:
            assert dist.wait_for_workers(2) == 2
            before = list(dist.worker_processes)
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            t0 = time.monotonic()
            got = dist.run_cohort(start, tasks)
            elapsed = time.monotonic() - t0
            _assert_results_equal(serial.run_cohort(start, tasks), got)
            counters = dist.fault_counters
            assert counters["timeouts"] >= 1
            assert counters["steals"] >= 1
            assert counters["heartbeat_misses"] == 0
            assert counters["worker_deaths"] == counters["respawns"] == 1
            assert counters["degraded_chunks"] == 0
            assert 0.4 <= elapsed < 5.0
            hung = [p for p in before if p not in dist.worker_processes]
            assert len(hung) == 1 and hung[0].exitcode == -signal.SIGKILL
            assert len(dist.worker_processes) == 2
        finally:
            dist.close()
            serial.close()

    def test_worker_grace_expires_on_empty_roster(self, tiny_bow_dataset):
        """External mode with nobody dialling in: after ``worker_grace`` the
        dispatch hands every chunk back and the executor degrades them."""
        serial, dist = _executors(
            tiny_bow_dataset, dist_bind=f"127.0.0.1:{_free_port()}", worker_grace=0.3
        )
        try:
            assert dist.worker_processes == []
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            t0 = time.monotonic()
            with pytest.warns(RuntimeWarning, match="no live workers"):
                got = dist.run_cohort(start, tasks)
            elapsed = time.monotonic() - t0
            _assert_results_equal(serial.run_cohort(start, tasks), got)
            assert dist.fault_counters["degraded_chunks"] == dist.num_chunks == 2
            assert dist.fault_counters["retries"] == 0
            assert 0.3 <= elapsed < 3.0
        finally:
            dist.close()
            serial.close()

    def test_all_workers_wedged_fails_pending(self, tiny_bow_dataset):
        """Every worker hung on an expired lease, nothing in flight: after
        one more ``chunk_timeout`` the stall window hands the requeued
        chunks back instead of deadlocking. Only workers the executor did
        not fork can wedge like this (it kills its own), so two are
        started here and dial in to an explicit port."""
        plan = _hang_plan(hung=[(0, 0, 0), (0, 1, 0)], hang_seconds=30.0)
        port = _free_port()
        # Forked before the scheduler exists, so they hold none of its
        # sockets; they retry until it listens.
        external = [
            worker_context().Process(target=run_worker, args=("127.0.0.1", port), daemon=True)
            for _ in range(2)
        ]
        for proc in external:
            proc.start()
        serial, dist = _executors(
            tiny_bow_dataset, faults=plan, chunk_timeout=0.3, dist_bind=f"127.0.0.1:{port}"
        )
        try:
            assert dist.worker_processes == []
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            t0 = time.monotonic()
            with pytest.warns(RuntimeWarning, match="no responsive workers"):
                got = dist.run_cohort(start, tasks)
            elapsed = time.monotonic() - t0
            _assert_results_equal(serial.run_cohort(start, tasks), got)
            counters = dist.fault_counters
            assert counters["timeouts"] == 2
            assert counters["degraded_chunks"] == 2
            assert counters["heartbeat_misses"] == counters["worker_deaths"] == 0
            assert counters["respawns"] == 0
            assert all(proc.is_alive() for proc in external)  # wedged, not killed
            assert 0.6 <= elapsed < 5.0
        finally:
            dist.close()
            serial.close()
            for proc in external:
                proc.kill()
                proc.join()


def _repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _repro_env() -> dict:
    """The environment with ``src`` first on PYTHONPATH. The inherited
    entries stay, so a tracer installed through them follows the child."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork workers")
def test_external_worker_via_cli(tiny_bow_dataset):
    """Explicit-port mode: the executor spawns nothing; a `repro worker`
    subprocess connects, serves a cohort bit-identical to serial's, and
    exits 0 when the executor closes."""
    # Binding the executor to an explicit port switches off local spawning
    # (external workers are expected).
    port = _free_port()
    serial, dist = _executors(tiny_bow_dataset, dist_bind=f"127.0.0.1:{port}")
    worker = None
    try:
        assert dist.worker_processes == []  # external mode spawns none
        worker = subprocess.Popen(
            _repro("worker", "--connect", f"127.0.0.1:{port}", "--id", "ext-0", "--quiet"),
            env=_repro_env(),
        )
        assert dist.wait_for_workers(1, timeout=30.0) >= 1
        start = serial.model.get_flat_weights()
        tasks = _cohort(6)
        _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
        dist.close()
        assert worker.wait(timeout=30) == 0
    finally:
        dist.close()
        serial.close()
        if worker is not None:
            worker.kill()
            worker.wait()


def test_worker_cli_refuses_a_bad_address():
    done = subprocess.run(
        _repro("worker", "--connect", "nonsense"),
        env=_repro_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "bad --connect address" in done.stderr


def test_init_payload_survives_pickle(tiny_bow_dataset):
    """Everything the init frame carries must pickle (workers may live on
    other machines — no shared memory, no file handles)."""
    _, dist = _executors(tiny_bow_dataset)
    try:
        payload = {
            "model": dist._local.model.clone(),
            "clients": _clients(tiny_bow_dataset),
            "loss": SoftmaxCrossEntropy(),
            "optimizer": OptimizerSpec("sgd", 0.1),
            "faults": FaultPlan(parse_faults("drop:0.5"), seed=1),
            "heartbeat_interval": 0.2,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(blob)["heartbeat_interval"] == 0.2
    finally:
        dist.close()


def test_wait_for_workers_times_out_cleanly(tiny_bow_dataset):
    _, dist = _executors(tiny_bow_dataset, dist_bind=f"127.0.0.1:{_free_port()}")
    try:
        t0 = time.monotonic()
        assert dist.wait_for_workers(1, timeout=0.3) == 0
        assert time.monotonic() - t0 < 5.0
    finally:
        dist.close()
