"""Scheduler: start weights, chunk leases, and worker supervision.

One background thread runs a ``selectors`` event loop over the listening
socket, every worker connection and a wake channel. All connection and
lease state is owned by that thread; the executor talks to it through
narrow, thread-safe seams — :meth:`Scheduler.publish_weights` (a
dispatch's start weights: version + cached wire frame under a lock),
:meth:`Scheduler.submit` (a :class:`_Job` dropped on a deque, then one
byte down the wake channel) and
:meth:`Scheduler.wait_for_workers` (a condition the loop notifies when the
roster changes). A resolved job sets ``job.done`` and writes one byte to
``done_channel``, so the executor can wait for it next to its worker
processes' sentinels.

The loop never ticks. It sleeps in ``select`` until something happens — a
frame, a connection, an EOF, a submitted job, ``stop()`` — or until the
earliest *armed* timer is due, and with no timer armed it sleeps without a
timeout. Four things arm a timer:

- each registered connection: ``last_seen + heartbeat_timeout``;
- each lease of the current dispatch with a ``chunk_timeout``: its
  deadline (:meth:`Dispatch.next_deadline`);
- a dispatch with no live worker: ``worker_grace`` from when the roster
  emptied;
- a dispatch whose every worker is wedged on an expired lease: one stall
  window from when that began.

After every wake-up, whatever its cause, the loop runs one pass that acts
on what is due, hands pending chunks to idle workers and resolves a
finished job — so a dispatch costs the round trip, not a poll interval.

A frame or message that cannot be decoded or handled drops the connection
it came on and nothing else; should the loop itself die,
:meth:`Scheduler.check` raises the cause instead of leaving a dispatch to wait.

Lease transitions — verify a result, requeue on error / loss / expiry,
spend retry budget — are :class:`~repro.exec.supervision.Dispatch` 's;
this module turns frames, EOFs and timers into those transitions and adds
what only a network has:

- workers register and heartbeat; a quiet connection past
  ``heartbeat_timeout`` is declared dead, which (like an EOF from a crashed
  or dropped worker) loses the lease it held;
- a worker past its lease deadline (``chunk_timeout``) but still
  heartbeating is presumed wedged. One the executor forked (its pid is in
  ``owned``) is dropped at once and queued on ``wedged`` for the executor
  to kill and replace; any other keeps its connection but earns no new
  leases until it proves liveness with a result or error frame;
- idle workers steal requeued leases off the shared queue;
- zero live workers for ``worker_grace`` seconds — or every worker wedged
  with nothing in flight — fails the remaining chunks, which the executor
  then degrades in-process (or surfaces as ``ExecutorFaultError``).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque, namedtuple

import numpy as np

from repro.exec.dist.wire import FrameBuffer, encode_frame
from repro.exec.supervision import Dispatch, WakeChannel, wait_budget

__all__ = ["Scheduler"]


#: Selector key data of the wake channel (the listener's is None).
_WAKE = object()


class _Conn:
    """Per-connection state, owned by the scheduler loop thread."""

    __slots__ = (
        "sock",
        "buf",
        "out",
        "worker_id",
        "pid",
        "registered",
        "last_seen",
        "weights_version",
        "inflight",  # (dispatch, chunk) currently leased here, else None
        "closed",
    )

    def __init__(self, sock, now: float):
        self.sock = sock
        self.buf = FrameBuffer()
        self.out = bytearray()
        self.worker_id: str | None = None
        self.pid: int | None = None
        self.registered = False
        self.last_seen = now
        self.weights_version = -1
        self.inflight: tuple[int, int] | None = None
        self.closed = False


#: A submitted dispatch, the weights version it runs on, and the event set
#: once it is resolved.
_Job = namedtuple("_Job", "dispatch weights_version done")


class Scheduler:
    """Socket scheduler for :class:`~repro.exec.dist.DistExecutor`.

    ``counters`` is the executor's ``fault_counters`` dict; only the loop
    thread writes it while a job is unresolved, and the executor reads it
    after ``job.done`` — no lock needed beyond the GIL.

    Cross-thread signalling is two :class:`WakeChannel` s. ``_wake`` runs
    executor -> loop: it is signalled after the state it announces (an inbox
    entry, ``_stop``) is published and drained before that state is read.
    ``done_channel`` runs loop -> executor, signalled for every resolved job.
    """

    def __init__(
        self,
        *,
        bind: tuple[str, int],
        heartbeat_timeout: float,
        worker_grace: float,
        counters: dict,
    ):
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.worker_grace = float(worker_grace)
        self.counters = counters
        self.live_workers = 0  # written by the loop under ``_roster``
        self._roster = threading.Condition()
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._wake = WakeChannel()
        #: Readable whenever a job resolved since it was last drained. For
        #: waiting on a job *and* something else (the executor adds its local
        #: workers' process sentinels): check ``job.done`` after every
        #: wake-up, and drain this when it is what woke you.
        self.done_channel = WakeChannel()
        self._sel.register(self._wake, selectors.EVENT_READ, _WAKE)
        self._conns: list[_Conn] = []
        self._seen_ids: set[str] = set()
        self._init_frame: bytes | None = None
        self._inbox: deque[_Job] = deque()
        self._job: _Job | None = None
        self._no_worker_since: float | None = None
        self._stall_since: float | None = None
        self._weights_lock = threading.Lock()
        self._weights_version = -1
        self._weights_array: np.ndarray | None = None
        self._weights_frame: bytes = b""
        self._stop = False
        self._thread: threading.Thread | None = None
        #: Why the loop thread died, if it ever exits other than by ``stop()``.
        self.failure: Exception | None = None
        self._told_to_exit: set[int] = set()
        #: Pids of the workers the executor forked (it keeps this current).
        self.owned: set[int] = set()
        #: Pids of owned workers dropped on an expired lease, for the
        #: executor to kill; each one also signals ``done_channel``.
        self.wedged: deque[int] = deque()

    # ------------------------------------------------------------------ #
    # Executor-facing API (called from the executor's thread)
    # ------------------------------------------------------------------ #
    def start(self, init_payload: dict) -> None:
        """Encode the worker init payload once and start the loop thread."""
        self._init_frame = encode_frame(("init", init_payload))
        self._thread = threading.Thread(
            target=self._run, name="repro-dist-scheduler", daemon=True
        )
        self._thread.start()

    def publish_weights(self, weights: np.ndarray) -> int:
        """Install a dispatch's start weights — one ``(P,)`` vector or an
        ``(S, P)`` stack — and return their version.

        Identical weights reuse the previous version (and its cached wire
        frame), so unchanged start weights between dispatches cost no
        re-broadcast — the same idea as the system's downlink cache.
        """
        with self._weights_lock:
            if self._weights_array is not None and np.array_equal(
                self._weights_array, weights
            ):
                return self._weights_version
            arr = np.ascontiguousarray(weights).copy()
            arr.flags.writeable = False
            self._weights_version += 1
            self._weights_array = arr
            self._weights_frame = encode_frame(("weights", self._weights_version, arr))
            return self._weights_version

    def submit(self, dispatch: Dispatch, weights_version: int) -> threading.Event:
        """Queue one dispatch and wake the loop.

        The returned event is set, and ``done_channel`` signalled, once
        every chunk of ``dispatch`` is completed or failed.
        """
        job = _Job(dispatch, weights_version, threading.Event())
        self._inbox.append(job)
        self._wake.signal()
        return job.done

    def check(self) -> None:
        """Raise if the loop thread died: no job can resolve any more."""
        if self.failure is not None:
            raise RuntimeError(f"dist scheduler loop died: {self.failure!r}") from self.failure

    def wait_for_workers(self, count: int, timeout: float) -> int:
        """Block until ``count`` workers are registered; returns the roster size."""
        with self._roster:
            self._roster.wait_for(lambda: self.live_workers >= count, timeout)
            return self.live_workers

    def stop(self) -> frozenset[int]:
        """Shut down: broadcast shutdown frames, close sockets, join.

        Returns the pids of the workers that will act on their shutdown
        frame: registered, and idle when it was sent. A worker outside this
        set never dialled in, or is still busy with (or wedged on) a lease
        and will not read the frame any time soon.
        """
        self._stop = True
        self._wake.signal()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.done_channel.close()
        return frozenset(self._told_to_exit)

    def close_inherited(self) -> None:
        """In a forked child: close this process's copies of every socket.

        The listener is the one that matters. While any process holds it the
        port stays in ``LISTEN`` after the scheduler itself has closed it,
        and a late worker's ``connect()`` succeeds into a backlog nobody will
        ever accept — it then blocks in ``recv`` for good instead of seeing
        the refusal that tells it the scheduler is gone. A stray copy of a
        connection likewise hides the scheduler's ``close()`` from the
        worker at its other end.
        """
        for sock in (
            self._listener,
            self._wake,
            self.done_channel,
            *(conn.sock for conn in self._conns),
        ):
            sock.close()
        self._sel.close()

    # ------------------------------------------------------------------ #
    # Event loop (everything below runs on the loop thread)
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            while not self._stop:
                timeout = self._step(time.monotonic())
                for key, mask in self._sel.select(timeout):
                    if key.data is _WAKE:
                        self._wake.drain()
                        continue
                    if key.data is None:
                        self._accept()
                        continue
                    conn: _Conn = key.data
                    if conn.closed:
                        continue
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if mask & selectors.EVENT_WRITE and not conn.closed:
                        self._flush(conn)
        except Exception as exc:
            # Published before the executor is woken, so it wakes to see why.
            self.failure = exc
            self.done_channel.signal()
        finally:
            self._shutdown_all()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, time.monotonic())
        self._conns.append(conn)
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _events_for(self, conn: _Conn) -> int:
        return selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)

    def _queue(self, conn: _Conn, data: bytes) -> None:
        conn.out.extend(data)
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            while conn.out:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._dead(conn, "send failed")
            return
        try:
            self._sel.modify(conn.sock, self._events_for(conn), conn)
        except (KeyError, ValueError, OSError):  # pragma: no cover - closing race
            pass

    def _on_readable(self, conn: _Conn) -> None:
        while True:
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._dead(conn, "connection reset")
                return
            if not data:
                self._dead(conn, "connection closed")
                return
            conn.buf.feed(data)
        try:
            msgs = conn.buf.drain()
        except Exception as exc:  # FrameError, or anything unpickling can raise
            self._dead(conn, f"bad frame: {exc}")
            return
        for msg in msgs:
            try:
                self._handle(conn, msg)
            except Exception as exc:  # a wrong shape, type or arity
                self._dead(conn, f"bad message: {exc!r}")
            if conn.closed:
                return

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _handle(self, conn: _Conn, msg) -> None:
        """Act on one message. Its lease is freed only once it was handled:
        a message that raises loses the lease with its connection."""
        conn.last_seen = time.monotonic()
        kind = msg[0]
        if kind == "register":
            self._on_register(conn, msg)
        elif kind == "heartbeat":
            pass  # last_seen already refreshed
        elif kind in ("result", "error"):
            _, seq, chunk, _attempt, *body = msg
            current = self._current(seq)
            if current is not None and kind == "result":
                current.result(chunk, conn.worker_id, *body)
            elif current is not None:
                current.error(chunk, conn.worker_id, f"worker error: {body[0]}")
            if conn.inflight == (seq, chunk):
                conn.inflight = None
        # Unknown frames are ignored (forward compatibility).

    def _on_register(self, conn: _Conn, msg) -> None:
        _, worker_id, pid, has_init, weights_version = msg
        worker_id, pid = str(worker_id), int(pid)
        weights_version = int(weights_version) if has_init else -1
        # A reconnect may race its old connection's EOF: the fresh socket
        # supersedes any stale one wearing the same worker_id.
        for other in list(self._conns):
            if other is not conn and other.worker_id == worker_id:
                self._dead(other, "superseded by reconnect")
        conn.worker_id = worker_id
        conn.pid = pid
        conn.registered = True
        conn.weights_version = weights_version
        if conn.worker_id in self._seen_ids:
            self.counters["reconnects"] += 1
        self._seen_ids.add(conn.worker_id)
        if not has_init and self._init_frame is not None:
            self._queue(conn, self._init_frame)

    def _current(self, seq: int) -> Dispatch | None:
        """The running dispatch if it is number ``seq`` (a cross-dispatch
        straggler was resolved elsewhere long ago)."""
        job = self._job
        return job.dispatch if job is not None and job.dispatch.seq == seq else None

    def _dead(self, conn: _Conn, why: str) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if conn in self._conns:
            self._conns.remove(conn)
        if conn.registered:
            if why == "missed heartbeats":
                self.counters["heartbeat_misses"] += 1
            elif why != "superseded by reconnect":
                self.counters["worker_deaths"] += 1
        if conn.inflight is not None:
            seq, chunk = conn.inflight
            conn.inflight = None
            current = self._current(seq)
            if current is not None:
                current.lost(chunk, conn.worker_id, why)

    # ------------------------------------------------------------------ #
    # One pass after every wake-up: timers, assignment, completion
    # ------------------------------------------------------------------ #
    def _step(self, now: float) -> float | None:
        """Act on everything due at ``now``; returns the next ``select`` timeout.

        Runs after every wake-up, whatever caused it, so an event (a result,
        a registration, an EOF, a submitted job) assigns and resolves at
        once. A timer that fires removes what armed it — the quiet
        connection, the lease's deadline, the pending chunks — so the
        timeout computed at the end never points at something already
        handled.
        """
        for conn in list(self._conns):
            if conn.registered and now - conn.last_seen > self.heartbeat_timeout:
                self._dead(conn, "missed heartbeats")
        live = [c for c in self._conns if c.registered and not c.closed]
        self._publish_roster(len(live))
        while True:
            if self._job is None and self._inbox:
                self._job = self._inbox.popleft()
            job = self._job
            if job is None:
                break
            self._supervise(job, live, now)
            if not job.dispatch.finished():
                break
            self._job = None
            self._no_worker_since = None
            self._stall_since = None
            self._resolve(job)
        return wait_budget(self._deadlines(), now)

    def _deadlines(self):
        """Every armed timer, as the monotonic instant it is due."""
        for conn in self._conns:
            if conn.registered:
                yield conn.last_seen + self.heartbeat_timeout
        job = self._job
        if job is not None:
            yield job.dispatch.next_deadline()
            if self._no_worker_since is not None:
                yield self._no_worker_since + self.worker_grace
            if self._stall_since is not None:
                yield self._stall_since + self._stall_window(job)

    def _stall_window(self, job: _Job) -> float:
        timeout = job.dispatch.timeout
        return timeout if timeout is not None else self.worker_grace

    def _publish_roster(self, count: int) -> None:
        if count != self.live_workers:
            with self._roster:
                self.live_workers = count
                self._roster.notify_all()

    def _resolve(self, job: _Job) -> None:
        job.done.set()
        self.done_channel.signal()

    def _supervise(self, job: _Job, live: list[_Conn], now: float) -> None:
        dispatch = job.dispatch
        # An expired lease's holder keeps heartbeating but is presumed
        # wedged. A forked one is dropped here (a death, counted now, not
        # whenever its EOF would arrive) and killed by the executor; any
        # other earns no new leases (inflight stays set) until it proves
        # liveness.
        for lease in dispatch.expire(now):
            for conn in list(self._conns):
                if conn.inflight == (dispatch.seq, lease.chunk) and conn.pid in self.owned:
                    self._dead(conn, "wedged on an expired lease")
                    self.wedged.append(conn.pid)
                    self.done_channel.signal()
        if not live:
            self._stall_since = None
            if self._no_worker_since is None:
                self._no_worker_since = now
            elif now - self._no_worker_since >= self.worker_grace:
                dispatch.fail_pending("no live workers")
            return
        self._no_worker_since = None
        self._assign(job, now)
        idle = [c for c in live if c.inflight is None and not c.closed]
        # Expired leases were requeued above, so whatever is still
        # outstanding can still land.
        if dispatch.has_pending() and not idle and not dispatch.outstanding():
            # Every worker is wedged on an expired lease and nothing can
            # land; after a stall window, hand the chunks back to the
            # executor rather than deadlock.
            if self._stall_since is None:
                self._stall_since = now
            elif now - self._stall_since >= self._stall_window(job):
                dispatch.fail_pending("no responsive workers")
        else:
            self._stall_since = None

    def _assign(self, job: _Job, now: float) -> None:
        dispatch = job.dispatch
        for conn in list(self._conns):
            if conn.closed or not conn.registered or conn.inflight is not None:
                continue
            lease = dispatch.assign(conn.worker_id, now=now)
            if lease is None:
                return
            # Counted here, not in the dispatch: only a roster of named,
            # lasting workers can tell a rebalance from a plain retry.
            if dispatch.stolen(lease):
                self.counters["steals"] += 1
            if conn.weights_version != job.weights_version:
                # Buffered, not sent: the weights leave with the lease below,
                # in one send and one wake-up at the worker instead of two.
                with self._weights_lock:
                    conn.out.extend(self._weights_frame)
                conn.weights_version = job.weights_version
            # Marked in flight before the send, so a failed send (-> _dead)
            # finds the lease and requeues it.
            conn.inflight = (dispatch.seq, lease.chunk)
            self._queue(
                conn,
                encode_frame(
                    (
                        "lease",
                        dispatch.seq,
                        lease.chunk,
                        lease.attempts - 1,
                        job.weights_version,
                        dispatch.chunks[lease.chunk],
                    )
                ),
            )

    def _shutdown_all(self) -> None:
        frame = encode_frame(("shutdown",))
        for conn in list(self._conns):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(0.5)
                conn.sock.sendall(bytes(conn.out) + frame)
                if conn.registered and conn.inflight is None:
                    self._told_to_exit.add(conn.pid)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        self._publish_roster(0)
        self._listener.close()
        self._wake.close()
        self._sel.close()
        # Unblock any dispatch still waiting: surface its chunks as failed.
        jobs = [job for job in (self._job, *self._inbox) if job is not None]
        self._job = None
        self._inbox.clear()
        for job in jobs:
            job.dispatch.abandon("scheduler stopped")
            self._resolve(job)
