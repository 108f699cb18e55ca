"""Scheduler: start weights, chunk leases, and worker supervision.

The scheduler runs on its caller's thread. It owns a ``selectors``
selector over the listening socket and every worker connection, and
:meth:`Scheduler.drive` runs *passes* until the caller's condition holds:
:class:`~repro.exec.dist.DistExecutor` drives it until its dispatch
resolves (:meth:`Scheduler.begin` installs the dispatch and its start
weights) and :meth:`Scheduler.wait_for_workers` until the roster is full.
A pass is :meth:`Scheduler._step` — act on every timer due, hand pending
chunks to idle workers, resolve a finished dispatch — then one ``select``
over the listener, the worker sockets and whatever process sentinels the
caller watches. A sentinel that fires ends the drive, so the executor can
replace the worker while the lease layer recovers its chunk.

Between drives nothing reads the sockets: heartbeats, EOFs and
registrations wait in the kernel's buffers. Each drive therefore reads
what they buffered before its first pass judges any deadline, so an idle
gap between dispatches costs no worker that kept beating through it.

The loop never ticks. Its ``select`` sleeps until something happens — a
frame, a connection, an EOF, a sentinel — or until the earliest *armed*
timer is due, and with no timer armed it sleeps without a timeout. Four
things arm a timer:

- each registered connection: ``last_seen + heartbeat_timeout``;
- each lease of the current dispatch with a ``chunk_timeout``: its
  deadline (:meth:`Dispatch.next_deadline`);
- a dispatch with no live worker: ``worker_grace`` from when the roster
  emptied;
- a dispatch whose every worker is wedged on an expired lease: one stall
  window from when that began.

A frame or message that cannot be decoded or handled drops the connection
it came on and nothing else. Anything else a pass raises leaves
:meth:`Scheduler.drive` as itself, to the caller.

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
import time
from typing import Callable, Iterable

import numpy as np

from repro.exec.dist.wire import FrameBuffer, encode_frame
from repro.exec.supervision import Dispatch, wait_budget

__all__ = ["Scheduler"]


#: Selector key data of a watched process sentinel (the listener's is None).
_SENTINEL = object()


class _Conn:
    """Per-connection state."""

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


class Scheduler:
    """Socket scheduler for :class:`~repro.exec.dist.DistExecutor`.

    ``counters`` is the executor's ``fault_counters`` dict, which the passes
    update in place. ``init_payload`` is what a worker that registers
    without one is sent, encoded once here.
    """

    def __init__(
        self,
        *,
        bind: tuple[str, int],
        heartbeat_timeout: float,
        worker_grace: float,
        counters: dict,
        init_payload: dict,
    ):
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.worker_grace = float(worker_grace)
        self.counters = counters
        #: Registered, open connections as of the last pass.
        self.live_workers = 0
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._conns: list[_Conn] = []
        self._seen_ids: set[str] = set()
        self._init_frame = encode_frame(("init", init_payload))
        self._dispatch: Dispatch | None = None
        self._no_worker_since: float | None = None
        self._stall_since: float | None = None
        self._weights_version = -1
        self._weights_array: np.ndarray | None = None
        self._weights_frame: bytes = b""
        #: Pids of the workers the executor forked (it keeps this current).
        self.owned: set[int] = set()
        #: Pids of owned workers dropped on an expired lease, for the
        #: executor to kill.
        self.wedged: list[int] = []

    # ------------------------------------------------------------------ #
    # Caller-facing API
    # ------------------------------------------------------------------ #
    def begin(self, dispatch: Dispatch, weights: np.ndarray) -> None:
        """Make ``dispatch`` the one the next passes lease out, on start
        weights ``weights`` — one ``(P,)`` vector or an ``(S, P)`` stack.

        Identical weights reuse the previous version (and its cached wire
        frame), so unchanged start weights between dispatches cost no
        re-broadcast — the same idea as the system's downlink cache.
        """
        if self._weights_array is None or not np.array_equal(self._weights_array, weights):
            arr = np.ascontiguousarray(weights).copy()
            arr.flags.writeable = False
            self._weights_version += 1
            self._weights_array = arr
            self._weights_frame = encode_frame(("weights", self._weights_version, arr))
        self._dispatch = dispatch
        self._no_worker_since = None
        self._stall_since = None

    def drive(
        self,
        until: Callable[[], bool],
        *,
        sentinels: Iterable[int] = (),
        timeout: float | None = None,
    ) -> list[int]:
        """Run passes until ``until()`` holds and no frame waits to be sent,
        one of ``sentinels`` (process sentinels) is readable, or ``timeout``
        seconds pass. Returns the sentinels that fired.

        The sockets are read before the first pass, so a deadline is never
        judged on what arrived while nobody was driving. A drive does not
        end with a frame half sent: a worker that registered late in it
        must hold its init payload before the next idle gap, or it cannot
        heartbeat through that gap.
        """
        end = None if timeout is None else time.monotonic() + timeout
        watched = []
        try:
            for fd in sentinels:
                self._sel.register(fd, selectors.EVENT_READ, _SENTINEL)
                watched.append(fd)
            fired = self._pump(0)
            while True:
                now = time.monotonic()
                wait = self._step(now)
                if fired or (until() and not any(conn.out for conn in self._conns)):
                    return fired
                if end is not None:
                    if now >= end:
                        return fired
                    wait = end - now if wait is None else min(wait, end - now)
                fired = self._pump(wait)
        finally:
            for fd in watched:
                self._sel.unregister(fd)

    def wait_for_workers(self, count: int, timeout: float) -> int:
        """Drive until ``count`` workers are registered; returns the roster size."""
        self.drive(lambda: self.live_workers >= count, timeout=timeout)
        return self.live_workers

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
        for sock in (self._listener, *(conn.sock for conn in self._conns)):
            sock.close()
        self._sel.close()

    def shutdown(self) -> frozenset[int]:
        """Send every worker a shutdown frame and close every socket.

        Returns the pids of the workers that will act on their shutdown
        frame: registered, and idle when it was sent. A worker outside this
        set never dialled in, or is still busy with (or wedged on) a lease
        and will not read the frame any time soon.
        """
        frame = encode_frame(("shutdown",))
        told = set()
        for conn in self._conns:
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(0.5)
                conn.sock.sendall(bytes(conn.out) + frame)
                if conn.registered and conn.inflight is None:
                    told.add(conn.pid)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        self.live_workers = 0
        self._dispatch = None
        self._listener.close()
        self._sel.close()
        return frozenset(told)

    # ------------------------------------------------------------------ #
    # I/O
    # ------------------------------------------------------------------ #
    def _pump(self, timeout: float | None) -> list[int]:
        """One ``select``: accept, read and write what is ready; returns the
        watched sentinels that fired."""
        fired = []
        for key, mask in self._sel.select(timeout):
            if key.data is None:
                self._accept()
            elif key.data is _SENTINEL:
                fired.append(key.fd)
            elif not key.data.closed:
                conn: _Conn = key.data
                if mask & selectors.EVENT_READ:
                    self._on_readable(conn)
                if mask & selectors.EVENT_WRITE and not conn.closed:
                    self._flush(conn)
        return fired

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError once the backlog is empty
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
        self._sel.modify(conn.sock, self._events_for(conn), conn)

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
        if not has_init:
            self._queue(conn, self._init_frame)

    def _current(self, seq: int) -> Dispatch | None:
        """The running dispatch if it is number ``seq`` (a cross-dispatch
        straggler was resolved elsewhere long ago)."""
        dispatch = self._dispatch
        return dispatch if dispatch is not None and dispatch.seq == seq else None

    def _dead(self, conn: _Conn, why: str) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._sel.unregister(conn.sock)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
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
    # One pass: timers, assignment, completion
    # ------------------------------------------------------------------ #
    def _step(self, now: float) -> float | None:
        """Act on everything due at ``now``; returns the next ``select`` timeout.

        Runs after every ``select``, whatever woke it, so an event (a result,
        a registration, an EOF) assigns and resolves at once. A timer that
        fires removes what armed it — the quiet connection, the lease's
        deadline, the pending chunks — so the timeout computed at the end
        never points at something already handled.
        """
        for conn in list(self._conns):
            if conn.registered and now - conn.last_seen > self.heartbeat_timeout:
                self._dead(conn, "missed heartbeats")
        live = [c for c in self._conns if c.registered]
        self.live_workers = len(live)
        dispatch = self._dispatch
        if dispatch is not None:
            self._supervise(dispatch, live, now)
            if dispatch.finished():
                self._dispatch = None
        return wait_budget(self._deadlines(), now)

    def _deadlines(self):
        """Every armed timer, as the monotonic instant it is due."""
        for conn in self._conns:
            if conn.registered:
                yield conn.last_seen + self.heartbeat_timeout
        dispatch = self._dispatch
        if dispatch is not None:
            yield dispatch.next_deadline()
            if self._no_worker_since is not None:
                yield self._no_worker_since + self.worker_grace
            if self._stall_since is not None:
                yield self._stall_since + self._stall_window(dispatch)

    def _stall_window(self, dispatch: Dispatch) -> float:
        return dispatch.timeout if dispatch.timeout is not None else self.worker_grace

    def _supervise(self, dispatch: Dispatch, live: list[_Conn], now: float) -> None:
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
        if not live:
            self._stall_since = None
            if self._no_worker_since is None:
                self._no_worker_since = now
            elif now - self._no_worker_since >= self.worker_grace:
                dispatch.fail_pending("no live workers")
            return
        self._no_worker_since = None
        self._assign(dispatch, now)
        idle = [c for c in live if c.inflight is None and not c.closed]
        # Expired leases were requeued above, so whatever is still
        # outstanding can still land.
        if dispatch.has_pending() and not idle and not dispatch.outstanding():
            # Every worker is wedged on an expired lease and nothing can
            # land; after a stall window, hand the chunks back to the
            # executor rather than deadlock.
            if self._stall_since is None:
                self._stall_since = now
            elif now - self._stall_since >= self._stall_window(dispatch):
                dispatch.fail_pending("no responsive workers")
        else:
            self._stall_since = None

    def _assign(self, dispatch: Dispatch, now: float) -> None:
        version = self._weights_version
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
            if conn.weights_version != version:
                # Buffered, not sent: the weights leave with the lease below,
                # in one send and one wake-up at the worker instead of two.
                conn.out.extend(self._weights_frame)
                conn.weights_version = version
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
                        version,
                        dispatch.chunks[lease.chunk],
                    )
                ),
            )
