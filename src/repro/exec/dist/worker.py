"""Distributed worker: register, heartbeat, serve chunk leases.

One worker process holds one :class:`~repro.exec.serial.SerialExecutor`
(model replica + the run's clients + compiled training plan), built from the
init payload the scheduler ships at registration. The life cycle follows
the AstraFlow worker/scheduler split:

- **register** — connect to the scheduler, announce ``worker_id`` and
  whether an init payload is already held (a reconnecting worker keeps its
  executor and only re-syncs the current weights version);
- **heartbeat** — a daemon thread beats every ``heartbeat_interval``
  seconds over the same socket (frame writes are lock-serialized), so the
  scheduler can tell a live-but-slow worker from a dead one;
- **serve** — execute each lease ``(dispatch, chunk, attempt)`` through
  the serial core and reply with results + a crc32 chunk checksum.

Injected faults (:func:`~repro.exec.faults.run_attempt`, drawn per lease
key so chaos runs are bit-reproducible) fire here, where the real failure
would: ``crash`` kills the process, ``hang``/``delay`` stall the result
frame, ``corrupt`` damages it after the checksum, and ``drop`` severs the
connection — after which this loop reconnects and re-registers, exactly
like a worker behind a flapping link.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np

from repro.exec.dist.wire import FrameError, recv_frame, send_frame
from repro.exec.faults import FaultPlan, run_attempt
from repro.exec.serial import SerialExecutor

__all__ = ["run_worker", "parse_address"]


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r} must look like host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in address {text!r}") from None


class _WorkerCore:
    """Executor + weights cache that survive reconnects."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.executor: SerialExecutor | None = None
        self.plan: FaultPlan | None = None
        self.heartbeat_interval = 0.2
        self.weights_version = -1
        self.weights: np.ndarray | None = None

    def install_init(self, payload: dict) -> None:
        self.executor = SerialExecutor(
            payload["model"],
            payload["clients"],
            payload["loss"],
            payload["optimizer"],
        )
        self.plan = payload.get("faults")
        self.heartbeat_interval = float(payload.get("heartbeat_interval", 0.2))

    # ------------------------------------------------------------------ #
    def serve(self, sock: socket.socket, log=None) -> str:
        """Drive one connected session; returns why it ended.

        ``"shutdown"`` — scheduler told us to exit; ``"drop"`` — injected
        connection drop (caller reconnects); ``"eof"`` — peer vanished.
        """
        send_lock = threading.Lock()
        send_frame(
            sock,
            (
                "register",
                self.worker_id,
                os.getpid(),
                self.executor is not None,
                self.weights_version,
            ),
            lock=send_lock,
        )

        # Beat from registration on (a reconnecting worker may get no frame
        # until the next dispatch); an init payload restarts it at its interval.
        def _beat(stop: threading.Event):
            while not stop.wait(self.heartbeat_interval):
                try:
                    send_frame(sock, ("heartbeat", self.worker_id), lock=send_lock)
                except OSError:
                    return

        def _beats() -> threading.Event:  # set the event to stop the thread
            stop = threading.Event()
            threading.Thread(target=_beat, args=(stop,), daemon=True).start()
            return stop

        stop_beats = _beats()
        try:
            while True:
                try:
                    msg = recv_frame(sock)
                except (ConnectionError, FrameError, OSError):
                    return "eof"
                kind = msg[0]
                if kind == "shutdown":
                    return "shutdown"
                if kind == "init":
                    self.install_init(msg[1])
                    stop_beats.set()
                    stop_beats = _beats()
                    if log:
                        log(f"worker {self.worker_id}: initialized")
                    continue
                if kind == "weights":
                    _, version, weights = msg
                    self.weights_version = int(version)
                    w = np.ascontiguousarray(weights)
                    w.flags.writeable = False
                    self.weights = w
                    continue
                if kind == "lease":
                    outcome = self._serve_lease(sock, send_lock, msg, log)
                    if outcome is not None:
                        return outcome
                    continue
                # Unknown frames are ignored (forward compatibility).
        finally:
            stop_beats.set()

    def _serve_lease(self, sock, send_lock, msg, log) -> str | None:
        _, dispatch, chunk, attempt, version, tasks = msg
        key = (int(dispatch), int(chunk), int(attempt))
        try:
            if self.executor is None or self.weights is None or version != self.weights_version:
                raise RuntimeError(f"worker missing weights version {version}")
            outcome = run_attempt(self.executor, self.plan, key, self.weights, tasks)
            reply = ("result", *key, *outcome)
        except ConnectionAbortedError:
            # Injected drop: the scheduler sees EOF and requeues the lease;
            # the caller reconnects and re-registers.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return "drop"
        except Exception as exc:  # deterministic task bug — report, don't die
            reply = ("error", *key, f"{type(exc).__name__}: {exc}")
        try:
            send_frame(sock, reply, lock=send_lock)
        except OSError:
            return "eof"
        if log:
            log(f"worker {self.worker_id}: chunk {chunk} attempt {attempt} {reply[0]}")
        return None


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    reconnect_window: float = 30.0,
    retry_delay: float = 0.2,
    log=None,
) -> int:
    """Run one worker until the scheduler shuts it down.

    Connection losses — scheduler restart, injected ``drop`` faults, plain
    network failure — are retried every ``retry_delay`` seconds until
    ``reconnect_window`` elapses without a successful registration; then
    the worker gives up (exit code 1). A clean ``shutdown`` frame exits 0.
    """
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    core = _WorkerCore(worker_id)
    give_up = time.monotonic() + reconnect_window
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() > give_up:
                if log:
                    log(f"worker {worker_id}: scheduler unreachable, giving up")
                return 1
            time.sleep(retry_delay)
            continue
        sock.settimeout(None)
        # Heartbeats and results are small writes from two threads; with
        # Nagle on, one waits for the other's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            why = core.serve(sock, log)
        except Exception:
            why = "eof"
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if why == "shutdown":
            if log:
                log(f"worker {worker_id}: shutdown")
            return 0
        # Successful session: the reconnect window restarts from now.
        give_up = time.monotonic() + reconnect_window
        time.sleep(retry_delay if why == "eof" else 0.0)
