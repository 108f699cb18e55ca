"""Distributed executor: socket scheduler + worker processes.

:class:`DistExecutor` implements the :class:`~repro.exec.base.ClientExecutor`
protocol over a scheduler/worker topology instead of an ``mp.Pool``: the
executor owns a :class:`~repro.exec.dist.scheduler.Scheduler` (global
weights + chunk lease queue) and workers — local child processes or
external ``repro worker`` processes on other machines — dial in, register,
heartbeat, and execute leases.

Bit-identity contract (the same one the pool honors): tasks carry explicit
batch cursors and pre-sampled latencies, chunk boundaries depend only on
``num_workers`` (never on how many workers happen to be connected), and
chunk execution is deterministic — so histories match ``SerialExecutor``
byte for byte across any worker count, arrival order, mid-round kill, or
injected fault schedule. Faults cost wall-clock and recovery counters,
never history bits.

Deployment modes, chosen by the bind address:

- **self-contained** (``bind`` port 0, the default): the executor picks an
  ephemeral port and forks its own local worker processes — drop-in for
  ``executor="parallel"``, plus the spawned ``Process`` handles are exposed
  for chaos tests to SIGKILL/SIGSTOP;
- **external** (explicit port): the executor only listens; start workers
  with ``repro worker --connect HOST:PORT`` wherever you like.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from typing import Sequence

import numpy as np

from repro.exec.base import ClientExecutor, CohortTask, OptimizerSpec
from repro.exec.dist.leases import chunk_tasks
from repro.exec.dist.scheduler import Scheduler
from repro.exec.dist.worker import parse_address, run_worker
from repro.exec.faults import ExecutorFaultError, FaultPlan
from repro.exec.serial import SerialExecutor
from repro.exec.supervision import wait_any
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.sim.client import LocalTrainingResult, SimClient

__all__ = ["DistExecutor"]

#: Chunk count when ``num_workers`` is 0. Deliberately a constant, not the
#: live connection count: fault keys include the chunk index, so the chunk
#: layout must be a pure function of the config.
DEFAULT_CHUNKS = 4


def _local_worker_entry(
    host: str, port: int, reconnect_window: float, inherited: Scheduler | None
) -> None:
    """Child-process entry point (module-level for spawn-safety).

    ``inherited`` is the parent's scheduler when this process was forked
    from it (a spawned child inherits nothing and gets ``None``).
    """
    if inherited is not None:
        inherited.close_inherited()
    raise SystemExit(run_worker(host, port, reconnect_window=reconnect_window))


class DistExecutor(ClientExecutor):
    """Lease-supervised dispatch to socket-connected workers.

    Knobs mirror :class:`~repro.exec.parallel.ParallelExecutor` where the
    semantics coincide (``faults``, ``chunk_timeout``, ``chunk_retries``,
    ``degrade``) and add the network layer's own: ``bind`` (scheduler
    address), ``heartbeat_interval`` / ``heartbeat_timeout`` (liveness),
    and ``worker_grace`` (how long a dispatch tolerates an empty worker
    pool before degrading).
    """

    name = "dist"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
        *,
        num_workers: int = 0,
        faults: FaultPlan | None = None,
        chunk_timeout: float | None = None,
        chunk_retries: int = 3,
        degrade: bool = True,
        bind: str = "127.0.0.1:0",
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 2.0,
        worker_grace: float = 30.0,
    ):
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be positive, got {heartbeat_interval}")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({heartbeat_timeout} <= {heartbeat_interval})"
            )
        if worker_grace <= 0:
            raise ValueError(f"worker_grace must be positive, got {worker_grace}")
        self.num_chunks = num_workers if num_workers > 0 else DEFAULT_CHUNKS
        self.faults = faults
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries
        self.degrade = degrade
        self.heartbeat_interval = float(heartbeat_interval)
        self.worker_grace = float(worker_grace)
        self._dispatch_seq = 0
        self._closed = False
        self._fallback: SerialExecutor | None = None
        self.fallback_reason: str | None = None
        #: Recovery telemetry, cumulative across the run; the system layer
        #: publishes a snapshot into ``history.meta["faults"]``. The pool's
        #: keys (``respawns`` counts replaced *local* worker processes —
        #: remote workers respawn themselves by reconnecting) plus the
        #: network layer's own events.
        self.fault_counters: dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "respawns": 0,
            "worker_deaths": 0,
            "heartbeat_misses": 0,
            "corrupt_detected": 0,
            "worker_errors": 0,
            "degraded_chunks": 0,
            "reconnects": 0,
            "steals": 0,
        }
        # Same in-parent fast path as the pool: singleton cohorts (the async
        # baselines' steady state) skip dispatch entirely.
        self.min_dispatch = 2
        #: Locally spawned worker processes (self-contained mode); chaos
        #: tests reach in here for pids to SIGKILL/SIGSTOP.
        self.worker_processes: list = []
        if not model.replica_safe:
            self.fallback_reason = (
                f"model {model.name!r} has layers with cross-call state "
                "(dropout RNG / batch-norm statistics); falling back to "
                "serial execution to preserve bit-identical histories"
            )
            warnings.warn(self.fallback_reason, RuntimeWarning, stacklevel=2)
            self._fallback = SerialExecutor(model, clients, loss, optimizer)
            self._scheduler = None
            return
        if hasattr(clients, "replicas"):
            replicas = clients.replicas()
        else:
            replicas = {c.client_id: c.replica() for c in clients}
        # In-process executor over the same replica set: sub-min_dispatch
        # cohorts and degraded chunks run here, bit-identical by contract.
        self._local = SerialExecutor(model.clone(), replicas, loss, optimizer)
        init_payload = {
            "model": model.clone(),
            "clients": replicas,
            "loss": loss,
            "optimizer": optimizer,
            "faults": faults,
            "heartbeat_interval": self.heartbeat_interval,
        }
        host, port = parse_address(bind)
        self._scheduler = Scheduler(
            bind=(host, port),
            heartbeat_timeout=heartbeat_timeout,
            worker_grace=worker_grace,
            counters=self.fault_counters,
        )
        self._scheduler.start(init_payload)
        if port == 0:
            # Ephemeral port ⇒ nobody external can have been told where to
            # connect: this run owns its workers. Explicit port ⇒ external
            # `repro worker` processes are expected and we spawn none.
            self._spawn_local(num_workers if num_workers > 0 else (os.cpu_count() or 1))

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The scheduler's bound ``(host, port)``."""
        if self._scheduler is None:
            raise RuntimeError(f"executor fell back to serial: {self.fallback_reason}")
        return self._scheduler.address

    @property
    def live_workers(self) -> int:
        return 0 if self._scheduler is None else self._scheduler.live_workers

    def _spawn_local(self, count: int) -> None:
        host, port = self._scheduler.address
        # fork shares the parent's address space (cheap replica setup) but is
        # only reliably safe on Linux — same platform reasoning as the pool.
        ctx = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
        inherited = self._scheduler if ctx.get_start_method() == "fork" else None
        for _ in range(count):
            proc = ctx.Process(
                target=_local_worker_entry,
                args=(host, port, self.worker_grace, inherited),
                daemon=True,
                name="repro-dist-worker",
            )
            proc.start()
            self.worker_processes.append(proc)

    def _reap_and_respawn(self) -> None:
        """Replace dead local worker processes (self-contained mode only).

        The pool supervisor respawns a crashed worker as part of recovering
        its chunk; here the scheduler recovers the *chunk* on its own (the
        lease requeues), but a crashed local *process* would otherwise be
        gone for the rest of the run — shrinking the roster until every
        dispatch pays the no-worker grace. External workers are their own
        problem: their host restarts them and they reconnect.

        Death is read off the process sentinels, not ``is_alive()``: a
        sentinel is readable from the moment the dying process's
        descriptors close — the same moment the scheduler sees its EOF —
        while ``waitpid`` can still report a SIGKILLed process as running
        for as long as the kernel takes to finish it off.
        """
        if self._closed or not self.worker_processes:
            return
        gone = wait_any([p.sentinel for p in self.worker_processes], timeout=0)
        if not gone:
            return
        alive = []
        for proc in self.worker_processes:
            if proc.sentinel in gone:
                proc.join()  # a closed sentinel means exit is under way: reap it
            else:
                alive.append(proc)
        self.worker_processes = alive
        self.fault_counters["respawns"] += len(gone)
        self._spawn_local(len(gone))

    def spawn_worker(self) -> None:
        """Add one more local worker process (test/chaos hook)."""
        if self._scheduler is None:
            raise RuntimeError(f"executor fell back to serial: {self.fallback_reason}")
        self._spawn_local(1)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers are registered (or timeout).

        Returns the live count. Dispatch does not require this — the
        scheduler queues leases until workers appear — but scripts that
        kill specific workers want a deterministic starting roster.
        """
        if self._scheduler is None:
            return 0
        return self._scheduler.wait_for_workers(count, timeout)

    # ------------------------------------------------------------------ #
    def run_cohort(
        self, start_weights: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        if self._fallback is not None:
            return self._fallback.run_cohort(start_weights, tasks)
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) < self.min_dispatch:
            # In-parent fast path, outside the fault domain — injections
            # model worker/network infrastructure and there is none here.
            return self._local.run_cohort(start_weights, tasks)
        start_weights = np.ascontiguousarray(start_weights)
        # Repair the local roster before dispatching, not just while
        # waiting: a worker killed between dispatches dies while nobody is
        # watching its sentinel.
        self._reap_and_respawn()
        chunks = chunk_tasks(tasks, self.num_chunks)
        dispatch = self._dispatch_seq
        self._dispatch_seq += 1
        version = self._scheduler.publish_weights(start_weights)
        job = self._scheduler.submit(
            dispatch,
            chunks,
            version,
            retry_budget=self.chunk_retries,
            timeout=self.chunk_timeout,
        )
        while not job.done.is_set():
            # Sleep until the job resolves or a local worker process dies —
            # the lease layer recovers the chunk, this loop the roster.
            ready = wait_any(
                [self._scheduler.done_channel, *(p.sentinel for p in self.worker_processes)]
            )
            if self._scheduler.done_channel in ready:
                self._scheduler.done_channel.drain()
            else:
                self._reap_and_respawn()
        out: list[LocalTrainingResult] = []
        for idx, chunk in enumerate(chunks):
            if job.results[idx] is not None:
                out.extend(job.results[idx])
                continue
            lease = job.table.leases[idx]
            reason = lease.failed_reason or "chunk unresolved"
            if not self.degrade:
                raise ExecutorFaultError(
                    executor=self.name,
                    chunk=idx,
                    chunk_size=len(chunk),
                    num_workers=self.live_workers,
                    attempts=lease.attempts,
                    retry_budget=self.chunk_retries,
                    counters=self.fault_counters,
                    reason=reason,
                )
            self.fault_counters["degraded_chunks"] += 1
            warnings.warn(
                f"executor {self.name!r}: chunk {idx} exhausted its retry "
                f"budget ({reason}); degrading to in-process serial "
                "execution for this chunk",
                RuntimeWarning,
                stacklevel=2,
            )
            out.extend(self._local.run_cohort(start_weights, chunk))
        return out

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        exiting = self._scheduler.stop() if self._scheduler is not None else frozenset()
        # A worker that was not told to exit — it never dialled in, or it is
        # wedged on a lease — would sit out its whole reconnect window.
        for proc in self.worker_processes:
            if proc.pid not in exiting:
                proc.terminate()
        for proc in self.worker_processes:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self.worker_processes = []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
