"""The cross-process executor: socket scheduler + worker processes.

:class:`DistExecutor` implements the :class:`~repro.exec.base.ClientExecutor`
protocol over a scheduler/worker topology: the executor owns a
:class:`~repro.exec.dist.scheduler.Scheduler` (start weights + chunk lease
queue) and workers — local child processes or external ``repro worker``
processes on other machines — dial in, register, heartbeat, and execute
leases. It is what ``executor="dist"`` builds, and it is the whole parent
side: settings, recovery counters, an in-parent
:class:`~repro.exec.serial.SerialExecutor` for small cohorts and degraded
chunks, and each :class:`~repro.exec.supervision.Dispatch`'s degrade-or-raise.

The parent runs one thread. ``run_cohort`` drives the scheduler's passes
itself until its dispatch resolves, watching its local workers' process
sentinels in the same ``select``, and replaces a worker whose sentinel
fires between passes; an exception raised in a pass is ``run_cohort``'s
own. Between dispatches nobody drives, and nothing is lost by that: each
drive first reads what the sockets buffered meanwhile.

The bit-identity contract is the package's (:mod:`repro.exec`) and holds
across any worker count, arrival order, mid-round kill, or injected fault
schedule: chunk boundaries depend only on ``num_workers`` — never on how
many workers happen to be connected, nor on the host's CPU count — so
faults cost wall-clock and recovery counters, never history bits.

Deployment modes, chosen by the bind address:

- **self-contained** (``bind`` port 0, the default): the executor picks an
  ephemeral port and forks its own local worker processes, kills any of
  them found sitting on an expired lease, and replaces every one that dies;
  the ``Process`` handles are exposed for chaos tests to SIGKILL/SIGSTOP;
- **external** (explicit port): the executor only listens; start workers
  with ``repro worker --connect HOST:PORT`` wherever you like.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

import numpy as np

from repro.exec.base import ClientExecutor, CohortTask, ExecConfig, OptimizerSpec
from repro.exec.dist.scheduler import Scheduler
from repro.exec.dist.worker import parse_address, run_worker
from repro.exec.faults import ExecutorFaultError, FaultPlan
from repro.exec.serial import SerialExecutor
from repro.exec.supervision import Dispatch, chunk_tasks, worker_context
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

    ``**settings`` are :class:`~repro.exec.base.ExecConfig` fields other
    than ``executor``, declared, defaulted and checked there only
    (``config``).
    ``num_workers`` is the chunk count and the number of local workers
    forked; 0 cuts ``DEFAULT_CHUNKS`` chunks and forks one per CPU. The
    network layer reads ``dist_bind`` (scheduler address),
    ``heartbeat_interval`` / ``heartbeat_timeout`` (liveness), and
    ``worker_grace`` (how long a dispatch tolerates an empty roster).
    """

    name = "dist"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
        *,
        faults: FaultPlan | None = None,
        **settings,
    ):
        #: Locally spawned worker processes (self-contained mode); chaos
        #: tests reach in here for pids to SIGKILL/SIGSTOP.
        self.worker_processes: list = []
        self._scheduler = None
        self._closed = False
        self.config = ExecConfig(executor=self.name, **settings)
        self.num_workers = self.config.num_workers
        self.num_chunks = self.num_workers or DEFAULT_CHUNKS
        self.faults = faults
        self._dispatch_seq = 0
        #: Recovery telemetry, cumulative across the run; the system layer
        #: publishes a snapshot into ``history.meta["faults"]``. ``respawns``
        #: counts replaced *local* worker processes; remote workers respawn
        #: themselves by reconnecting.
        self.fault_counters: dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "respawns": 0,
            "worker_deaths": 0,
            "corrupt_detected": 0,
            "worker_errors": 0,
            "degraded_chunks": 0,
            "heartbeat_misses": 0,
            "reconnects": 0,
            "steals": 0,
        }
        # Cohorts below this size skip dispatch and run in-process (a lone
        # client — a sync round of one, an async relaunch its flush caught
        # alone — pays a full IPC round-trip for zero parallelism
        # otherwise). Bit-identical either way, since a round is a function of
        # its start row and task alone, so the path choice is unobservable.
        self.min_dispatch = 2
        # Clients carry data only, so the system's own client collection
        # ships as it is: a materialized population's list, or a virtual
        # population's store (which arrives at a worker with an empty cache).
        # The in-process executor trains from it too: sub-min_dispatch
        # cohorts and degraded chunks run here.
        self._local = SerialExecutor(model.clone(), clients, loss, optimizer)
        init_payload = {
            "model": self._local.model,
            "clients": self._local.clients,
            "loss": loss,
            "optimizer": optimizer,
            "faults": self.faults,
            "heartbeat_interval": self.config.heartbeat_interval,
        }
        host, port = parse_address(self.config.dist_bind)
        self._scheduler = Scheduler(
            bind=(host, port),
            heartbeat_timeout=self.config.heartbeat_timeout,
            worker_grace=self.config.worker_grace,
            counters=self.fault_counters,
            init_payload=init_payload,
        )
        if port == 0:
            # Ephemeral port ⇒ nobody external can have been told where to
            # connect: this run owns its workers. Explicit port ⇒ external
            # `repro worker` processes are expected and we spawn none.
            self._spawn_local(self.num_workers or os.cpu_count() or 1)

    # ------------------------------------------------------------------ #
    def _spawn_local(self, count: int) -> None:
        host, port = self._scheduler.address
        ctx = worker_context()
        inherited = self._scheduler if ctx.get_start_method() == "fork" else None
        for _ in range(count):
            proc = ctx.Process(
                target=_local_worker_entry,
                args=(host, port, self.config.worker_grace, inherited),
                daemon=True,
                name="repro-dist-worker",
            )
            proc.start()
            self.worker_processes.append(proc)
            self._scheduler.owned.add(proc.pid)

    def _reap_and_respawn(self, fired: list[int]) -> None:
        """Kill wedged local workers; replace dead ones (self-contained mode).

        The scheduler recovers a *chunk* on its own (the lease requeues),
        but a crashed local *process* would otherwise be gone for the rest
        of the run — shrinking the roster until every dispatch pays the
        no-worker grace — and a hung one would sleep on, heartbeating,
        while holding a slot. Workers the scheduler dropped on an expired
        lease are killed here, so their replacements are counted within the
        dispatch that expired them. External workers are their own problem:
        their host restarts them and they reconnect.

        Death is read off the process sentinels that ``fired`` in the
        scheduler's ``select``, not off ``is_alive()``: a sentinel is
        readable from the moment the dying process's descriptors close —
        the same moment the scheduler sees its EOF — while ``waitpid`` can
        still report a SIGKILLed process as running for as long as the
        kernel takes to finish it off.
        """
        gone = set(fired)
        wedged = self._scheduler.wedged
        for proc in self.worker_processes:
            if proc.pid in wedged:
                proc.kill()
                gone.add(proc.sentinel)
        wedged.clear()
        if not gone:
            return
        alive = []
        for proc in self.worker_processes:
            if proc.sentinel in gone:
                proc.join()  # a closed sentinel means exit is under way: reap it
                self._scheduler.owned.discard(proc.pid)
            else:
                alive.append(proc)
        respawns = len(self.worker_processes) - len(alive)
        self.worker_processes = alive
        self.fault_counters["respawns"] += respawns
        self._spawn_local(respawns)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Drive the scheduler until ``count`` workers are registered (or
        timeout).

        Returns the live count. Dispatch does not require this — the
        scheduler queues leases until workers appear — but scripts that
        kill specific workers want a deterministic starting roster.
        """
        return self._scheduler.wait_for_workers(count, timeout)

    # ------------------------------------------------------------------ #
    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        if self._closed:
            raise RuntimeError(f"executor {self.name!r} is closed")
        if len(tasks) < max(self.min_dispatch, 1):
            # Outside the fault domain: injections model worker and network
            # infrastructure, and there is none here.
            return self._local.run_cohort(starts, tasks)
        starts = np.ascontiguousarray(starts)
        dispatch = Dispatch(
            self._dispatch_seq,
            chunk_tasks(tasks, self.num_chunks),
            retry_budget=self.config.chunk_retries,
            timeout=self.config.chunk_timeout,
            counters=self.fault_counters,
        )
        self._dispatch_seq += 1
        scheduler = self._scheduler
        scheduler.begin(dispatch, starts)
        while not dispatch.finished():
            # Drive until the dispatch resolves, a local worker process dies
            # (or died between dispatches, unwatched) or the scheduler drops
            # a wedged one — the lease layer recovers the chunk, this loop
            # the roster. A worker dropped or dead as the dispatch resolved
            # is replaced before it returns, so what it cost is counted.
            fired = scheduler.drive(
                lambda: dispatch.finished() or bool(scheduler.wedged),
                sentinels=[p.sentinel for p in self.worker_processes],
            )
            self._reap_and_respawn(fired)
        roster = len(self.worker_processes) or scheduler.live_workers
        return self._finish(dispatch, starts, roster)

    def _finish(self, dispatch: Dispatch, starts: np.ndarray, live_workers: int) -> list:
        """Flatten a finished dispatch; degrade or raise on failed chunks."""
        out: list = []
        for lease, chunk, results in zip(dispatch.leases, dispatch.chunks, dispatch.results):
            if not lease.done:
                tries = "; ".join(
                    f"attempt {n} on {who or 'no worker'}: {what}" for n, who, what in lease.history
                )
                reason = lease.failed_reason + (f" [{tries}]" if tries else "")
                if not self.config.fault_degrade:
                    raise ExecutorFaultError(
                        executor=self.name,
                        chunk=lease.chunk,
                        chunk_size=len(chunk),
                        num_workers=live_workers,
                        attempts=lease.attempts,
                        retry_budget=self.config.chunk_retries,
                        counters=self.fault_counters,
                        reason=reason,
                    )
                self.fault_counters["degraded_chunks"] += 1
                warnings.warn(
                    f"executor {self.name!r}: chunk {lease.chunk} exhausted its retry "
                    f"budget ({reason}); degrading to in-process serial "
                    "execution for this chunk",
                    RuntimeWarning,
                    stacklevel=3,
                )
                results = self._local.run_cohort(starts, chunk)
            out.extend(results)
        return out

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        exiting = self._scheduler.shutdown() if self._scheduler is not None else frozenset()
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
