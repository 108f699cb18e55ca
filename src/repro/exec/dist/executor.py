"""The cross-process executor: socket scheduler + worker processes.

:class:`DistExecutor` implements the :class:`~repro.exec.base.ClientExecutor`
protocol over a scheduler/worker topology: the executor owns a
:class:`~repro.exec.dist.scheduler.Scheduler` (start weights + chunk lease
queue) and workers — local child processes or external ``repro worker``
processes on other machines — dial in, register, heartbeat, and execute
leases. It serves both ``executor="dist"`` and ``executor="parallel"``.

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
from typing import Sequence

import numpy as np

from repro.exec.base import CohortTask, OptimizerSpec
from repro.exec.dist.scheduler import Scheduler
from repro.exec.dist.worker import parse_address, run_worker
from repro.exec.supervision import SupervisedExecutor, wait_any, worker_context
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


class DistExecutor(SupervisedExecutor):
    """Lease-supervised dispatch to socket-connected workers.

    Takes :class:`~repro.exec.supervision.SupervisedExecutor` 's arguments;
    of the settings, the network layer reads ``dist_bind`` (scheduler
    address), ``heartbeat_interval`` / ``heartbeat_timeout`` (liveness), and
    ``worker_grace`` (how long a dispatch tolerates an empty worker roster
    before degrading). ``num_workers`` is the chunk count and the number of
    local workers forked; 0 cuts ``DEFAULT_CHUNKS`` chunks and forks one
    worker per CPU.
    """

    name = "dist"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
        **settings,
    ):
        #: Locally spawned worker processes (self-contained mode); chaos
        #: tests reach in here for pids to SIGKILL/SIGSTOP.
        self.worker_processes: list = []
        self._scheduler = None
        super().__init__(model, clients, loss, optimizer, **settings)
        self.num_chunks = self.num_workers or DEFAULT_CHUNKS
        # The network layer's own events (remote workers respawn themselves
        # by reconnecting, so ``respawns`` stays a count of local processes).
        self.fault_counters.update(heartbeat_misses=0, reconnects=0, steals=0)
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
        )
        self._scheduler.start(init_payload)
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

    def _reap_and_respawn(self) -> None:
        """Kill wedged local workers; replace dead ones (self-contained mode).

        The scheduler recovers a *chunk* on its own (the lease requeues),
        but a crashed local *process* would otherwise be gone for the rest
        of the run — shrinking the roster until every dispatch pays the
        no-worker grace — and a hung one would sleep on, heartbeating,
        while holding a slot. Workers the scheduler dropped on an expired
        lease are killed and joined first, so their replacements are
        counted here, within the dispatch that expired them. External
        workers are their own problem: their host restarts them and they
        reconnect.

        Death is read off the process sentinels, not ``is_alive()``: a
        sentinel is readable from the moment the dying process's
        descriptors close — the same moment the scheduler sees its EOF —
        while ``waitpid`` can still report a SIGKILLed process as running
        for as long as the kernel takes to finish it off.
        """
        wedged = self._scheduler.wedged
        while wedged:
            pid = wedged.popleft()
            for proc in self.worker_processes:
                if proc.pid == pid:
                    proc.kill()
                    proc.join()
        if not self.worker_processes:
            return
        gone = wait_any([p.sentinel for p in self.worker_processes], timeout=0)
        if not gone:
            return
        alive = []
        for proc in self.worker_processes:
            if proc.sentinel in gone:
                proc.join()  # a closed sentinel means exit is under way: reap it
                self._scheduler.owned.discard(proc.pid)
            else:
                alive.append(proc)
        self.worker_processes = alive
        self.fault_counters["respawns"] += len(gone)
        self._spawn_local(len(gone))

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers are registered (or timeout).

        Returns the live count. Dispatch does not require this — the
        scheduler queues leases until workers appear — but scripts that
        kill specific workers want a deterministic starting roster.
        """
        return self._scheduler.wait_for_workers(count, timeout)

    # ------------------------------------------------------------------ #
    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        results = self._in_parent(starts, tasks)
        if results is not None:
            return results
        starts = np.ascontiguousarray(starts)
        dispatch = self._begin(tasks, self.num_chunks)
        done = self._scheduler.submit(dispatch, self._scheduler.publish_weights(starts))
        channel = self._scheduler.done_channel
        while not done.is_set():
            # Sleep until the job resolves, a local worker process dies (or
            # died between dispatches, unwatched) or the scheduler drops a
            # wedged one — the lease layer recovers the chunk, this loop
            # the roster.
            ready = wait_any([channel, *(p.sentinel for p in self.worker_processes)])
            if channel in ready:
                channel.drain()
            self._reap_and_respawn()
        # A worker dropped or dead as the job resolved is replaced now, so
        # what this dispatch cost is counted before it returns.
        self._reap_and_respawn()
        roster = len(self.worker_processes) or self._scheduler.live_workers
        return self._finish(dispatch, starts, roster)

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
