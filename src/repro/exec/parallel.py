"""Process-pool backend with per-worker model replicas.

Each pool worker holds one structural clone of the worker model
(:meth:`Sequential.clone`) plus latency-model-free client replicas
(:meth:`SimClient.replica`). A cohort is split into contiguous chunks — one
per worker — and results come back in task order.

The pool is this module's own: ``num_workers`` child processes, each on a
private duplex pipe to the parent. Nothing is shared between workers — no
task queue, no result queue, no lock around either — so a worker can be
killed at any instant (by the supervisor, by the OOM killer) without
stranding anything the others or the parent will later wait on; that is
not true of ``multiprocessing.Pool``, whose ``terminate()`` blocks forever
on a queue lock a killed worker was holding.

A dispatch's ``(S, P)`` stack of start weights travels in every chunk
message, beside the chunk's tasks: the pipe pickles it once per chunk.

Results are bit-identical to the serial backend's (the package contract,
:mod:`repro.exec`; enforced by ``tests/exec/test_equivalence.py``).

Every dispatch is supervised, fault plan or not, by the lease state machine
of :mod:`repro.exec.supervision` — the one the socket scheduler runs on; see
:meth:`ParallelExecutor._supervise` for how the pool feeds it.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np

from repro.exec.base import CohortTask, OptimizerSpec
from repro.exec.faults import run_attempt
from repro.exec.serial import SerialExecutor
from repro.exec.supervision import (
    Dispatch,
    SupervisedExecutor,
    wait_any,
    wait_budget,
    worker_context,
)
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.sim.client import LocalTrainingResult, SimClient

__all__ = ["ParallelExecutor"]


def _worker_main(conn, init_args: tuple, inherited: Sequence = ()) -> None:
    """Pool worker process: serve chunks over its private pipe until EOF.

    Each message is ``(starts, tasks, key)`` and is answered with
    ``((results, checksum), None)`` or ``(None, error)``.
    ``inherited`` are the parent's ends of the pipes that existed when this
    process was forked (its own among them). They are closed first: while a
    child holds a copy, the pipe never reads EOF, and EOF is how a worker
    learns that the parent closed it — or died.
    """
    for other in inherited:
        other.close()
    *replica, plan = init_args
    # One SerialExecutor per worker process: a chunk goes to the same
    # TrainingPlan.run_cohort call the serial backend makes, so the two
    # paths cannot drift apart. Constructing it also compiles the worker
    # replica's fused TrainingPlan (and its scratch arena) once per
    # process, before the first cohort arrives.
    executor = SerialExecutor(*replica)
    while True:
        try:
            starts, tasks, key = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (run_attempt(executor, plan, key, starts, tasks), None)
        except Exception as exc:  # deterministic task bug — report, don't die
            reply = (None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


class _PoolWorker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.name = f"pid {proc.pid}"  # what the lease table knows it by
        self.chunk: int | None = None  # chunk index leased here, else None


class ParallelExecutor(SupervisedExecutor):
    """Fan cohorts out to ``num_workers`` processes (0 → CPU count).

    Takes :class:`~repro.exec.supervision.SupervisedExecutor` 's
    arguments. The worker processes are started lazily on the first cohort
    and torn down by :meth:`close` (systems close their executor when
    ``run()`` returns); a closed executor refuses further cohorts. Every
    dispatch goes through :meth:`_supervise`, fault plan or not.
    """

    name = "parallel"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
        **settings,
    ):
        self._pool: list[_PoolWorker] = []
        super().__init__(model, clients, loss, optimizer, **settings)
        self.num_workers = self.num_workers or os.cpu_count() or 1
        self._ctx = worker_context()

    @property
    def worker_processes(self) -> list:
        """The live worker processes, in slot order (empty before the first
        dispatch); chaos tests reach in here for pids to SIGKILL."""
        return [worker.proc for worker in self._pool]

    # ------------------------------------------------------------------ #
    def _spawn(self) -> _PoolWorker:
        conn, child_conn = self._ctx.Pipe()
        forked = self._ctx.get_start_method() == "fork"
        inherited = [conn, *(w.conn for w in self._pool)] if forked else []
        local = self._local  # workers start from the in-parent replica set
        init_args = (local.model, local.clients, local.loss, local.optimizer, self.faults)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, init_args, inherited),
            daemon=True,
            name="repro-pool-worker",
        )
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, conn)

    def _replace(self, worker: _PoolWorker) -> None:
        """Kill one worker (if it is not dead already) and fill its slot.

        Safe at any instant: a worker shares nothing with its siblings, so
        whatever it was doing, nobody waits on it.
        """
        self.fault_counters["respawns"] += 1
        worker.conn.close()
        worker.proc.kill()
        worker.proc.join()
        self._pool[self._pool.index(worker)] = self._spawn()

    def _discard_pool(self) -> None:
        """Kill every worker (``close()`` and abandoned dispatches only)."""
        pool, self._pool = self._pool, []
        for worker in pool:
            worker.conn.close()
            worker.proc.kill()
        for worker in pool:
            worker.proc.join()

    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        results = self._in_parent(starts, tasks)
        if results is not None:
            return results
        starts = np.ascontiguousarray(starts)
        dispatch = self._begin(tasks, self.num_workers)
        self._supervise(dispatch, starts)
        return self._finish(dispatch, starts, self.num_workers)

    def _supervise(self, dispatch: Dispatch, starts: np.ndarray) -> None:
        """Drive ``dispatch`` to the end over the pool's pipes.

        Each pass: lease pending chunks to idle workers, sleep until a reply
        is ready, a worker is gone or the earliest lease deadline is due
        (never on a tick), and feed what happened to the dispatch's
        transitions. A worker that dies with a chunk in hand (an OOM kill
        needs no injected fault) shows on its process sentinel — a bare
        ``pool.map`` would block on it forever. Recovery is per lease: the
        worker that died, or that sits on an expired lease (a hung worker
        never frees itself), is the one replaced, and only its chunk is
        requeued — its siblings never notice.
        """
        try:
            while len(self._pool) < self.num_workers:
                self._pool.append(self._spawn())
            while not dispatch.finished():
                for worker in self._pool:
                    if worker.chunk is None:
                        lease = dispatch.assign(worker.name, now=time.monotonic())
                        if lease is None:
                            break
                        worker.chunk = lease.chunk
                        key = (dispatch.seq, lease.chunk, lease.attempts - 1)
                        try:
                            worker.conn.send((starts, dispatch.chunks[lease.chunk], key))
                        except OSError:
                            pass  # it died idle; its sentinel says so below
                busy = [w.conn for w in self._pool if w.chunk is not None]
                sentinels = [w.proc.sentinel for w in self._pool]
                timeout = wait_budget([dispatch.next_deadline()], time.monotonic())
                ready = wait_any(busy + sentinels, timeout)
                for worker in list(self._pool):
                    dead = worker.proc.sentinel in ready
                    if worker.conn in ready:
                        # The reply before the death: it may have answered
                        # and then died.
                        try:
                            reply, error = worker.conn.recv()
                        except (EOFError, OSError):
                            dead = True  # EOF where a reply should be
                        else:
                            chunk, worker.chunk = worker.chunk, None
                            if error is not None:
                                dispatch.error(chunk, worker.name, f"worker raised {error}")
                            else:
                                dispatch.result(chunk, worker.name, *reply)
                    if dead:
                        self.fault_counters["worker_deaths"] += 1
                        if worker.chunk is not None:
                            dispatch.lost(worker.chunk, worker.name, "worker died mid-chunk")
                        self._replace(worker)
                for lease in dispatch.expire(time.monotonic()):
                    self._replace(next(w for w in self._pool if w.chunk == lease.chunk))
        except BaseException:
            # Whatever is still in flight would answer into the next
            # dispatch: an abandoned dispatch takes its workers with it.
            self._discard_pool()
            raise

    def close(self) -> None:
        self._closed = True
        self._discard_pool()
