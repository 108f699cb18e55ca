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

Broadcast path: a dispatch's ``(S, P)`` stack of start weights is written
**once** into a POSIX shared-memory segment and workers attach read-only,
so dispatching a cohort ships only the segment name per chunk instead of
re-pickling the stack into every pool message. The segment is allocated
lazily, replaced by a larger one when a dispatch brings more start rows
than it holds, reused otherwise (``run_cohort`` returns only once every
chunk is resolved, so dispatches never race on it), and unlinked at
:meth:`close`.
When the segment cannot be created — platform without ``/dev/shm``,
permissions, quota — dispatch falls back to pickling the weights into every
chunk message; both paths hand workers the same bytes, so results are
bit-identical either way.

Results are bit-identical to the serial backend's (the package contract,
:mod:`repro.exec`; enforced by ``tests/exec/test_equivalence.py``). Models
whose layers carry hidden cross-call state cannot satisfy it; for those the
executor degrades to the serial path and records why.

Every dispatch is supervised, fault plan or not, by the lease state machine
of :mod:`repro.exec.supervision` — the one the socket scheduler runs on; see
:meth:`ParallelExecutor._supervise` for how the pool feeds it.
"""

from __future__ import annotations

import atexit
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

#: Broadcast segments owned by this (parent) process. ``close()`` unlinks
#: its executor's segment, but an abnormal exit — unhandled exception, a
#: driver that never calls close — used to leave the segment dangling in
#: /dev/shm until reboot. The atexit guard sweeps whatever is still
#: registered; `_release_shm` unregisters on the normal path so the sweep
#: is a no-op there.
_SHM_REGISTRY: dict[str, object] = {}
_SHM_GUARD_INSTALLED = False


def _sweep_shm_registry() -> None:
    for shm in list(_SHM_REGISTRY.values()):
        try:
            shm.close()
            shm.unlink()
        except Exception:  # pragma: no cover - best-effort at interpreter exit
            pass
    _SHM_REGISTRY.clear()


def _register_shm(shm) -> None:
    global _SHM_GUARD_INSTALLED
    if not _SHM_GUARD_INSTALLED:
        atexit.register(_sweep_shm_registry)
        _SHM_GUARD_INSTALLED = True
    _SHM_REGISTRY[shm.name] = shm


def _unregister_shm(shm) -> None:
    _SHM_REGISTRY.pop(shm.name, None)


def _attach_shared(cache: dict, name: str, dtype: str, shape: tuple) -> np.ndarray:
    """Map the broadcast segment read-only, caching the attachment.

    The parent owns the segment's lifetime; the worker must neither unlink
    it nor let its resource tracker claim it (attaching registers with the
    tracker on CPython <= 3.12, which would spew spurious leak warnings at
    worker exit). Registration is suppressed *during* attach rather than
    undone after: with fork all workers share the parent's tracker, and
    register/unregister pairs from concurrent worker generations interleave
    into spurious KeyError noise in the tracker process otherwise.
    """
    shm = cache.get(name)
    if shm is None:
        from multiprocessing import resource_tracker, shared_memory

        # A new name means the parent replaced (and unlinked) the segment:
        # unmap the old one rather than pin it for the worker's lifetime.
        for old in cache.values():
            old.close()
        cache.clear()

        orig_register = resource_tracker.register

        def _no_register(rname, rtype):  # pragma: no cover - CPython detail
            if rtype != "shared_memory":
                orig_register(rname, rtype)

        resource_tracker.register = _no_register
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register
        cache[name] = shm
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    arr.flags.writeable = False
    return arr


def _worker_main(conn, init_args: tuple, inherited: Sequence = ()) -> None:
    """Pool worker process: serve chunks over its private pipe until EOF.

    Each message is ``(header, tasks, key)`` and is answered with
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
    segments: dict = {}
    while True:
        try:
            header, tasks, key = conn.recv()
        except (EOFError, OSError):
            return
        try:
            if header[0] == "shm":
                starts = _attach_shared(segments, *header[1:])
            else:
                starts = header[1]
            reply = (run_attempt(executor, plan, key, starts, tasks), None)
        except Exception as exc:  # deterministic task bug — report, don't die
            reply = (None, f"{type(exc).__name__}: {exc}")
        # No view of a segment outlives its chunk, so a replaced one unmaps.
        starts = None
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

    Takes :class:`~repro.exec.supervision.SupervisedExecutor` 's knobs
    (``num_workers``, ``faults``, ``chunk_timeout``, ``chunk_retries``,
    ``degrade``) plus ``start_method``. The worker processes are started
    lazily on the first cohort and torn down by :meth:`close` (systems
    close their executor when ``run()`` returns); a closed executor refuses
    further cohorts. Every dispatch goes through :meth:`_supervise`, fault
    plan or not.
    Start weights travel through a shared-memory segment, degrading to
    pickled dispatch when the platform cannot provide one
    (``shm_fallback_reason`` records why).
    """

    name = "parallel"

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[SimClient],
        loss: Loss,
        optimizer: OptimizerSpec,
        *,
        start_method: str | None = None,
        **supervision,
    ):
        self._pool: list[_PoolWorker] = []
        self._shm = None
        self.shm_fallback_reason: str | None = None
        super().__init__(model, clients, loss, optimizer, **supervision)
        self.num_workers = self.num_workers or os.cpu_count() or 1
        self._ctx = worker_context(start_method)

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
        whatever it was doing, nobody waits on it. (The broadcast segment is
        parent-owned and survives; the fresh worker re-attaches to it.)
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

    def _broadcast_header(self, starts: np.ndarray) -> tuple:
        """Publish the dispatch's start weights; return the per-chunk header.

        Shared-memory path: one ``copyto`` into the (lazily created,
        reused, grown when too small) segment, header carries only
        ``(name, dtype, shape)``. Fallback: the weights themselves travel
        in the header and get pickled once per chunk.
        """
        if self._shm is not None and self._shm.size < starts.nbytes:
            self._release_shm()
        if self._shm is None and self.shm_fallback_reason is None:
            try:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(create=True, size=starts.nbytes)
                _register_shm(self._shm)
            except Exception as exc:  # no /dev/shm, permissions, quota ...
                self.shm_fallback_reason = (
                    f"shared-memory broadcast unavailable ({exc!r}); "
                    "falling back to pickled start-weight dispatch"
                )
        if self._shm is not None:
            view = np.ndarray(starts.shape, dtype=starts.dtype, buffer=self._shm.buf)
            np.copyto(view, starts)
            return ("shm", self._shm.name, starts.dtype.str, starts.shape)
        return ("pickle", starts)

    def _release_shm(self) -> None:
        if self._shm is not None:
            _unregister_shm(self._shm)
            try:
                self._shm.close()
                self._shm.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            self._shm = None

    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        results = self._in_parent(starts, tasks)
        if results is not None:
            return results
        starts = np.ascontiguousarray(starts)
        dispatch = self._begin(tasks, self.num_workers)
        self._supervise(dispatch, self._broadcast_header(starts))
        return self._finish(dispatch, starts, self.num_workers)

    def _supervise(self, dispatch: Dispatch, header: tuple) -> None:
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
                            worker.conn.send((header, dispatch.chunks[lease.chunk], key))
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
        self._release_shm()
