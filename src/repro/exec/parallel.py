"""Process-pool backend with per-worker model replicas.

Each pool worker holds one structural clone of the worker model
(:meth:`Sequential.clone`) plus latency-model-free client replicas
(:meth:`SimClient.replica`). A cohort is split into contiguous chunks — one
per busy worker — and results come back in task order.

The pool is this module's own: ``num_workers`` child processes, each on a
private duplex pipe to the parent. Nothing is shared between workers — no
task queue, no result queue, no lock around either — so a worker can be
killed at any instant (by the supervisor, by the OOM killer) without
stranding anything the others or the parent will later wait on; that is
not true of ``multiprocessing.Pool``, whose ``terminate()`` blocks forever
on a queue lock a killed worker was holding.

Broadcast path: the round's start-weight vector is written **once** into a
POSIX shared-memory segment and workers attach read-only, so dispatching a
cohort ships only the segment name per chunk instead of re-pickling the
full float vector into every pool message. The segment is allocated lazily
at the model's flat size, reused round after round (``run_cohort`` returns
only once every chunk is resolved, so rounds never race on it), and
unlinked at :meth:`close`.
When the segment cannot be created — platform without ``/dev/shm``,
permissions, quota — dispatch falls back to pickling the weights into every
chunk message; both paths hand workers the same bytes, so results are
bit-identical either way.

Bit-identical guarantee: tasks carry explicit batch-schedule cursors and
pre-sampled latencies, local training consumes no RNG, and every float op
runs on the same NumPy substrate — so replica results match the shared
serial model exactly (enforced by ``tests/exec/test_equivalence.py``).
Models whose layers carry hidden cross-call state (dropout RNG streams,
batch-norm running statistics) cannot satisfy that guarantee; for those the
executor degrades to the serial path and records why.

Every dispatch is supervised, fault plan or not: a worker that dies with a
chunk in hand (an OOM kill needs no injected fault) is noticed through its
process sentinel, the pool is rebuilt and the chunk redispatched — a bare
``pool.map`` would block on it forever. The supervisor sleeps in one wait
over the busy workers' pipes, every worker's sentinel, and the distance to
the earliest chunk deadline; it never polls.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import time
import warnings
from typing import Sequence

import numpy as np

from repro.exec.base import ClientExecutor, CohortTask, OptimizerSpec
from repro.exec.faults import (
    ExecutorFaultError,
    FaultPlan,
    chunk_checksum,
    corrupt_results,
)
from repro.exec.serial import SerialExecutor
from repro.exec.supervision import wait_any, wait_budget
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.sim.client import LocalTrainingResult, SimClient

__all__ = ["ParallelExecutor"]

#: Per-process worker state, populated by the pool initializer.
_WORKER: dict = {}

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


def _init_worker(
    model: Sequential,
    clients: dict,
    loss: Loss,
    optimizer: OptimizerSpec,
    faults: FaultPlan | None = None,
):
    # One SerialExecutor per worker process: chunk execution reuses the
    # exact task->local_train mapping of the serial backend, so the two
    # paths cannot drift apart. Constructing it also compiles the worker
    # replica's fused TrainingPlan (and its scratch arena) once per
    # process, before the first cohort arrives.
    _WORKER["executor"] = SerialExecutor(model, clients, loss, optimizer)
    _WORKER["shm"] = {}
    _WORKER["faults"] = faults


def _attach_shared(name: str, dtype: str, size: int) -> np.ndarray:
    """Map the broadcast segment read-only, caching the attachment.

    The parent owns the segment's lifetime; the worker must neither unlink
    it nor let its resource tracker claim it (attaching registers with the
    tracker on CPython <= 3.12, which would spew spurious leak warnings at
    worker exit). Registration is suppressed *during* attach rather than
    undone after: with fork all workers share the parent's tracker, and
    register/unregister pairs from concurrent worker generations interleave
    into spurious KeyError noise in the tracker process otherwise.
    """
    cache = _WORKER.setdefault("shm", {})
    shm = cache.get(name)
    if shm is None:
        from multiprocessing import resource_tracker, shared_memory

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
    arr = np.ndarray((size,), dtype=np.dtype(dtype), buffer=shm.buf)
    arr.flags.writeable = False
    return arr


def _train_chunk(payload: tuple):
    """Execute one chunk: ``(header, tasks, key)`` -> ``(results, checksum)``.

    ``key`` is the attempt's ``(dispatch, chunk, attempt)``. Injected faults
    are drawn from it and fire here, in the worker, exactly where the real
    failure would happen; the checksum (taken only under an active fault
    plan, ``None`` otherwise) lets the parent verify integrity.
    """
    header, tasks, key = payload
    plan: FaultPlan | None = _WORKER.get("faults")
    injected: tuple[str, ...] = ()
    if plan is not None:
        injected = plan.chunk_faults(*key)
        if "crash" in injected:
            # Die the way an OOM-killed / segfaulted worker dies: no
            # exception back to the parent, no cleanup, just a corpse.
            os._exit(3)
    if header[0] == "shm":
        _, name, dtype, size = header
        start_weights = _attach_shared(name, dtype, size)
    else:
        start_weights = header[1]
    results = _WORKER["executor"].run_cohort(start_weights, tasks)
    checksum = chunk_checksum(results) if plan is not None else None
    if "corrupt" in injected:
        # Damage the payload *after* the checksum, modelling in-transit
        # corruption: the parent's verify catches it and redispatches.
        corrupt_results(results)
    if "hang" in injected:
        time.sleep(plan.hang_seconds)
    return results, checksum


def _worker_main(conn, init_args: tuple, inherited: Sequence = ()) -> None:
    """Pool worker process: serve chunks over its private pipe until EOF.

    ``inherited`` are the parent's ends of the pipes that existed when this
    process was forked (its own among them). They are closed first: while a
    child holds a copy, the pipe never reads EOF, and EOF is how a worker
    learns that the parent closed it — or died.
    """
    for other in inherited:
        other.close()
    _init_worker(*init_args)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (_train_chunk(payload), None)
        except Exception as exc:  # deterministic task bug — report, don't die
            reply = (None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


class _PoolWorker:
    """One worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "chunk")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.chunk: int | None = None  # chunk index in flight here, else None


def _resolve_workers(num_workers: int) -> int:
    if num_workers < 0:
        raise ValueError(f"num_workers must be >= 0, got {num_workers}")
    if num_workers == 0:
        return max(os.cpu_count() or 1, 1)
    return num_workers


class ParallelExecutor(ClientExecutor):
    """Fan cohorts out to ``num_workers`` processes (0 → CPU count).

    The worker processes are started lazily on the first cohort and torn
    down by :meth:`close` (systems close their executor when ``run()``
    returns). Every dispatch goes through :meth:`_run_chunks_supervised`,
    fault plan or not.
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
        num_workers: int = 0,
        start_method: str | None = None,
        faults: FaultPlan | None = None,
        chunk_timeout: float | None = None,
        chunk_retries: int = 3,
        degrade: bool = True,
    ):
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")
        if chunk_retries < 0:
            raise ValueError(f"chunk_retries must be >= 0, got {chunk_retries}")
        self.num_workers = _resolve_workers(num_workers)
        self._pool: list[_PoolWorker] | None = None
        self._fallback: SerialExecutor | None = None
        self.fallback_reason: str | None = None
        self.shm_fallback_reason: str | None = None
        self._shm = None
        self.faults = faults
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries
        self.degrade = degrade
        self._dispatch_seq = 0
        #: Recovery telemetry, cumulative across the run; the system layer
        #: publishes a snapshot into ``history.meta["faults"]``.
        self.fault_counters: dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "respawns": 0,
            "worker_deaths": 0,
            "corrupt_detected": 0,
            "worker_errors": 0,
            "degraded_chunks": 0,
        }
        # Cohorts below this size skip the pool and run in-process (the
        # async baselines' steady-state singletons pay a full IPC round-trip
        # for zero parallelism otherwise). Bit-identical either way by the
        # replica-safety contract, so the path choice is unobservable.
        self.min_dispatch = 2
        if not model.replica_safe:
            self.fallback_reason = (
                f"model {model.name!r} has layers with cross-call state "
                "(dropout RNG / batch-norm statistics); falling back to "
                "serial execution to preserve bit-identical histories"
            )
            warnings.warn(self.fallback_reason, RuntimeWarning, stacklevel=2)
            self._fallback = SerialExecutor(model, clients, loss, optimizer)
            return
        if start_method is None:
            # fork shares the parent's address space (cheap replica setup)
            # but is only reliably safe on Linux: macOS lists "fork" yet
            # forking after NumPy/Accelerate initialization can crash or
            # deadlock workers (which is why its platform default is spawn).
            # Elsewhere use the platform default; results are identical
            # either way since workers get the same initializer state.
            start_method = "fork" if sys.platform == "linux" else None
        self._ctx = multiprocessing.get_context(start_method)
        # Client collections that know how to build their own replica
        # mapping (virtual populations ship a lazy, picklable store instead
        # of materializing every client) provide ``replicas()``; plain
        # sequences fall back to the eager per-client dict.
        if hasattr(clients, "replicas"):
            replicas = clients.replicas()
        else:
            replicas = {c.client_id: c.replica() for c in clients}
        self._init_args = (model.clone(), replicas, loss, optimizer, faults)
        # In-process executor over the same replica set, for sub-min_dispatch
        # cohorts. (SerialExecutor indexes clients by id; the dict satisfies
        # that.)
        self._local = SerialExecutor(
            self._init_args[0], self._init_args[1], loss, optimizer
        )

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> list[_PoolWorker]:
        if self._pool is None:
            forked = self._ctx.get_start_method() == "fork"
            pool: list[_PoolWorker] = []
            for _ in range(self.num_workers):
                conn, child_conn = self._ctx.Pipe()
                inherited = [conn, *(w.conn for w in pool)] if forked else []
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self._init_args, inherited),
                    daemon=True,
                    name="repro-pool-worker",
                )
                proc.start()
                child_conn.close()
                pool.append(_PoolWorker(proc, conn))
            self._pool = pool
        return self._pool

    def _discard_pool(self) -> None:
        """Kill every worker. Safe at any instant: a worker shares nothing
        with its siblings, so whatever it was doing, nobody waits on it."""
        pool, self._pool = self._pool, None
        for worker in pool or ():
            worker.conn.close()
            worker.proc.kill()
        for worker in pool or ():
            worker.proc.join()

    def _broadcast_header(self, start_weights: np.ndarray) -> tuple:
        """Publish the round's start weights; return the per-chunk header.

        Shared-memory path: one ``copyto`` into the (lazily created,
        reused) segment, header carries only ``(name, dtype, size)``.
        Fallback: the weights themselves travel in the header and get
        pickled once per chunk.
        """
        if self._shm is None and self.shm_fallback_reason is None:
            try:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(
                    create=True, size=start_weights.nbytes
                )
                _register_shm(self._shm)
            except Exception as exc:  # no /dev/shm, permissions, quota ...
                self.shm_fallback_reason = (
                    f"shared-memory broadcast unavailable ({exc!r}); "
                    "falling back to pickled start-weight dispatch"
                )
        if self._shm is not None:
            if self._shm.size < start_weights.nbytes:  # pragma: no cover - fixed model size
                self._release_shm()
                return self._broadcast_header(start_weights)
            view = np.ndarray(
                (start_weights.size,), dtype=start_weights.dtype, buffer=self._shm.buf
            )
            np.copyto(view, start_weights)
            return ("shm", self._shm.name, start_weights.dtype.str, start_weights.size)
        return ("pickle", start_weights)

    def _release_shm(self) -> None:
        if self._shm is not None:
            _unregister_shm(self._shm)
            try:
                self._shm.close()
                self._shm.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            self._shm = None

    @staticmethod
    def _chunk(tasks: Sequence[CohortTask], n: int) -> list[list[CohortTask]]:
        """Contiguous near-even split preserving task order."""
        n = min(n, len(tasks))
        bounds = np.linspace(0, len(tasks), n + 1).astype(int)
        return [list(tasks[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def run_cohort(
        self, start_weights: np.ndarray, tasks: Sequence[CohortTask]
    ) -> list[LocalTrainingResult]:
        if self._fallback is not None:
            return self._fallback.run_cohort(start_weights, tasks)
        if not tasks:
            return []
        if len(tasks) < self.min_dispatch:
            # In-parent fast path: below min_dispatch the IPC round-trip buys
            # no parallelism. Runs outside the fault domain — injections model
            # worker-process infrastructure, and there is no worker here.
            return self._local.run_cohort(start_weights, tasks)
        start_weights = np.ascontiguousarray(start_weights)
        header = self._broadcast_header(start_weights)
        chunks = self._chunk(tasks, self.num_workers)
        results = self._run_chunks_supervised(header, chunks, start_weights)
        return [res for chunk in results for res in chunk]

    # ------------------------------------------------------------------ #
    # Supervised dispatch: timeouts, dead-pool recovery, capped retries
    # ------------------------------------------------------------------ #
    def _run_chunks_supervised(
        self,
        header: tuple,
        chunks: list[list[CohortTask]],
        start_weights: np.ndarray,
    ) -> list[list[LocalTrainingResult]]:
        """Dispatch chunks with per-chunk deadlines and capped redispatch.

        Recovery model: a crashed worker (its process sentinel becomes
        readable), a timed-out chunk, or a checksum mismatch marks the chunk
        failed; crashes and timeouts also force a full pool respawn (a hung
        worker never frees itself, and a pool rebuilt whole is in a known
        state). Every redispatch burns one unit of the chunk's retry budget
        (``1 + chunk_retries`` attempts total); exhaustion degrades the
        chunk to the in-parent serial executor when ``degrade`` is set, else
        raises :class:`ExecutorFaultError`. Chunk work is deterministic, so
        however many retries it takes, the results — and the downstream
        history — are bit-identical to a fault-free run.

        Event-driven: the supervisor blocks on the busy workers' pipes (a
        reply is ready), every worker's sentinel (a worker is gone) and the
        earliest chunk deadline, and acts on whichever comes first.
        """
        counters = self.fault_counters
        dispatch = self._dispatch_seq
        self._dispatch_seq += 1
        n = len(chunks)
        results: list = [None] * n
        attempts = [0] * n
        budget = 1 + self.chunk_retries
        pending: dict[int, float | None] = {}  # idx in flight -> its deadline

        def submit(idx: int) -> None:
            # Never more chunks than workers, and a retry follows either its
            # own worker's reply or a full respawn: someone is always idle.
            worker = next(w for w in self._ensure_pool() if w.chunk is None)
            worker.chunk = idx
            pending[idx] = (
                time.monotonic() + self.chunk_timeout
                if self.chunk_timeout is not None
                else None
            )
            payload = (header, chunks[idx], (dispatch, idx, attempts[idx]))
            attempts[idx] += 1
            try:
                worker.conn.send(payload)
            except OSError:
                pass  # it died idle; its sentinel says so at the next wait

        def retry_or_fail(idx: int, reason: str) -> None:
            if attempts[idx] < budget:
                counters["retries"] += 1
                submit(idx)
                return
            if self.degrade:
                counters["degraded_chunks"] += 1
                warnings.warn(
                    f"executor {self.name!r}: chunk {idx} exhausted its retry "
                    f"budget ({reason}); degrading to in-process serial "
                    "execution for this chunk",
                    RuntimeWarning,
                    stacklevel=2,
                )
                results[idx] = self._local.run_cohort(start_weights, chunks[idx])
                return
            raise ExecutorFaultError(
                executor=self.name,
                chunk=idx,
                chunk_size=len(chunks[idx]),
                num_workers=self.num_workers,
                attempts=attempts[idx],
                retry_budget=self.chunk_retries,
                counters=counters,
                reason=reason,
            )

        def respawn_and_retry(reason: str, timed_out=()) -> None:
            """The pool is beyond use: tear it down hard, let ``submit``
            rebuild it, redispatch all in flight. (The broadcast segment is
            parent-owned and survives; fresh workers re-attach to it.)"""
            lost = sorted(pending)
            pending.clear()
            counters["respawns"] += 1
            self._discard_pool()
            for idx in lost:
                if idx in timed_out:
                    retry_or_fail(idx, f"chunk exceeded chunk_timeout={self.chunk_timeout}s")
                else:
                    retry_or_fail(idx, reason)

        try:
            for idx in range(n):
                submit(idx)
            while pending:
                pool = self._pool
                busy = {w.conn: w for w in pool if w.chunk is not None}
                sentinels = [w.proc.sentinel for w in pool]
                ready = wait_any(
                    [*busy, *sentinels], wait_budget(pending.values(), time.monotonic())
                )
                died = any(sentinel in ready for sentinel in sentinels)
                for conn in ready:
                    worker = busy.get(conn)
                    if worker is None:
                        continue
                    try:
                        reply, error = conn.recv()
                    except (EOFError, OSError):
                        died = True  # EOF where a reply should be: gone mid-chunk
                        continue
                    idx, worker.chunk = worker.chunk, None
                    del pending[idx]
                    if error is not None:
                        counters["worker_errors"] += 1
                        retry_or_fail(idx, f"worker raised {error}")
                        continue
                    chunk_results, checksum = reply
                    if checksum is not None and chunk_checksum(chunk_results) != checksum:
                        counters["corrupt_detected"] += 1
                        retry_or_fail(idx, "result checksum mismatch")
                        continue
                    results[idx] = chunk_results
                if not pending:
                    break
                if died:
                    # A worker died with work in flight. Recover the whole
                    # pool and redispatch everything unfinished (chunk
                    # determinism makes the duplicate work harmless).
                    counters["worker_deaths"] += 1
                    respawn_and_retry("worker process died mid-chunk")
                    continue
                now = time.monotonic()
                timed_out = {
                    idx
                    for idx, deadline in pending.items()
                    if deadline is not None and now > deadline
                }
                if timed_out:
                    # A hung worker never frees itself; the pool is rebuilt
                    # whole, which also aborts whatever else was in flight —
                    # redispatch all of it.
                    counters["timeouts"] += len(timed_out)
                    respawn_and_retry("pool respawned while chunk was in flight", timed_out)
        except BaseException:
            # Whatever is still in flight would answer into the next
            # dispatch: an abandoned dispatch takes its workers with it.
            self._discard_pool()
            raise
        return results

    def close(self) -> None:
        self._discard_pool()
        self._release_shm()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
