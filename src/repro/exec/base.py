"""Executor abstraction: cohort tasks, optimizer specs, the execution config
and the one factory that reads it."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.optimizers import SGD, Adam, Optimizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.sim.client import LocalTrainingResult

__all__ = [
    "CohortTask",
    "OptimizerSpec",
    "ClientExecutor",
    "EXECUTORS",
    "ExecConfig",
    "make_executor",
]


@dataclass(frozen=True)
class CohortTask:
    """One client's local round, fully specified up front.

    The algorithm layer pre-samples the latency and allocates the batch
    schedule cursor *before* dispatch, so executing the task touches no
    shared RNG stream — the property that lets backends run tasks in any
    process without perturbing the simulation.
    """

    client_id: int
    epochs: int
    lam: float  # proximal constraint λ toward the start weights
    latency: float  # pre-sampled response latency (virtual seconds)
    start_epoch: int  # batch-schedule cursor at round start
    row: int = 0  # the row of the dispatch's start-weight stack it departs from

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {self.start_epoch}")
        if self.row < 0:
            raise ValueError(f"row must be >= 0, got {self.row}")


@dataclass(frozen=True)
class OptimizerSpec:
    """Picklable recipe for the per-round local solver.

    Cross-process executors cannot ship closures, so the optimizer travels
    as data and is rebuilt fresh for every task (optimizer state never
    persists across rounds, per the paper's §6 setup).
    """

    kind: str = "adam"
    learning_rate: float = 0.005

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def build(self) -> Optimizer:
        if self.kind == "adam":
            return Adam(self.learning_rate)
        return SGD(self.learning_rate)


class ClientExecutor:
    """Executes cohorts of local-training tasks.

    ``starts`` is an ``(S, P)`` stack of start weights, each task training
    from its ``row`` of it, or one ``(P,)`` vector (``S = 1``). Backends
    must return results **in task order** and produce bit-identical
    :class:`LocalTrainingResult` records for the same ``(starts, tasks)``
    regardless of how execution is scheduled.
    """

    name = "base"

    def run_cohort(
        self, starts: np.ndarray, tasks: Sequence[CohortTask]
    ) -> "list[LocalTrainingResult]":
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent."""


#: Backend names ``ExecConfig.executor`` accepts.
EXECUTORS = ("serial", "dist")


@dataclass(frozen=True)
class ExecConfig:
    """How a run's cohorts execute, never what they compute.

    By the executor-equivalence contract none of these fields changes a bit
    of a run's history: cache and checkpoint keys ignore them, so a run
    started serially resumes under ``"dist"``, and a run stored once (a
    claim's through ``RunSpec.cached``, or a sweep cell's) answers the same
    experiment under any backend.
    :func:`make_executor` picks the backend and the fault plan from it and
    passes the other fields through; the cross-process executor rebuilds it
    from those keyword arguments, so each setting is declared and checked
    here only.
    """

    # "serial" trains through one shared worker model; "dist" dispatches
    # chunk leases to socket-connected workers (bit-identical histories
    # either way).
    executor: str = "serial"
    # Workers per cohort and chunks cut from it; 0 = one local worker per
    # CPU and 4 chunks, so the chunk layout never follows the host.
    num_workers: int = 0
    # Scheduler bind address. Port 0 (the default) picks an ephemeral port
    # and self-spawns local worker processes; an explicit port listens for
    # external `repro worker --connect` workers.
    dist_bind: str = "127.0.0.1:0"
    # Worker liveness: workers heartbeat every `heartbeat_interval`
    # seconds; a connection quiet for longer than `heartbeat_timeout` is
    # declared dead and its chunk lease requeued.
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 2.0
    # How long a dispatch tolerates an empty worker roster (seconds)
    # before its chunks degrade to in-process execution.
    worker_grace: float = 30.0
    # Deterministic chaos injection into the worker fleet: "crash:<p>",
    # "hang:<p>", "corrupt:<p>", "drop:<p>" (severed connections) and
    # "delay:<p>" (stalled result frames); "+"-composable
    # ("crash:0.2+corrupt:0.1"). Faults are drawn from seeded per-family
    # substreams keyed by (dispatch, chunk, attempt), so a chaos run's
    # fault schedule is bit-reproducible. None disables injection. Serial
    # execution has no worker, connection or chunk to fault, so it refuses
    # any family with a probability above zero.
    faults: str | None = None
    # Per-chunk wall-clock deadline (seconds) before the supervisor declares
    # a dispatched chunk hung, requeues its lease (a local holder is also
    # killed and replaced) and redispatches. None disables deadlines
    # (dead-worker detection still recovers crashes). Required to inject
    # "hang" faults.
    chunk_timeout: float | None = None
    # Redispatches a chunk may spend after its first attempt before it
    # degrades or the run errors out.
    chunk_retries: int = 3
    # After the retry budget: True finishes the chunk through the
    # in-process serial executor (graceful degradation); False raises
    # ExecutorFaultError with full recovery context.
    fault_degrade: bool = True

    def __post_init__(self):
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; options: {', '.join(EXECUTORS)}"
            )
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 means CPU count)")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (None disables)")
        if self.chunk_retries < 0:
            raise ValueError("chunk_retries must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval, or every "
                "worker misses its liveness deadline between beats"
            )
        if self.worker_grace <= 0:
            raise ValueError("worker_grace must be positive")
        if self.faults is None:
            return
        from repro.exec.faults import FAULT_FAMILIES, parse_faults

        spec = parse_faults(self.faults)  # raises ValueError on bad specs
        if spec is None:
            return
        if self.executor == "serial":
            injected = [f for f in FAULT_FAMILIES if getattr(spec, f) > 0]
            if injected:
                raise ValueError(
                    f"fault families {', '.join(injected)} are injected into "
                    "the cross-process executor's workers and require "
                    "executor 'dist'; a serial run has none to fault"
                )
        elif spec.hang > 0 and self.chunk_timeout is None:
            raise ValueError(
                "hang faults need a chunk_timeout: an injected hang "
                "sleeps past any deadline, so without one the run "
                "would block forever"
            )


def make_executor(
    config: ExecConfig,
    *,
    model,
    clients,
    loss,
    optimizer: OptimizerSpec,
    seed: int,
) -> ClientExecutor:
    """Build the backend ``config`` names.

    ``"serial"`` trains through the shared worker model and reads nothing
    else. ``"dist"`` builds the cross-process executor, which dispatches
    lease-supervised chunks to socket-connected workers (see
    :mod:`repro.exec.dist`) under a :class:`FaultPlan` seeded by ``seed``
    when ``config.faults`` is set; ``num_workers=0`` is a local worker per
    CPU and 4 chunks.
    """
    if config.executor == "serial":
        from repro.exec.serial import SerialExecutor

        return SerialExecutor(model, clients, loss, optimizer)
    from repro.exec.dist import DistExecutor

    plan = None
    if config.faults is not None:
        from repro.exec.faults import FaultPlan, parse_faults

        spec = parse_faults(config.faults)
        plan = None if spec is None else FaultPlan(spec, seed=seed)
    settings = asdict(config)
    del settings["executor"], settings["faults"]
    return DistExecutor(model, clients, loss, optimizer, faults=plan, **settings)
