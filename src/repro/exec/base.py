"""Executor abstraction: cohort tasks, optimizer specs, backend registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.optimizers import SGD, Adam, Optimizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.sim.client import LocalTrainingResult

__all__ = [
    "CohortTask",
    "OptimizerSpec",
    "ClientExecutor",
    "make_executor",
    "register_executor",
    "executor_names",
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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {self.start_epoch}")


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

    Backends must return results **in task order** and produce bit-identical
    :class:`LocalTrainingResult` records for the same ``(start_weights,
    tasks)`` regardless of how execution is scheduled.
    """

    name = "base"

    def run_cohort(
        self, start_weights: np.ndarray, tasks: Sequence[CohortTask]
    ) -> "list[LocalTrainingResult]":
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Executor backend registry: config name -> factory. Factories receive
#: every knob :func:`make_executor` was called with and pick what they
#: need, so new backends register without editing a central if/else chain.
_EXECUTOR_REGISTRY: dict = {}


def register_executor(name: str, factory) -> None:
    """Register (or replace) an executor backend under a config name.

    ``factory(model=..., clients=..., loss=..., optimizer=..., **knobs)``
    must return a :class:`ClientExecutor`. Registration is what makes the
    name valid for ``FLConfig.executor`` and the ``--executor`` flags.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"executor name must be a non-empty string, got {name!r}")
    _EXECUTOR_REGISTRY[name] = factory


def _ensure_builtins() -> None:
    """Lazily register the built-in backends (import-cycle safe)."""
    if "serial" in _EXECUTOR_REGISTRY:
        return

    def _serial(*, model, clients, loss, optimizer, **_ignored):
        from repro.exec.serial import SerialExecutor

        return SerialExecutor(model, clients, loss, optimizer)

    # The cross-process factories pass every knob through and name only
    # what they drop, so a default lives in ``FLConfig`` and in the
    # executor's ``__init__`` and nowhere else.
    def _parallel(
        *, bind=None, heartbeat_interval=None, heartbeat_timeout=None, worker_grace=None, **knobs
    ):
        from repro.exec.parallel import ParallelExecutor

        return ParallelExecutor(**knobs)

    def _dist(**knobs):
        from repro.exec.dist import DistExecutor

        return DistExecutor(**knobs)

    register_executor("serial", _serial)
    register_executor("parallel", _parallel)
    register_executor("dist", _dist)


def executor_names() -> tuple[str, ...]:
    """Sorted names of every registered executor backend."""
    _ensure_builtins()
    return tuple(sorted(_EXECUTOR_REGISTRY))


def make_executor(
    spec: str,
    *,
    model,
    clients,
    loss,
    optimizer: OptimizerSpec,
    **knobs,
) -> ClientExecutor:
    """Build an executor backend from its config name.

    ``"serial"`` trains through the shared worker model; ``"parallel"``
    fans cohorts out to a process pool; ``"dist"`` dispatches
    lease-supervised chunks to socket-connected workers (see
    :mod:`repro.exec.dist`); ``num_workers=0`` is a worker per CPU on both,
    a chunk per CPU on the pool and a fixed 4 on dist. Backends resolve
    through the :func:`register_executor` registry, and every factory
    receives the full knob set (``num_workers``, ``faults``,
    ``chunk_timeout``, ``chunk_retries``, ``degrade``, ``bind``,
    heartbeat/lease settings), taking what applies — serial execution, with
    no worker processes to lose, ignores all of them.
    """
    _ensure_builtins()
    factory = _EXECUTOR_REGISTRY.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown executor {spec!r}; registered: {', '.join(executor_names())}"
        )
    return factory(model=model, clients=clients, loss=loss, optimizer=optimizer, **knobs)
