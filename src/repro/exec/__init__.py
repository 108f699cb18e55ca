"""Client-execution engine.

Client training is embarrassingly parallel: the event loop only needs each
client's result when it reads it, not serial execution, so the system
hands over every launch still pending as one cohort. This package owns
*how* a cohort of local-training tasks is executed:

- :class:`SerialExecutor` — one shared worker model and one
  :meth:`~repro.nn.plan.TrainingPlan.run_cohort` call per cohort, clients
  with equal batch shapes trained in lockstep (the default);
- :class:`DistExecutor` — a socket scheduler with heartbeating workers
  (local child processes or remote ``repro worker`` processes), each
  holding model replicas rebuilt via
  :meth:`repro.nn.model.Sequential.clone`, chunked cohort dispatch, and
  bit-identical results (enforced by ``tests/exec/``; see
  :mod:`repro.exec.dist`), built by ``executor="dist"``; ``ParallelExecutor``
  is an alias of it, kept only because the perf ledger resolves that name.

It runs on one lease state machine, :class:`repro.exec.supervision.Dispatch`
(chunk leases, retry budget, deadlines, result verification): a failure
costs the chunk it hit and nothing else, and a chunk out of attempts
degrades in-process or raises, :class:`DistExecutor`'s call. Once closed,
it refuses further cohorts.

:class:`ExecConfig` declares and checks every execution setting
(``FLConfig.exec``); :func:`make_executor` picks the backend and builds the
fault plan from it. Nothing in it can change a history bit, so cache and
checkpoint keys leave it out.

Determinism contract: a :class:`CohortTask` carries everything a round
depends on — explicit batch-schedule cursor (``start_epoch``), epoch count,
proximal λ, pre-sampled latency, the row of the start-weight stack it
departs from — so local training is a pure function of ``(task, starts)``
and every backend produces identical
:class:`~repro.sim.client.LocalTrainingResult` records.
"""

from repro.exec.base import (
    EXECUTORS,
    ClientExecutor,
    CohortTask,
    ExecConfig,
    OptimizerSpec,
    make_executor,
)
from repro.exec.serial import SerialExecutor

__all__ = [
    "EXECUTORS",
    "ExecConfig",
    "ClientExecutor",
    "CohortTask",
    "OptimizerSpec",
    "SerialExecutor",
    "DistExecutor",
    "make_executor",
    "FaultSpec",
    "FaultPlan",
    "parse_faults",
    "ExecutorFaultError",
]


def __getattr__(name: str):
    # The socket executor and fault injection load on first use: a serial
    # run without faults never pays for sockets, selectors, worker
    # processes or fault plans.
    if name in ("DistExecutor", "ParallelExecutor"):
        from repro.exec.dist import DistExecutor

        return DistExecutor
    if name in ("ExecutorFaultError", "FaultPlan", "FaultSpec", "parse_faults"):
        from repro.exec import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
