"""A bare alias of :class:`~repro.exec.dist.DistExecutor`.

There is one cross-process executor, built by ``executor="dist"``. This name
is kept only because the perf ledger's trace targets and cells resolve
``repro.exec.parallel.ParallelExecutor`` and its methods directly; it goes
when the ledger stops naming it (ROADMAP item 17(b)).
"""

from repro.exec.dist.executor import DistExecutor

__all__ = ["ParallelExecutor"]

ParallelExecutor = DistExecutor
