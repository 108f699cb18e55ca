"""``executor="parallel"``: the distributed executor in its self-contained mode.

There is one cross-process executor, :class:`~repro.exec.dist.DistExecutor`.
With its default bind (an ephemeral loopback port) it forks its own local
workers, which is all ``"parallel"`` ever asked for; a run built with either
name executes, recovers and counts the same way, and reports the name it
was built with.

The name stays importable from here because code outside the package
resolves ``repro.exec.parallel.ParallelExecutor`` and its methods directly.
"""

from repro.exec.dist.executor import DistExecutor

__all__ = ["ParallelExecutor"]

ParallelExecutor = DistExecutor
