"""Distributed scheduler/worker execution backend.

Layout:

- :mod:`~repro.exec.dist.wire` — length-prefixed pickled frames with crc32;
- :mod:`~repro.exec.dist.scheduler` — the selector-loop scheduler
  (registration, heartbeats, lease assignment) that the executor drives on
  its own thread: frames, EOFs and timers in, transitions of the lease
  state machine out;
- :mod:`~repro.exec.dist.worker` — the worker process (``repro worker``);
- :mod:`~repro.exec.dist.executor` — :class:`DistExecutor`, the
  ``ClientExecutor`` facade behind ``executor="dist"``.

The per-dispatch lease state machine is :mod:`repro.exec.supervision`.
"""

from repro.exec.dist.executor import DistExecutor
from repro.exec.dist.scheduler import Scheduler
from repro.exec.dist.wire import FrameBuffer, FrameError, recv_frame, send_frame
from repro.exec.dist.worker import parse_address, run_worker

__all__ = [
    "DistExecutor",
    "Scheduler",
    "FrameBuffer",
    "FrameError",
    "send_frame",
    "recv_frame",
    "run_worker",
    "parse_address",
]
