"""Building blocks of event-driven supervision.

The process pool's supervisor and the socket scheduler both sleep until
something happens or a deadline is due, never on a fixed tick. Both ask
:func:`wait_budget` how long they may block, and the loops that watch
process sentinels block in :func:`wait_any`. :class:`WakeChannel` is for
the events that are not file descriptors to begin with — one thread handing
work to, or taking a result from, another: the scheduler has one in each
direction; the pool, whose events all arrive on pipes and sentinels, needs
none.
"""

from __future__ import annotations

import socket
from typing import Iterable

__all__ = ["WakeChannel", "wait_budget", "wait_any"]

#: Shortest sleep :func:`wait_budget` grants for an armed deadline. The
#: supervisors fire a deadline on a strict ``now > deadline``, so a wake-up
#: that lands exactly on it fires nothing; one millisecond later (the
#: granularity of ``poll``/``epoll`` timeouts anyway) it does, without a
#: zero-timeout spin in between.
_MIN_WAIT = 1e-3


def wait_budget(deadlines: Iterable[float | None], now: float) -> float | None:
    """How long a supervisor may block before its next timer is due.

    ``deadlines`` are monotonic instants, ``None`` for a timer that is not
    armed. Returns the distance from ``now`` to the earliest one — the
    ``timeout`` for ``select`` / ``multiprocessing.connection.wait`` — or
    ``None`` when nothing is armed: block until an event.
    """
    armed = [d for d in deadlines if d is not None]
    if not armed:
        return None
    return max(min(armed) - now, _MIN_WAIT)


def wait_any(waitables, timeout: float | None = None) -> list:
    """Block until one of ``waitables`` is ready; returns the ready ones.

    ``multiprocessing.connection.wait`` — sockets, :class:`WakeChannel` s and
    process sentinels in one call — imported on first use: it pulls in
    ``tempfile``, ``hmac`` and a dozen more modules (about 1 MB and 8 ms)
    that a run which never dispatches to a worker should not pay for.
    """
    from multiprocessing.connection import wait

    return wait(waitables, timeout)


class WakeChannel:
    """Lets one thread wake another out of ``select`` / ``connection.wait``.

    A socket pair, non-blocking at both ends. The discipline that makes a
    wake-up impossible to lose: the sender publishes its state *first* and
    calls :meth:`signal` after; the sleeper calls :meth:`drain` first and
    reads the state after. A wake-up can then be spurious (the state was
    already seen) but never missing. The object itself is what the sleeper
    waits on — it has a ``fileno()``, which is all ``selectors`` and
    :func:`wait_any` ask for.
    """

    def __init__(self):
        self._r, self._w = socket.socketpair()
        self._r.setblocking(False)
        self._w.setblocking(False)

    def fileno(self) -> int:
        return self._r.fileno()

    def signal(self) -> None:
        """Make the channel readable; never blocks, never raises.

        A full pipe means a wake-up is already pending, a closed one that
        the sleeper is gone: either way there is nobody left to tell.
        """
        try:
            self._w.send(b"\0")
        except OSError:
            pass

    def drain(self) -> None:
        """Swallow every pending wake-up."""
        try:
            while self._r.recv(4096):
                pass
        except OSError:
            pass

    def close(self) -> None:
        self._r.close()
        self._w.close()
