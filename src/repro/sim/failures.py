"""Unstable-client injection.

Paper §6: in every test, 10 randomly chosen "unstable" clients drop out at
some point during training and never rejoin. Dropout instants are sampled
uniformly over a time horizon; a client that is mid-round when its dropout
time passes still never reports (the server's selection logic must tolerate
missing responses — exactly the failure mode the paper stresses).
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnstableClientPolicy"]


class UnstableClientPolicy:
    """Tracks which clients have permanently dropped out by a given time."""

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        *,
        num_unstable: int = 10,
        horizon: float = 1000.0,
    ):
        if num_unstable < 0:
            raise ValueError("num_unstable must be non-negative")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        num_unstable = min(num_unstable, num_clients)
        self.num_clients = num_clients
        ids = rng.choice(num_clients, size=num_unstable, replace=False)
        times = rng.uniform(0.0, horizon, size=num_unstable)
        self._dropout_time = dict(zip(ids.tolist(), times.tolist()))
        # Array mirrors for the vectorized path (alive_array): filtering a
        # million-client tier pool must not loop per candidate.
        self._unstable_ids = np.asarray(ids, dtype=np.int64)
        self._unstable_times = np.asarray(times, dtype=np.float64)

    def alive_array(self, client_ids: np.ndarray, now: float) -> np.ndarray:
        """The clients among ``client_ids`` still participating at virtual
        time ``now``, in their given order."""
        ids = np.asarray(client_ids, dtype=np.int64)
        dead = self._unstable_ids[self._unstable_times <= now]
        if dead.size == 0:
            return ids
        return ids[~np.isin(ids, dead)]

    def will_complete(self, client_id: int, start: float, end: float) -> bool:
        """Whether a round spanning [start, end] finishes before dropout."""
        t = self._dropout_time.get(client_id)
        return t is None or end < t
