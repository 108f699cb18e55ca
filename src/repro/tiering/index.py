"""Ordered tier index: :meth:`Tiering.from_latencies`, kept incrementally.

TiFL counts re-tiering as system wall-clock and dynamic tiering re-splits
continuously, so a re-split has to cost what *changed*, not a fresh
``O(N log N)`` sort of everyone enrolled. :class:`TierIndex` keeps the
enrolled ids as one array ordered by ``(latency estimate, client id)`` —
the order ``from_latencies`` sorts into — and keeps it current: an
arrival is a bisect plus one insert, and a split first moves only the
clients whose estimate changed since the previous one. Tiers are
``array_split`` slices of that order (:meth:`Tiering.from_order`), so every
split has exactly the membership the stateless full sort gives
(``from_latencies`` stays as the one-shot form and as the oracle the
property tests compare against).
"""

from __future__ import annotations

import numpy as np

from repro.tiering.tiers import Tiering

__all__ = ["TierIndex"]


class TierIndex:
    """Enrolled clients in ``(estimate, id)`` order, split into tiers on demand.

    ``estimates`` is the caller's per-client latency vector, shared rather
    than copied: a caller that updates ``estimates[c]`` in place calls
    :meth:`touch` first (``LatencyTracker.observe`` does), which is how the
    index learns which clients to move at the next :meth:`split`.
    ``client_ids`` restricts enrollment to a subset — under arrival
    scenarios only clients that exist yet; :meth:`enroll` adds the rest as
    they arrive. Estimates must be finite: a NaN has no place in the order.
    """

    def __init__(self, estimates: np.ndarray, num_tiers: int, *, client_ids=None):
        if num_tiers < 1:
            raise ValueError("num_tiers must be >= 1")
        self.estimates = estimates
        self.num_tiers = int(num_tiers)
        if client_ids is None:
            ids = np.arange(estimates.size, dtype=np.int64)
        else:
            ids = np.asarray(client_ids, dtype=np.int64)
            if ids.size and not 0 <= ids.min() <= ids.max() < estimates.size:
                raise ValueError("client id outside the estimate vector")
        self._enrolled = np.zeros(estimates.size, dtype=bool)
        self._enrolled[ids] = True
        if np.count_nonzero(self._enrolled) != ids.size:
            raise ValueError("a client is enrolled twice")
        keys = estimates[ids]
        by_key = np.lexsort((ids, keys))
        #: Enrolled ids by ``(estimate, id)``. Replaced, never written in
        #: place: each Tiering handed out keeps slicing the array it was
        #: split from.
        self._order = ids[by_key]
        #: ``estimates[_order]`` as of when each client was placed: sorted,
        #: so a position is two ``searchsorted`` calls away.
        self._keys = keys[by_key]
        #: Enrolled clients whose estimate changed since they were placed,
        #: mapped to the key they still sit under in ``_keys``.
        self._stale: dict[int, float] = {}

    def __len__(self) -> int:
        return int(self._order.size)

    def enroll(self, client_id: int) -> None:
        """Add one client at the position its current estimate gives it."""
        cid = int(client_id)
        if not 0 <= cid < self._enrolled.size:
            raise ValueError(f"client {cid} outside the estimate vector")
        if self._enrolled[cid]:
            raise ValueError(f"client {cid} is already enrolled")
        self._enrolled[cid] = True
        self._insert([cid])

    def touch(self, client_id: int) -> None:
        """Note that ``estimates[client_id]`` is about to change."""
        if self._enrolled[client_id]:
            self._stale.setdefault(int(client_id), float(self.estimates[client_id]))

    def split(self) -> Tiering:
        """Tiers over the enrolled clients on the current estimates.

        Equal to ``Tiering.from_latencies(estimates[ids], num_tiers,
        allow_empty=True, client_ids=ids)`` over the sorted enrolled ids.
        """
        if self._stale:
            at = [self._bisect(key, cid) for cid, key in self._stale.items()]
            self._order = np.delete(self._order, at)
            self._keys = np.delete(self._keys, at)
            moved = list(self._stale)
            self._stale.clear()
            self._insert(moved)
        return Tiering.from_order(self._order, self.num_tiers, self.estimates.size)

    def _bisect(self, key: float, client_id: int) -> int:
        """Where ``(key, client_id)`` sits, or would be inserted."""
        lo = int(np.searchsorted(self._keys, key, side="left"))
        hi = int(np.searchsorted(self._keys, key, side="right"))
        return lo + int(np.searchsorted(self._order[lo:hi], client_id))

    def _insert(self, ids: list[int]) -> None:
        """Place ``ids`` (absent from the order) under their current estimates."""
        placed = sorted(zip(self.estimates[ids].tolist(), ids))
        at = [self._bisect(key, cid) for key, cid in placed]
        self._order = np.insert(self._order, at, [cid for _, cid in placed])
        self._keys = np.insert(self._keys, at, [key for key, _ in placed])
