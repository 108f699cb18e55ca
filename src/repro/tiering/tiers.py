"""Tier assignment from profiled latencies."""

from __future__ import annotations

import numpy as np

__all__ = ["Tiering"]


class Tiering:
    """Partition of clients into ``M`` latency tiers (tier 0 = fastest).

    Note on indexing: the paper writes tiers 1..M; in code tiers are
    0-indexed (``tier 0`` is the paper's ``tier 1``).
    """

    def __init__(self, tiers: list[np.ndarray]):
        if not tiers:
            raise ValueError("need at least one tier")
        tiers = [np.asarray(t, dtype=np.int64) for t in tiers]
        if any(t.size and int(t.min()) < 0 for t in tiers):
            raise ValueError("client ids must be non-negative")
        self._setup(tiers, 1 + max((int(t.max()) for t in tiers if t.size), default=-1))
        self._clients_in = list(tiers)  # explicit membership is served as given
        if np.count_nonzero(self._membership() >= 0) != self.num_clients:
            raise ValueError("a client appears in more than one tier")

    def _setup(self, members: list[np.ndarray], num_ids: int) -> None:
        #: Each tier's member ids, in whatever order they came.
        self._members = members
        #: What ``clients_in`` answers per tier; None until first asked.
        self._clients_in: list[np.ndarray | None] = [None] * len(members)
        self._num_ids = num_ids
        self._tier_of: np.ndarray | None = None

    @classmethod
    def from_order(cls, order: np.ndarray, num_tiers: int, num_ids: int) -> "Tiering":
        """Equal-count tiers over ``order``, ids already sorted by ``(latency,
        id)`` among ``num_ids`` possible ones — :meth:`from_latencies` minus
        the sort.

        Holds ``order`` (never written to again by its caller) and derives the
        rest on demand: a tier's id-sorted member array is one ``flatnonzero``
        over the dense membership vector the first time someone asks for it,
        so a split nobody reads — an arrival between two tier rounds — costs
        ``num_tiers`` slices.
        """
        self = cls.__new__(cls)
        self._setup(np.array_split(order, num_tiers), num_ids)
        return self

    def _membership(self) -> np.ndarray:
        """Tier index per client id, -1 for an untiered one.

        Dense instead of a python dict: a dict of 1M int keys costs ~100 MB;
        one small-int entry per client id costs 1 MB and makes "who moved"
        one array compare.
        """
        if self._tier_of is None:
            dtype = np.min_scalar_type(-self.num_tiers)
            self._tier_of = np.full(self._num_ids, -1, dtype=dtype)
            for m, ids in enumerate(self._members):
                self._tier_of[ids] = m
        return self._tier_of

    @staticmethod
    def from_latencies(
        latencies: np.ndarray,
        num_tiers: int,
        *,
        allow_empty: bool = False,
        client_ids: np.ndarray | list[int] | None = None,
    ) -> "Tiering":
        """Sort clients by latency and split into ``num_tiers`` equal groups.

        This is TiFL's tiering approach, which FedAT adopts (§2.1). Ties are
        broken by client id, making assignment deterministic. With
        ``allow_empty`` (online re-tiering over a shrunken population) fewer
        clients than tiers yields trailing empty tiers instead of an error.

        ``client_ids`` maps each latency to an explicit client id, so a
        *subset* of the population can be tiered — the growth path of
        arrival scenarios, where only clients that have arrived exist as
        far as the server is concerned. Without it, ids are 0..n-1.
        """
        latencies = np.asarray(latencies, dtype=float)
        if num_tiers < 1:
            raise ValueError("num_tiers must be >= 1")
        if latencies.size < num_tiers and not allow_empty:
            raise ValueError(
                f"cannot form {num_tiers} tiers from {latencies.size} clients"
            )
        ids = np.arange(latencies.size, dtype=np.int64)
        if client_ids is not None:
            ids = np.asarray(client_ids, dtype=np.int64)
            if ids.shape != latencies.shape:
                raise ValueError("client_ids must align with latencies")
        order = np.lexsort((ids, latencies))
        return Tiering(
            [np.sort(ids[part]) for part in np.array_split(order, num_tiers)]
        )

    @property
    def num_tiers(self) -> int:
        return len(self._members)

    @property
    def num_clients(self) -> int:
        return sum(self.sizes())

    def moved_from(self, old: "Tiering") -> int:
        """How many clients tiered in both splits changed tier; clients in
        only one of the two (arrivals since ``old``) are additions, not
        moves."""
        n = min(self._num_ids, old._num_ids)
        was, now = old._membership()[:n], self._membership()[:n]
        return int(np.count_nonzero((was != now) & (was >= 0) & (now >= 0)))

    def clients_in(self, tier: int) -> np.ndarray:
        if self._clients_in[tier] is None:
            self._clients_in[tier] = np.flatnonzero(self._membership() == tier)
        return self._clients_in[tier]

    def sizes(self) -> list[int]:
        return [int(t.size) for t in self._members]
