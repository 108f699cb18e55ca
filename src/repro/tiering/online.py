"""Online re-tiering from observed response latencies.

TiFL (and FedAT, which adopts its tiering) re-profiles clients *during*
training: the server already observes every response latency, so an EWMA
over those observations is a free, continuously updated latency estimate.
Periodically re-splitting clients on the estimates moves drifting clients
to the tier that matches their current speed — the paper's answer to
mis-profiling and changing client behavior.
"""

from __future__ import annotations

import numpy as np

from repro.tiering.index import TierIndex
from repro.tiering.tiers import Tiering

__all__ = ["LatencyTracker"]


class LatencyTracker:
    """EWMA per-client response-latency estimates, seeded from a prior.

    The prior (profiled or expected latencies) covers clients the server
    has not heard from yet; the first real observation replaces it outright
    so a badly mis-profiled client snaps to reality immediately, and later
    observations blend in with weight ``alpha``.

    Systems that re-split repeatedly do it through :meth:`make_index`: the
    returned :class:`TierIndex` shares ``estimates`` and hears about every
    :meth:`observe`, so a re-split moves only the clients observed since
    the last one. :meth:`retier` is the stateless one-shot form.
    """

    def __init__(self, prior: np.ndarray, *, alpha: float = 0.3):
        prior = np.asarray(prior, dtype=np.float64)
        if prior.ndim != 1 or prior.size == 0:
            raise ValueError("prior must be a non-empty 1-D latency vector")
        bad = np.flatnonzero(~(np.isfinite(prior) & (prior >= 0)))
        if bad.size:
            raise ValueError(
                f"prior latencies must be finite and non-negative; client "
                f"{int(bad[0])} has {prior[bad[0]]}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.estimates = prior.copy()
        self.alpha = float(alpha)
        self.num_observations = np.zeros(prior.size, dtype=np.int64)
        self._index: TierIndex | None = None

    def observe(self, client_id: int, latency: float) -> None:
        """Fold one observed response latency into the estimate."""
        # Written so a NaN fails too: it passes ``latency < 0`` and would
        # then silently break the ordered index's bisect invariant.
        i = int(client_id)
        if not 0 <= latency < np.inf:
            raise ValueError(
                f"latency of client {i} must be finite and non-negative, got {latency}"
            )
        if self._index is not None:
            self._index.touch(i)
        if self.num_observations[i] == 0:
            self.estimates[i] = latency
        else:
            self.estimates[i] += self.alpha * (latency - self.estimates[i])
        self.num_observations[i] += 1

    def make_index(self, num_tiers: int, *, client_ids=None) -> TierIndex:
        """Ordered tier index over this tracker's live estimates (one per
        tracker: a new one replaces the last as the index kept current)."""
        self._index = TierIndex(self.estimates, num_tiers, client_ids=client_ids)
        return self._index

    def retier(self, num_tiers: int, *, client_ids=None) -> Tiering:
        """Split the population into tiers on current estimates.

        ``client_ids`` restricts the split to a subset — under arrival
        scenarios the server re-tiers only clients that exist yet.
        ``allow_empty`` keeps this robust if a caller ever re-tiers a
        population smaller than ``num_tiers`` (trailing tiers come back
        empty; the tiered methods guard that case end to end).
        """
        if client_ids is None:
            return Tiering.from_latencies(self.estimates, num_tiers, allow_empty=True)
        ids = np.sort(np.asarray(client_ids, dtype=np.int64))
        return Tiering.from_latencies(
            self.estimates[ids], num_tiers, allow_empty=True, client_ids=ids
        )
