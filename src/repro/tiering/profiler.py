"""Response-latency profiling.

Profiling probes each client with one training round and records its
response latency. The draw itself is the latency model's
(:meth:`~repro.sim.latency.ResponseLatencyModel.sample_latencies`, over the
clients' training-set sizes); a population hands it over through
:meth:`~repro.population.base.Population.profile_latencies`. Mis-profiling
scrambles a fraction of the estimates, which lets tests exercise the
paper's claim that FedAT tolerates clients assigned to the wrong tier
(§2.1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LatencyProfiler"]


class LatencyProfiler:
    """Estimates per-client response latencies for tier assignment."""

    def __init__(self, *, epochs: int = 1, misprofile_fraction: float = 0.0):
        if not 0.0 <= misprofile_fraction <= 1.0:
            raise ValueError("misprofile_fraction must be in [0, 1]")
        self.epochs = epochs
        self.misprofile_fraction = misprofile_fraction

    def profile_sizes(
        self, latency_model, train_sizes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One probed round latency per client of the population,
        ``train_sizes`` indexed by client id, then mis-profiled."""
        lat = latency_model.sample_latencies(None, train_sizes, self.epochs, rng)
        if self.misprofile_fraction > 0:
            n_bad = int(round(self.misprofile_fraction * lat.size))
            if n_bad:
                bad = rng.choice(lat.size, size=n_bad, replace=False)
                lat[bad] = rng.permutation(lat[bad])
                # Scrambling within the chosen subset swaps their rankings;
                # additionally blast a third of them to random magnitudes.
                blasted = bad[: max(1, n_bad // 3)]
                lat[blasted] = rng.uniform(lat.min(), lat.max(), size=blasted.size)
        return lat
