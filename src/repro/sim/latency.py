"""Client response-latency models.

Paper §6, "Simulating Different Performance Tiers": all clients get one CPU;
heterogeneity is injected as a *random delay per round*, drawn from one of
five bands depending on which fifth of the population the client belongs
to — ``0s, 0–5s, 6–10s, 11–15s, 20–30s``. Response latency additionally
includes the local compute time (proportional to samples × epochs) and,
optionally, bandwidth-limited transfer time for the model payload.

This module is the one home of that formula: :class:`ResponseLatencyModel`
draws one launch's latency (:meth:`~ResponseLatencyModel.round_latency`)
and, over arrays of client ids and sample counts, a profile's draws.
Nothing else reads the bands, the part assignment or the compute
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAPER_DELAY_BANDS",
    "DEFAULT_FINITE_BANDWIDTH",
    "TierDelayModel",
    "ComputeModel",
    "ResponseLatencyModel",
]

#: Bandwidth assumed when a scenario drifts client links but the run did
#: not configure a finite link itself (≈ a constrained mobile uplink).
#: Without *some* finite bandwidth a ``bwdrift`` scenario would be a no-op:
#: the drift scales the transfer term, and ``None`` disables that term.
DEFAULT_FINITE_BANDWIDTH = 25_000.0  # bytes per second

#: The paper's five delay bands (seconds), fastest part first.
PAPER_DELAY_BANDS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.0, 5.0),
    (6.0, 10.0),
    (11.0, 15.0),
    (20.0, 30.0),
)


@dataclass(frozen=True)
class TierDelayModel:
    """Per-round uniform delay bands, indexed by performance part.

    ``assignment[client_id]`` gives the part (0 = fastest). The paper evenly
    divides clients into five parts; custom distributions (Fig 10's
    Slow/Medium/Fast splits) pass explicit part sizes.
    """

    bands: tuple[tuple[float, float], ...]
    assignment: np.ndarray  # part index per client

    @staticmethod
    def even_split(
        num_clients: int,
        rng: np.random.Generator,
        bands: tuple[tuple[float, float], ...] = PAPER_DELAY_BANDS,
        *,
        shuffle: bool = True,
    ) -> "TierDelayModel":
        """Assign equal-size parts (the paper's default setup)."""
        counts = [num_clients // len(bands)] * len(bands)
        for i in range(num_clients - sum(counts)):
            counts[i] += 1
        return TierDelayModel.from_counts(counts, rng, bands, shuffle=shuffle)

    @staticmethod
    def from_counts(
        counts: list[int],
        rng: np.random.Generator,
        bands: tuple[tuple[float, float], ...] = PAPER_DELAY_BANDS,
        *,
        shuffle: bool = True,
    ) -> "TierDelayModel":
        """Assign parts with explicit sizes (Fig 10 configurations)."""
        if len(counts) != len(bands):
            raise ValueError(f"need {len(bands)} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("part sizes must be non-negative")
        assignment = np.repeat(np.arange(len(bands)), counts)
        if shuffle:
            assignment = rng.permutation(assignment)
        for lo, hi in bands:
            if lo < 0 or hi < lo:
                raise ValueError(f"invalid delay band ({lo}, {hi})")
        return TierDelayModel(tuple(bands), assignment)

    @property
    def num_clients(self) -> int:
        return int(self.assignment.size)

    @property
    def num_parts(self) -> int:
        return len(self.bands)

    def part_of(self, client_id: int) -> int:
        return int(self.assignment[client_id])

    def sample_delay(self, client_id: int, rng: np.random.Generator) -> float:
        """Draw this round's injected delay for ``client_id``."""
        lo, hi = self.bands[self.part_of(client_id)]
        if hi == lo:
            return lo
        return float(rng.uniform(lo, hi))

    def band_edges(self, client_ids=None) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of every client's band, over ``client_ids`` (all
        clients when None)."""
        parts = self.assignment if client_ids is None else self.assignment[client_ids]
        edges = np.asarray(self.bands, dtype=np.float64)[parts]
        return edges[:, 0], edges[:, 1]


@dataclass(frozen=True)
class ComputeModel:
    """Local-training compute time: ``base + per_sample × samples × epochs``."""

    per_sample: float = 0.002
    base: float = 0.05

    def duration(self, n_samples: int, epochs: int) -> float:
        if n_samples < 0 or epochs < 0:
            raise ValueError("n_samples and epochs must be non-negative")
        return self.base + self.per_sample * n_samples * epochs


@dataclass(frozen=True)
class ResponseLatencyModel:
    """Full round-trip latency for one client round.

    ``bandwidth_bytes_per_s=None`` disables transfer-time modelling (the
    paper reports communication as bytes, not seconds; enabling a finite
    bandwidth lets the communication-bottleneck effect of FedAsync appear in
    the *time* axis too).
    """

    delays: TierDelayModel
    compute: ComputeModel = ComputeModel()
    bandwidth_bytes_per_s: float | None = None

    def transfer_seconds(
        self, payload_bytes: int, *, bandwidth_scale: float = 1.0
    ) -> float:
        """Transfer time for ``payload_bytes`` over the (scaled) link.

        ``bandwidth_scale`` is the fraction of the nominal bandwidth still
        available (bandwidth-drift scenarios shrink it over time); with no
        finite bandwidth configured the transfer term is zero.
        """
        if not self.bandwidth_bytes_per_s or payload_bytes <= 0:
            return 0.0
        if bandwidth_scale <= 0:
            raise ValueError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
        return payload_bytes / (self.bandwidth_bytes_per_s * bandwidth_scale)

    def round_latency(
        self,
        client_id: int,
        n_samples: int,
        epochs: int,
        rng: np.random.Generator,
        *,
        payload_bytes: int = 0,
        bandwidth_scale: float = 1.0,
    ) -> float:
        """Sample the latency of one local round for ``client_id``."""
        t = self.compute.duration(n_samples, epochs)
        t += self.delays.sample_delay(client_id, rng)
        t += self.transfer_seconds(payload_bytes, bandwidth_scale=bandwidth_scale)
        return t

    def sample_latencies(
        self, client_ids, n_samples, epochs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`round_latency` without payload for every client of
        ``client_ids`` (all clients when None), ``n_samples`` aligned with
        them or one count for all.

        Bit-identical to the scalar calls in id order: a delay is drawn
        only for a client whose band has width, and one element-wise
        ``rng.uniform`` over arrays consumes the stream as the scalar draws
        do.
        """
        lo, hi = self.delays.band_edges(client_ids)
        delays = lo.copy()
        wide = hi > lo
        delays[wide] = rng.uniform(lo[wide], hi[wide])
        sizes = np.asarray(n_samples, dtype=np.int64)
        return self.compute.base + self.compute.per_sample * sizes * epochs + delays
