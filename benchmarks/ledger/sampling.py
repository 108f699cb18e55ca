"""Sampling protocol: the frozen machine probe, regime levels, the gate, summaries.

The box this ledger was built on is a 2-vCPU VM whose speed moves with its
neighbours: *slow regimes* lasting from 15 s to many minutes in which a
CPU-bound repetition takes 15–70 % longer, and the whole of a 25 s workload
run can sit inside one. The probe is a fixed NumPy kernel (≈8 ms) that
speeds up and slows down with the workloads. A probe *reading* is the
fastest and the median of five kernels; the fastest kernel of a whole run —
the *floor* — is reached even inside a slow regime (the slowness is bursty),
so it identifies the machine, and a reading's median over the floor — the
*level* — says how slow the machine is right now (1.05–1.10 when quiet,
1.3–2.0 in a slow regime).

Every timed sample is bracketed by two readings. Its level is used twice:

* to **gate**: a workload with too few samples at or below ``GATE_LEVEL`` is
  flagged ``noisy`` (a cell's batch of calls is re-run instead; workload
  samples are not, because a slow regime outlasts any run the PR driver's
  time budget allows);
* to **normalise**: a repetition's wall time follows ``level ** exponent``.
  Pairing, by derived seed, ten runs per workload made on a calm box (level
  ≈1.1) with the same ten made inside a regime (level ≈1.6) gave exponents of
  1.04–1.25 for the three CPU-bound workloads and 0.43 for the one that
  mostly waits on a timer; a 27-min recording of alternating regimes gave
  0.8 and 0.1–0.6. Multiplying each rate by ``level ** exponent`` (1.0 and
  0.4, part of each workload's definition) brought the two sets' medians
  from 16–37 % apart to 2–13 %. The law is a model of this machine's
  contention, not of the program under test.

FROZEN: changing the kernel's arrays or operations changes what a level
means and breaks comparison with every committed ledger. It must never
import ``repro``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = [
    "probe",
    "settle",
    "floor_of",
    "level_of",
    "normalise",
    "percentile",
    "summarize",
    "spread",
    "GATE_LEVEL",
]

#: A sample bracketed by a level above this counts against ``noisy``.
GATE_LEVEL = 1.40
#: :func:`settle` stops after this many consecutive readings within
#: ``SETTLE_TOLERANCE`` of the fastest kernel seen.
SETTLE_RUN = 5
SETTLE_TOLERANCE = 1.10

# Small matmul / tanh / max operations at the bench CNN's shapes (a batch of
# ten 8x8x3 images through 3x3 convolutions of 6 and 12 filters, a 2x2 max
# pool and the 24-unit dense layer).
_rng = np.random.default_rng(20210913)
_COLS1 = _rng.standard_normal((640, 27))
_K1 = _rng.standard_normal((27, 6))
_COLS2 = _rng.standard_normal((160, 54))
_K2 = _rng.standard_normal((54, 12))
_DENSE_IN = _rng.standard_normal((10, 48))
_DENSE = _rng.standard_normal((48, 24))
_OUT1 = np.empty((640, 6))
_OUT2 = np.empty((160, 12))
_OUT3 = np.empty((10, 24))
_KERNEL_ROUNDS = 200
_WARM_KERNELS = 2
_TIMED_KERNELS = 5
del _rng


def _kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(_KERNEL_ROUNDS):
        np.matmul(_COLS1, _K1, out=_OUT1)
        np.tanh(_OUT1, out=_OUT1)
        pooled = _OUT1.reshape(160, 4, 6).max(axis=1)
        np.matmul(_COLS2, _K2, out=_OUT2)
        np.maximum(_OUT2, 0.0, out=_OUT2)
        np.matmul(_DENSE_IN, _DENSE, out=_OUT3)
        np.tanh(_OUT3, out=_OUT3)
        pooled.sum()
    return time.perf_counter() - t0


def probe() -> tuple[float, float]:
    """One reading: ``(fastest, median)`` seconds of five kernels (≈60 ms).

    Two kernels run first and are not timed: the workload that just ran has
    evicted the kernel's arrays, and a reading must not depend on how much
    cache the program under test happens to touch.
    """
    for _ in range(_WARM_KERNELS):
        _kernel()
    timed = sorted(_kernel() for _ in range(_TIMED_KERNELS))
    return timed[0], timed[_TIMED_KERNELS // 2]


def settle(cap_seconds: float) -> list[tuple[float, float]]:
    """Spin the probe until the machine looks quiet; returns every reading.

    Quiet = ``SETTLE_RUN`` consecutive reading medians within
    ``SETTLE_TOLERANCE`` of the fastest kernel seen so far. Gives up
    (returning what it has) after ``cap_seconds``: a slow regime can outlast
    any affordable wait, and the level then corrects what the gate lets by.
    """
    readings: list[tuple[float, float]] = []
    deadline = time.monotonic() + cap_seconds
    while True:
        readings.append(probe())
        tail = [median for _, median in readings[-SETTLE_RUN:]]
        settled = len(tail) == SETTLE_RUN and max(tail) <= SETTLE_TOLERANCE * floor_of(readings)
        if settled or time.monotonic() >= deadline:
            return readings


def floor_of(readings) -> float:
    """The fastest kernel among ``(fastest, median)`` readings."""
    return min(fastest for fastest, _ in readings)


def level_of(before, after, floor: float) -> float:
    """How slow the machine was around a sample bracketed by two readings."""
    return (before[1] + after[1]) / (2.0 * floor)


def normalise(rate: float, level: float, exponent: float) -> float:
    """The rate the sample would have shown at level 1.0 (the floor)."""
    return rate * max(level, 1.0) ** exponent


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def summarize(values, *, scale: float = 1.0) -> dict:
    """Median with n, IQR and min alongside; p90 from 100 samples up."""
    values = [v * scale for v in values]
    if not values:
        return {"median": None, "n": 0, "iqr": None, "min": None}
    median = statistics.median(values)
    out = {"median": median, "n": len(values), "iqr": spread(values) * median, "min": min(values)}
    if len(values) >= 100:
        out["p90"] = percentile(values, 0.90)
    return out


def spread(values) -> float:
    """IQR as a share of the median (the PR driver's steadiness statistic)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else float("inf")
