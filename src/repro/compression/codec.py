"""Codec interface and implementations with wire-size accounting.

Every codec maps a flat float weight vector to a :class:`Payload` whose
``nbytes`` is what the network meter charges. Baselines that do not compress
ship raw float32 (4 bytes/weight — the TensorFlow wire format the paper's
baselines use); FedAT ships polyline ASCII (1 byte/char).

``encode`` / ``decode`` are the wire format. A simulated transfer needs
only its two outcomes — what the receiver decodes and how many bytes went
over the wire — so the run loop calls :meth:`Codec.transmit` once per
stack of messages instead: bit for bit and byte for byte the per-row round
trip, in one vectorised pass where a codec has one (null, polyline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compression.polyline import polyline_decode, polyline_encode, polyline_transmit

__all__ = [
    "Payload",
    "Codec",
    "NullCodec",
    "PolylineCodec",
    "QuantizationCodec",
    "TopKCodec",
    "SubsampleCodec",
    "compression_ratio",
]

RAW_BYTES_PER_WEIGHT = 4  # float32 wire format


@dataclass(frozen=True)
class Payload:
    """An encoded weight vector plus its wire size in bytes."""

    data: Any
    nbytes: int
    codec: str
    n_values: int

    @property
    def bytes_per_weight(self) -> float:
        return self.nbytes / max(self.n_values, 1)


class Codec:
    """Encode/decode flat weight vectors; report wire bytes."""

    name = "base"
    #: True when encode() is a pure function of the input vector. Stateful
    #: codecs (anything drawing an RNG per message) must set this False so
    #: the downlink encode cache never elides their per-send state updates.
    deterministic = True

    def encode(self, flat: np.ndarray) -> Payload:
        raise NotImplementedError

    def decode(self, payload: Payload) -> np.ndarray:
        raise NotImplementedError

    def roundtrip(self, flat: np.ndarray) -> tuple[np.ndarray, Payload]:
        """Encode then decode — what a send/receive pair does end to end."""
        payload = self.encode(flat)
        return self.decode(payload), payload

    def transmit(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Send each row of an ``(n, P)`` float64 stack as one message.

        Returns the ``(n, P)`` float64 weights the receiver decodes and the
        wire bytes of each message (int64): ``decode(encode(row))`` and
        ``encode(row).nbytes``, row by row in row order, bit for bit — a
        stateful codec draws once per row, as per-row encodes would. The
        stack is handed over: a codec may write the received weights into
        it. This default runs that loop; a codec with a vectorised form
        overrides it.
        """
        received = np.empty(rows.shape)
        nbytes = np.empty(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            payload = self.encode(row)
            received[i] = self.decode(payload)
            nbytes[i] = payload.nbytes
        return received, nbytes


class NullCodec(Codec):
    """No compression: raw float32, 4 bytes per weight."""

    name = "none"

    def encode(self, flat: np.ndarray) -> Payload:
        arr = np.asarray(flat, dtype=np.float32)
        return Payload(arr, arr.size * RAW_BYTES_PER_WEIGHT, self.name, arr.size)

    def decode(self, payload: Payload) -> np.ndarray:
        return np.asarray(payload.data, dtype=np.float64)

    def transmit(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        received = np.asarray(rows, dtype=np.float64)
        # The float32 round trip, cast in place: the float32 loop of a
        # ufunc writing back into its float64 input rounds exactly as
        # astype(float32) does, without a copy of the stack.
        np.positive(received, out=received, dtype=np.float32)
        return received, np.full(len(received), received.shape[1] * RAW_BYTES_PER_WEIGHT)


class PolylineCodec(Codec):
    """The paper's codec: polyline encoding at a decimal precision.

    ``precision=4`` is the paper's default (§7.2.2) — it approaches the
    no-compression accuracy while cutting bytes substantially.
    """

    name = "polyline"

    def __init__(self, precision: int = 4):
        if not 1 <= precision <= 12:
            raise ValueError(f"precision must be in [1, 12], got {precision}")
        self.precision = precision

    def encode(self, flat: np.ndarray) -> Payload:
        s = polyline_encode(np.asarray(flat, dtype=np.float64), self.precision)
        return Payload(s, len(s), f"{self.name}:p{self.precision}", int(np.size(flat)))

    def decode(self, payload: Payload) -> np.ndarray:
        out = polyline_decode(payload.data, self.precision)
        if out.size != payload.n_values:
            raise ValueError(
                f"decoded {out.size} values, payload declared {payload.n_values}"
            )
        return out

    def transmit(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return polyline_transmit(rows, self.precision)


class QuantizationCodec(Codec):
    """Uniform k-bit quantization (ablation comparator, §2.2 related work).

    Stores min/max per message and k-bit codes; wire size is
    ``ceil(n * bits / 8) + 8`` bytes.
    """

    name = "quant"

    def __init__(self, bits: int = 8):
        if not 1 <= bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        self.bits = bits

    def encode(self, flat: np.ndarray) -> Payload:
        arr = np.asarray(flat, dtype=np.float64)
        if arr.size == 0:
            return Payload(
                (np.empty(0, dtype=np.uint16), 0.0, 0.0),
                0,
                f"{self.name}:{self.bits}b",
                0,
            )
        lo, hi = float(arr.min()), float(arr.max())
        span = hi - lo if hi > lo else 1.0
        levels = (1 << self.bits) - 1
        codes = np.rint((arr - lo) / span * levels).astype(np.uint16)
        nbytes = (arr.size * self.bits + 7) // 8 + 8  # codes + two float32 stats
        return Payload((codes, lo, hi), nbytes, f"{self.name}:{self.bits}b", arr.size)

    def decode(self, payload: Payload) -> np.ndarray:
        codes, lo, hi = payload.data
        span = hi - lo if hi > lo else 1.0
        levels = (1 << self.bits) - 1
        return lo + codes.astype(np.float64) / levels * span


class TopKCodec(Codec):
    """Magnitude top-k sparsification (ablation comparator).

    Ships the k largest-magnitude entries as (index, float32 value) pairs;
    the receiver fills the rest with zeros. Intended for *update deltas*;
    applying it to absolute weights is lossy in a way the ablation bench
    demonstrates.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.1):
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def encode(self, flat: np.ndarray) -> Payload:
        arr = np.asarray(flat, dtype=np.float64)
        k = min(arr.size, max(1, int(round(arr.size * self.fraction))))
        if k == 0:  # empty vector: nothing to ship
            return Payload(
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32), 0),
                0,
                self.name,
                0,
            )
        idx = np.argpartition(np.abs(arr), arr.size - k)[-k:]
        vals = arr[idx].astype(np.float32)
        nbytes = k * (4 + 4)  # int32 index + float32 value
        return Payload((idx.copy(), vals, arr.size), nbytes, self.name, arr.size)

    def decode(self, payload: Payload) -> np.ndarray:
        idx, vals, size = payload.data
        out = np.zeros(size, dtype=np.float64)
        out[idx] = vals
        return out


class SubsampleCodec(Codec):
    """Random-mask sketched updates (Konečný et al. 2016, paper §2.2).

    Ships a random ``fraction`` of the weights (float32) plus the mask seed;
    the receiver keeps its previous values for unsent coordinates — here
    modelled by zero-filling, which is exact when applied to *deltas*. A
    related-work comparator for the ablation benches: the paper notes such
    sketches "can significantly slow down convergence" under non-IID data.
    """

    name = "subsample"
    #: Each encode draws a fresh random mask — caching one would freeze the
    #: mask across sends and skip RNG draws, changing the simulation.
    deterministic = False

    def __init__(self, fraction: float = 0.25, seed: int = 0):
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self._rng = np.random.default_rng(seed)

    def encode(self, flat: np.ndarray) -> Payload:
        arr = np.asarray(flat, dtype=np.float64)
        k = min(arr.size, max(1, int(round(arr.size * self.fraction))))
        if k == 0:  # empty vector: nothing to ship
            return Payload(
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32), 0),
                0,
                self.name,
                0,
            )
        idx = np.sort(self._rng.choice(arr.size, size=k, replace=False))
        vals = arr[idx].astype(np.float32)
        # Wire: float32 values + 8-byte mask seed (indices are regenerated
        # from the seed on the receiver, as in the sketched-updates paper).
        nbytes = k * 4 + 8
        return Payload((idx, vals, arr.size), nbytes, self.name, arr.size)

    def decode(self, payload: Payload) -> np.ndarray:
        idx, vals, size = payload.data
        out = np.zeros(size, dtype=np.float64)
        out[idx] = vals
        return out


def compression_ratio(payload: Payload, *, reference_bytes: int = RAW_BYTES_PER_WEIGHT) -> float:
    """Wire-size ratio versus an uncompressed reference (>1 means smaller).

    Default reference is float32 (4 B/weight). The paper's "up to 3.5×"
    figure corresponds to a float64/text serialization reference
    (``reference_bytes=8``); both are reported by the compression bench.
    """
    raw = payload.n_values * reference_bytes
    return raw / max(payload.nbytes, 1)


def make_codec(spec: str | None) -> Codec:
    """Build a codec from a config string.

    ``None`` → :class:`NullCodec`; ``"polyline:4"`` → polyline at precision
    4; ``"quant:8"`` → 8-bit quantization; ``"topk:0.1"`` → top-10%
    sparsification.
    """
    if spec is None:
        return NullCodec()
    kind, _, arg = spec.partition(":")
    try:
        if kind == "polyline":
            return PolylineCodec(int(arg) if arg else 4)
        if kind == "quant":
            return QuantizationCodec(int(arg) if arg else 8)
        if kind == "topk":
            return TopKCodec(float(arg) if arg else 0.1)
        if kind == "subsample":
            return SubsampleCodec(float(arg) if arg else 0.25)
    except ValueError as exc:  # an argument that does not parse, or is out of range
        raise ValueError(f"codec spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown codec spec {spec!r}")
