"""The paper's two wire formats behind one interface, with wire-size
accounting.

Every codec maps a flat float weight vector to a :class:`Payload` whose
``nbytes`` is what the network meter charges. Baselines that do not compress
ship raw float32 (4 bytes/weight — the TensorFlow wire format the paper's
baselines use); FedAT ships polyline ASCII (1 byte/char).

``encode`` / ``decode`` are the wire format. A simulated transfer needs
only its two outcomes — what the receiver decodes and how many bytes went
over the wire — so the run loop calls :meth:`Codec.transmit` once per
stack of messages instead: bit for bit and byte for byte the per-row round
trip, in one vectorised pass.
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
    """Encode/decode flat weight vectors; report wire bytes.

    The contract both wire formats keep: :class:`NullCodec` (the
    baselines) and :class:`PolylineCodec` (FedAT). Each implements
    ``encode``, ``decode`` and ``transmit``; the base only chains the first
    two into ``roundtrip``.
    """

    name = "base"

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
        ``encode(row).nbytes``, row by row, bit for bit, in one vectorised
        pass. The stack is handed over: a codec may write the received
        weights into it.
        """
        raise NotImplementedError


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


def compression_ratio(payload: Payload, *, reference_bytes: int = RAW_BYTES_PER_WEIGHT) -> float:
    """Wire-size ratio versus an uncompressed reference (>1 means smaller).

    Default reference is float32 (4 B/weight). The paper's "up to 3.5×"
    figure corresponds to a float64/text serialization reference
    (``reference_bytes=8``); both are reported by the compression bench.
    """
    raw = payload.n_values * reference_bytes
    return raw / max(payload.nbytes, 1)


def make_codec(spec: str | None) -> Codec:
    """Build a codec from a config string: ``None`` → :class:`NullCodec`
    (the baselines' raw float32), ``"polyline:4"`` → polyline at precision
    4 (``"polyline"`` alone means 4, the paper's default)."""
    if spec is None:
        return NullCodec()
    kind, _, arg = spec.partition(":")
    if kind != "polyline":
        raise ValueError(
            f"unknown codec spec {spec!r}: the codecs are 'polyline[:precision]' "
            "and None (raw float32)"
        )
    try:
        return PolylineCodec(int(arg) if arg else 4)
    except ValueError as exc:  # an argument that does not parse, or is out of range
        raise ValueError(f"codec spec {spec!r}: {exc}") from None
