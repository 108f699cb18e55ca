"""Vectorized Google Encoded Polyline codec for float sequences.

The algorithm (developers.google.com/maps/documentation/utilities/
polylinealgorithm), generalized from lat/lng pairs to arbitrary 1-D float
sequences exactly as the paper uses it for marshalled model weights:

1. round each value to ``precision`` decimal places and scale to an integer;
2. delta-encode consecutive integers (weights are locally correlated after
   rounding, so deltas are small);
3. zigzag: left-shift one bit, bitwise-invert if negative;
4. split into 5-bit chunks, little-endian; OR each chunk except the last
   with 0x20; add 63 → printable ASCII.

Both directions are vectorized — no Python-level loop over values. The
encoder processes ~1e6 weights in tens of milliseconds, which keeps the
communication-cost benchmarks honest about *measuring* rather than
simulating compression.

A simulated run needs only what a message carries: the rounded values and
its length. :func:`polyline_transmit` computes both for a whole stack of
messages from steps 1-3 alone — the decoded values are the scaled integers
over ``10**precision`` and the length counts each value's 5-bit chunks
exactly — so the run loop never spells a string to measure it. The tests
pin both to ``polyline_decode(polyline_encode(row))`` and
``len(polyline_encode(row))``, bit for bit and byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["polyline_encode", "polyline_decode", "polyline_transmit", "MAX_ABS_VALUE"]

# 5-bit chunks: zigzagged deltas must fit in _MAX_CHUNKS * 5 = 60 bits.
_MAX_CHUNKS = 12
#: Largest representable |value| at precision ``p`` is MAX_ABS_VALUE / 10**p.
#: The binding constraint is the *delta* between consecutive scaled values:
#: two extremes ±M produce a delta of 2M whose zigzag is 4M, which must fit
#: the 60-bit chunk budget — so M < 2**58 (not 2**61, which would let
#: per-value-legal sequences overflow at decode time).
MAX_ABS_VALUE = float(2**58)


def _scaled_zigzag(values: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 for each row of an ``(n, P)`` stack, one message per row.

    Returns the scaled integers (int64) and the zigzagged deltas along each
    row (uint64). Raises ``ValueError`` for a precision outside [0, 12],
    non-finite input, or a value too large for the precision (|v| * 10^p
    must stay below ``MAX_ABS_VALUE`` = 2^58, so that worst-case zigzagged
    *deltas* fit the 60-bit chunk budget).
    """
    if not 0 <= precision <= 12:
        raise ValueError(f"precision must be in [0, 12], got {precision}")
    if not np.all(np.isfinite(values)):
        raise ValueError("polyline_encode requires finite values")
    scale = 10.0**precision
    scaled = values * scale
    np.rint(scaled, out=scaled)  # in place: fewer (n, P) temporaries, same bits
    if np.any(np.abs(scaled) >= MAX_ABS_VALUE):
        raise ValueError(
            f"value too large for precision {precision}: max |v| is "
            f"{MAX_ABS_VALUE / scale:g}"
        )
    ints = scaled.astype(np.int64)
    deltas = np.empty_like(ints)
    deltas[:, :1] = ints[:, :1]
    np.subtract(ints[:, 1:], ints[:, :-1], out=deltas[:, 1:])
    # Zigzag: (v << 1) ^ (v >> 63) maps sign into the low bit.
    sign = deltas >> 63
    deltas <<= 1
    deltas ^= sign
    return ints, deltas.view(np.uint64)


def polyline_encode(values: np.ndarray, precision: int = 5) -> str:
    """Encode a 1-D float array into a polyline ASCII string.

    Raises ``ValueError`` for non-finite input or values too large for the
    chosen precision (|v| * 10^p must stay below ``MAX_ABS_VALUE`` = 2^58,
    so that worst-case zigzagged *deltas* fit the 60-bit chunk budget).
    """
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    _, zz = _scaled_zigzag(values, precision)
    if zz.size == 0:
        return ""
    zz = zz[0]
    n = zz.size
    # Size the chunk matrix to the widest value actually present (typical
    # trained weights need 2-3 chunks, not the 12-chunk worst case).
    max_chunks = max(1, (int(zz.max()).bit_length() + 4) // 5)
    # chunk j of each value: bits [5j, 5j+5); emitted while higher bits remain.
    shifts = (np.arange(max_chunks, dtype=np.uint64) * np.uint64(5))[None, :]
    expanded = zz[:, None] >> shifts  # (n, max_chunks)
    chunks = (expanded & np.uint64(0x1F)).astype(np.uint8)
    has_more = (expanded >> np.uint64(5)) > 0  # continuation flag per chunk
    valid = np.ones((n, max_chunks), dtype=bool)
    valid[:, 1:] = expanded[:, 1:] > 0  # chunk 0 always emitted
    chars = chunks | (has_more.astype(np.uint8) << 5)
    chars = chars + 63
    # Row-major flatten keeps per-value chunk order.
    return chars[valid].tobytes().decode("ascii")


def polyline_transmit(rows: np.ndarray, precision: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Send each row of an ``(n, P)`` stack as its own polyline string,
    without spelling the strings: returns the ``(n, P)`` float64 values the
    receiver decodes and each string's length in bytes.

    Row ``i`` equals ``polyline_decode(polyline_encode(rows[i]))`` bit for
    bit — the scaled integers over ``10**precision``, so a value that rounds
    to -0 arrives as +0, as it does through the string — and ``nbytes[i]``
    is ``len(polyline_encode(rows[i]))``: one byte per 5-bit chunk, at least
    one per value. Raises the same ``ValueError``s as the encoder.
    """
    ints, zz = _scaled_zigzag(np.asarray(rows, dtype=np.float64), precision)
    nbytes = np.full(len(zz), zz.shape[1], dtype=np.int64)  # chunk 0 of every value
    top = int(zz.max()).bit_length() if zz.size else 0
    for shift in range(5, top, 5):  # chunk j is sent when zz >= 2**(5j)
        nbytes += np.count_nonzero(zz >= 1 << shift, axis=1)
    return ints / 10.0**precision, nbytes


def polyline_decode(encoded: str, precision: int = 5) -> np.ndarray:
    """Decode a polyline string back to a float array.

    Inverse of :func:`polyline_encode` up to the rounding applied at encode
    time: ``decode(encode(v)) == round(v, precision)`` element-wise.
    """
    if not 0 <= precision <= 12:
        raise ValueError(f"precision must be in [0, 12], got {precision}")
    if not encoded:
        return np.empty(0, dtype=np.float64)
    raw = np.frombuffer(encoded.encode("ascii"), dtype=np.uint8)
    c = raw.astype(np.int64) - 63
    if np.any(c < 0) or np.any(c > 63):
        raise ValueError("invalid polyline character")
    is_last = (c & 0x20) == 0
    if not is_last[-1]:
        raise ValueError("truncated polyline string")
    # Group id for each chunk: 0-based index of the value it belongs to.
    group = np.zeros(c.size, dtype=np.int64)
    group[1:] = np.cumsum(is_last[:-1])
    n_values = int(group[-1]) + 1
    # Position of each chunk within its group.
    group_start = np.zeros(n_values, dtype=np.int64)
    group_start[1:] = np.flatnonzero(is_last)[:-1] + 1
    offset = np.arange(c.size, dtype=np.int64) - group_start[group]
    if np.any(offset >= _MAX_CHUNKS):
        raise ValueError("polyline chunk run too long")
    contrib = (c & 0x1F).astype(np.uint64) << (offset.astype(np.uint64) * np.uint64(5))
    zz = np.zeros(n_values, dtype=np.uint64)
    np.add.at(zz, group, contrib)
    zz_signed = zz.astype(np.int64)
    deltas = (zz_signed >> 1) ^ -(zz_signed & 1)
    ints = np.cumsum(deltas)
    return ints / (10.0**precision)
