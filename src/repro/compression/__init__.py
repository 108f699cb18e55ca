"""Model-weight compression (paper §4.3).

FedAT compresses both uplink and downlink traffic with the Google Encoded
Polyline Algorithm: round to a decimal precision, delta-encode, zigzag, and
emit base64-style 5-bit ASCII chunks. :mod:`repro.compression.polyline`
implements the codec vectorized over NumPy arrays;
:mod:`repro.compression.codec` wraps it behind a common interface together
with the no-op codec the baselines use (raw float32).
"""

from repro.compression.codec import (
    Codec,
    NullCodec,
    Payload,
    PolylineCodec,
    compression_ratio,
    make_codec,
)
from repro.compression.polyline import polyline_decode, polyline_encode

__all__ = [
    "polyline_encode",
    "polyline_decode",
    "Codec",
    "Payload",
    "PolylineCodec",
    "NullCodec",
    "compression_ratio",
    "make_codec",
]
