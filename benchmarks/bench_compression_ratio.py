"""§7.2.2 — compression ratio microbenchmark.

Paper claim reproduced: polyline encoding achieves a compression ratio of
up to ≈3.5× on model weights (the paper's TF float serialization is an
8-byte reference; against float32 the ratio is correspondingly smaller).
Also times the codec itself — compression must be cheap relative to
training for the system to make sense — and checks that
``PolylineCodec.transmit``, which the run loop calls instead of the
string path, gives the string's decoded bits and its length.
"""

import numpy as np
import pytest

from repro.compression.codec import PolylineCodec, compression_ratio
from repro.nn.zoo import build_cnn


@pytest.fixture(scope="module")
def trained_like_weights():
    """Weight vector with realistic trained-CNN statistics."""
    rng = np.random.default_rng(0)
    model = build_cnn((16, 16, 3), 10, rng=rng)
    flat = model.get_flat_weights()
    # Add optimizer-step-like perturbations so values aren't pure init.
    return flat + rng.normal(0, 0.01, flat.shape)


@pytest.mark.parametrize("precision", [3, 4, 5, 6])
def test_compression_ratio(benchmark, trained_like_weights, precision):
    codec = PolylineCodec(precision)
    payload = benchmark(codec.encode, trained_like_weights)
    r32 = compression_ratio(payload)
    r64 = compression_ratio(payload, reference_bytes=8)
    print(
        f"\n  precision {precision}: {payload.bytes_per_weight:.2f} B/weight, "
        f"ratio vs float32 = {r32:.2f}x, vs float64 = {r64:.2f}x"
    )
    if precision == 4:
        # Paper's headline: "compression ratio up to 3.5×".
        assert r64 > 2.5, f"expected ≳3x vs 8-byte reference, got {r64:.2f}"
        assert r32 > 1.25
    # Decode must invert exactly (up to rounding).
    out = codec.decode(payload)
    np.testing.assert_allclose(
        out, np.round(trained_like_weights, precision), atol=10.0**-precision
    )
    # The run loop never spells the string: transmit must give the bits
    # the string decodes to and the bytes it takes.
    received, nbytes = codec.transmit(trained_like_weights[None])
    np.testing.assert_array_equal(received[0].view(np.int64), out.view(np.int64))
    assert nbytes.tolist() == [len(payload.data)]


def test_decode_speed(benchmark, trained_like_weights):
    codec = PolylineCodec(4)
    payload = codec.encode(trained_like_weights)
    out = benchmark(codec.decode, payload)
    assert out.size == trained_like_weights.size
