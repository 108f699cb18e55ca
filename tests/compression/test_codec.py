"""Codec interface tests: payload accounting, ratios, factory, transmit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.codec import (
    Codec,
    NullCodec,
    PolylineCodec,
    compression_ratio,
    make_codec,
)


class TestCodecContract:
    @pytest.mark.parametrize("method", ["encode", "decode", "transmit"])
    def test_the_base_implements_no_wire_format(self, method):
        """Each codec brings its own ``encode``, ``decode`` and ``transmit``;
        the base has no per-row fallback to inherit."""
        with pytest.raises(NotImplementedError):
            getattr(Codec(), method)(np.zeros((1, 3)))

    def test_null_payload_is_the_float32_reference(self, rng):
        payload = NullCodec().encode(rng.normal(size=40))
        assert payload.bytes_per_weight == 4.0
        assert compression_ratio(payload) == 1.0
        assert compression_ratio(payload, reference_bytes=8) == 2.0

    def test_empty_payload_accounts_zero(self):
        for codec in (NullCodec(), PolylineCodec(4)):
            payload = codec.encode(np.array([]))
            assert payload.bytes_per_weight == 0.0
            assert compression_ratio(payload) == 0.0


class TestNullCodec:
    def test_four_bytes_per_weight(self, rng):
        flat = rng.normal(size=123)
        payload = NullCodec().encode(flat)
        assert payload.nbytes == 4 * 123
        assert payload.n_values == 123

    def test_roundtrip_is_float32_cast(self, rng):
        flat = rng.normal(size=50)
        out, _ = NullCodec().roundtrip(flat)
        np.testing.assert_allclose(out, flat.astype(np.float32), atol=0)


class TestPolylineCodec:
    def test_roundtrip_precision(self, rng):
        flat = rng.normal(0, 0.2, size=400)
        codec = PolylineCodec(4)
        out, payload = codec.roundtrip(flat)
        np.testing.assert_allclose(out, np.round(flat, 4), atol=5.1e-5)
        assert payload.nbytes == len(payload.data)

    def test_payload_value_count_checked(self, rng):
        codec = PolylineCodec(4)
        payload = codec.encode(rng.normal(size=10))
        bad = type(payload)(payload.data, payload.nbytes, payload.codec, 11)
        with pytest.raises(ValueError):
            codec.decode(bad)

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            PolylineCodec(0)
        with pytest.raises(ValueError):
            PolylineCodec(13)

    def test_beats_raw_float32_on_weights(self, rng):
        flat = rng.normal(0, 0.1, size=20_000)
        payload = PolylineCodec(4).encode(flat)
        assert compression_ratio(payload) > 1.2
        # Paper's "up to 3.5×" is vs an 8-byte/text reference.
        assert compression_ratio(payload, reference_bytes=8) > 2.4


#: Values that historically break codecs: signed zeros, subnormals, huge
#: and tiny magnitudes (the largest stays well inside polyline's delta
#: budget at precision 4).
_EDGE_VALUES = [
    0.0, -0.0,
    5e-324, -5e-324,  # smallest subnormals
    2.2250738585072014e-308,  # smallest normal
    1e-40, -1e-40,
    1e8, -1e8, 123456.789,
]

_edge_floats = st.one_of(
    st.floats(
        min_value=-1e8, max_value=1e8, allow_nan=False, allow_subnormal=True
    ),
    st.sampled_from(_EDGE_VALUES),
)

_edge_arrays = st.lists(_edge_floats, min_size=0, max_size=64).map(
    lambda xs: np.array(xs, dtype=np.float64)
)


class TestEdgeInputProperties:
    """Hypothesis round-trip properties on adversarial inputs.

    Every codec must survive empty vectors, ±0.0, subnormals, and large
    magnitudes: same length out as in, finite output, correct byte
    accounting, and codec-specific error bounds.
    """

    @settings(max_examples=60, deadline=None)
    @given(flat=_edge_arrays)
    def test_every_codec_survives_edge_vectors(self, flat):
        for codec in (NullCodec(), PolylineCodec(4)):
            out, payload = codec.roundtrip(flat.copy())
            assert out.size == flat.size
            assert payload.n_values == flat.size
            assert np.all(np.isfinite(out))
            assert payload.nbytes >= 0
            if flat.size == 0:
                assert payload.nbytes == 0

    @settings(max_examples=60, deadline=None)
    @given(flat=_edge_arrays, precision=st.integers(1, 6))
    def test_polyline_error_bounded_by_precision(self, flat, precision):
        out, _ = PolylineCodec(precision).roundtrip(flat)
        # Delta encoding is exact in int64, so the only loss is the initial
        # rounding to `precision` decimals.
        atol = 0.5000001 * 10.0 ** (-precision)
        np.testing.assert_allclose(out, flat, atol=atol, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(flat=_edge_arrays)
    def test_signed_zeros_and_subnormals_decode_to_zero(self, flat):
        tiny = np.abs(flat) < 1e-9
        out, _ = PolylineCodec(4).roundtrip(flat)
        np.testing.assert_array_equal(out[tiny], np.zeros(int(tiny.sum())))

    @settings(max_examples=40, deadline=None)
    @given(
        magnitude=st.floats(min_value=1.0, max_value=1e30),
        precision=st.integers(1, 6),
    )
    def test_polyline_large_magnitudes_roundtrip_or_reject(self, magnitude, precision):
        """Below the delta-safe magnitude bound values round-trip; above it
        the encoder refuses loudly instead of silently corrupting weights."""
        from repro.compression.polyline import MAX_ABS_VALUE

        limit = MAX_ABS_VALUE / 10.0**precision
        flat = np.array([magnitude, -magnitude])
        codec = PolylineCodec(precision)
        if magnitude >= limit:
            with pytest.raises(ValueError):
                codec.encode(flat)
        else:
            out, _ = codec.roundtrip(flat)
            np.testing.assert_allclose(
                out, flat, atol=0.5000001 * 10.0 ** (-precision), rtol=1e-12
            )

    def test_empty_vector_roundtrips(self):
        for codec in (NullCodec(), PolylineCodec(4)):
            out, payload = codec.roundtrip(np.array([]))
            assert out.size == 0
            assert payload.nbytes == 0
            assert payload.n_values == 0


#: Every spec ``make_codec`` builds: the null codec and every polyline
#: precision.
_SPECS = [None, *(f"polyline:{p}" for p in range(1, 13))]

_edge_stacks = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 4), st.integers(0, 16)),
    elements=_edge_floats,
)


def _assert_transmit_is_the_string_path(spec, rows):
    """``transmit(rows)`` of a fresh codec against a twin that encodes and
    decodes row by row: the same bits (signed zeros included), the same
    bytes per row and the same ``ValueError`` text."""
    sender, twin = make_codec(spec), make_codec(spec)
    try:
        expected = [twin.roundtrip(row) for row in rows]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            sender.transmit(rows.copy())
        return
    received, nbytes = sender.transmit(rows.copy())
    assert received.dtype == np.float64 and received.shape == rows.shape
    want = np.array([out for out, _ in expected], dtype=np.float64).reshape(rows.shape)
    np.testing.assert_array_equal(received.view(np.int64), want.view(np.int64))
    assert nbytes.dtype == np.int64
    assert nbytes.tolist() == [payload.nbytes for _, payload in expected]


class TestTransmit:
    """``Codec.transmit`` is the string path's outcome, one stack at a time."""

    @settings(max_examples=40, deadline=None)
    @given(rows=_edge_stacks)
    @pytest.mark.parametrize("spec", _SPECS)
    def test_every_codec_transmits_its_round_trip(self, spec, rows):
        _assert_transmit_is_the_string_path(spec, rows)

    @pytest.mark.parametrize("spec", _SPECS)
    def test_degenerate_shapes(self, spec, rng):
        for shape in [(1, 0), (3, 0), (0, 5), (1, 1), (4, 1), (1, 7)]:
            _assert_transmit_is_the_string_path(spec, rng.normal(0, 0.1, size=shape))

    @pytest.mark.parametrize("j", range(1, 12))
    def test_polyline_counts_every_chunk_boundary(self, j):
        """At precision 0 a one-value row's zigzag is exact: -half and half
        zigzag to 2**(5j) - 1 (j chunks) and 2**(5j) (j + 1 chunks), and
        their neighbours, where float64 holds them, fall either side."""
        from repro.compression.polyline import (
            polyline_decode,
            polyline_encode,
            polyline_transmit,
        )

        half = 2 ** (5 * j - 1)
        ints, chunks = [-half, half], [j, j + 1]
        if half < 2**52:
            ints, chunks = ints + [-half - 1, half - 1], chunks + [j + 1, j]
        rows = np.array(ints, dtype=np.float64)[:, None]
        assert rows[:, 0].astype(np.int64).tolist() == ints
        received, nbytes = polyline_transmit(rows, 0)
        assert nbytes.tolist() == chunks
        assert nbytes.tolist() == [len(polyline_encode(row, 0)) for row in rows]
        for row, got in zip(rows, received):
            np.testing.assert_array_equal(got, polyline_decode(polyline_encode(row, 0), 0))
        # The same values as deltas inside one row, and at every precision.
        inside = np.array([[0.0] + ints])
        for p in range(1, 13):
            _assert_transmit_is_the_string_path(f"polyline:{p}", rows / 10.0**p)
            _assert_transmit_is_the_string_path(f"polyline:{p}", inside / 10.0**p)

    @pytest.mark.parametrize("precision", range(1, 13))
    def test_polyline_negative_zeros_arrive_positive(self, precision):
        tiny = 0.4 * 10.0**-precision
        rows = np.array([[-tiny, -0.0, 0.0, tiny], [-0.0, -tiny, -tiny, -0.0]])
        received, _ = make_codec(f"polyline:{precision}").transmit(rows.copy())
        assert not received.view(np.int64).any()  # every entry is +0.0
        _assert_transmit_is_the_string_path(f"polyline:{precision}", rows)

    @pytest.mark.parametrize("precision", range(1, 13))
    def test_polyline_just_under_the_range_limit(self, precision):
        from repro.compression.polyline import MAX_ABS_VALUE

        v = np.nextafter(MAX_ABS_VALUE / 10.0**precision, 0.0)
        for rows in ([[v]], [[-v]], [[v, -v, v]], [[0.0, v], [-v, 0.0]]):
            _assert_transmit_is_the_string_path(f"polyline:{precision}", np.array(rows))

    def test_polyline_widest_legal_delta_takes_twelve_chunks(self):
        """At precision 0 the scaled value is exact: v just under the limit
        zigzags to 2v and the delta -2v to 4v - 1 < 2**60, twelve chunks
        each."""
        from repro.compression.polyline import MAX_ABS_VALUE, polyline_encode, polyline_transmit

        row = np.array([np.nextafter(MAX_ABS_VALUE, 0.0), -np.nextafter(MAX_ABS_VALUE, 0.0)])
        _, nbytes = polyline_transmit(row[None], 0)
        assert nbytes.tolist() == [12 + 12] == [len(polyline_encode(row, 0))]

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 1e30, -1e30], ids=["nan", "inf", "-inf", "big", "-big"]
    )
    @pytest.mark.parametrize("precision", [1, 4, 12])
    def test_polyline_errors_read_the_same(self, bad, precision):
        codec = PolylineCodec(precision)
        row = np.array([0.5, bad, -0.25])
        with pytest.raises(ValueError) as by_string:
            codec.encode(row)
        with pytest.raises(ValueError) as by_transmit:
            codec.transmit(np.stack([np.zeros(3), row]))
        assert str(by_transmit.value) == str(by_string.value)

    def test_null_codec_casts_the_stack_in_place(self, rng):
        rows = rng.normal(size=(6, 50))
        expected = rows.astype(np.float32).astype(np.float64)
        received, nbytes = NullCodec().transmit(rows)
        assert received is rows  # no second (n, P) copy
        np.testing.assert_array_equal(received, expected)
        assert nbytes.tolist() == [4 * 50] * 6


class TestFactory:
    def test_none_gives_null(self):
        assert isinstance(make_codec(None), NullCodec)

    def test_polyline_with_precision(self):
        codec = make_codec("polyline:6")
        assert isinstance(codec, PolylineCodec)
        assert codec.precision == 6

    def test_defaults(self):
        assert make_codec("polyline").precision == 4

    @pytest.mark.parametrize("precision", range(1, 13))
    def test_every_precision_spec_builds_its_codec(self, precision, rng):
        codec = make_codec(f"polyline:{precision}")
        assert isinstance(codec, PolylineCodec) and codec.precision == precision
        flat = rng.normal(0, 0.2, size=64)
        out, payload = codec.roundtrip(flat)
        assert payload.codec == f"polyline:p{precision}"
        np.testing.assert_allclose(out, flat, atol=0.5000001 * 10.0**-precision, rtol=0)

    @pytest.mark.parametrize("arg", ["x", "0", "13", "-1", "4.5"])
    def test_bad_polyline_precision_rejected(self, arg):
        """A precision that does not parse, or lies outside [1, 12], is
        refused with the spec named."""
        spec = f"polyline:{arg}"
        with pytest.raises(ValueError, match=f"^codec spec {re.escape(repr(spec))}: "):
            make_codec(spec)

    @pytest.mark.parametrize("spec", ["gzip", "quant:8", "topk:0.1", "subsample:0.25"])
    def test_unknown_rejected(self, spec):
        """Only the paper's two codecs exist; the refusal names the spec
        and the kind it accepts."""
        with pytest.raises(ValueError, match=re.escape(repr(spec))) as refused:
            make_codec(spec)
        assert "polyline" in str(refused.value)
