"""Conv2D, im2col/col2im tests."""

import numpy as np
import pytest

from repro.nn.conv import Conv2D, col2im, im2col
from tests.helpers import check_layer_gradients


class TestIm2col:
    def test_patch_count(self, rng):
        x = rng.normal(size=(2, 6, 6, 3))
        cols, (oh, ow) = im2col(x, 3, 3, pad=1)
        assert (oh, ow) == (6, 6)
        assert cols.shape == (2 * 36, 27)

    def test_valid_no_pad(self, rng):
        x = rng.normal(size=(1, 5, 5, 1))
        cols, (oh, ow) = im2col(x, 3, 3)
        assert (oh, ow) == (3, 3)
        # Top-left patch must equal the top-left 3x3 window.
        np.testing.assert_array_equal(cols[0].reshape(3, 3), x[0, :3, :3, 0])

    def test_kernel_too_large(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 2, 2, 1)), 5, 5)

    @pytest.mark.parametrize(
        "hw, k, pad",
        [((6, 6), 3, 1), ((5, 5), 1, 0), ((6, 6), 3, 0), ((4, 4), 5, 2), ((4, 7), 3, 1)],
        ids=["k3-same", "k1", "k3-unpadded", "k5-wider-than-frame", "non-square"],
    )
    def test_col2im_is_adjoint(self, hw, k, pad, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(2, *hw, 2))
        cols, _ = im2col(x, k, k, pad=pad)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, k, k, pad=pad)))
        assert abs(lhs - rhs) < 1e-9


class TestConv2D:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_shape_same(self, k, rng):
        conv = Conv2D(2, 4, k, rng=rng)
        assert conv.pad == (k - 1) // 2
        assert conv.forward(rng.normal(size=(3, 5, 7, 2))).shape == (3, 5, 7, 4)

    def test_matches_manual_convolution(self, rng):
        """Cross-check one output pixel against a hand-computed window sum."""
        conv = Conv2D(2, 1, 3, rng=rng)
        x = rng.normal(size=(1, 5, 5, 2))
        out = conv.forward(x)
        window = x[0, 1:4, 2:5, :].reshape(-1)  # centered at (2, 3)
        expected = float(window @ conv.w.data[:, 0] + conv.b.data[0])
        np.testing.assert_allclose(out[0, 2, 3, 0], expected, rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gradients_same_padding(self, k, rng):
        conv = Conv2D(2, 3, k, rng=rng)
        check_layer_gradients(conv, rng.normal(size=(2, 5, 5, 2)), rng=rng)

    def test_translation_equivariance(self, rng):
        """'same' conv commutes with interior translation."""
        conv = Conv2D(1, 2, 3, rng=rng)
        x = np.zeros((1, 8, 8, 1))
        x[0, 3, 3, 0] = 1.0
        out1 = conv.forward(x)
        x2 = np.roll(x, (1, 1), axis=(1, 2))
        out2 = conv.forward(x2)
        np.testing.assert_allclose(
            out2[0, 2:7, 2:7], np.roll(out1, (1, 1), axis=(1, 2))[0, 2:7, 2:7],
            atol=1e-12,
        )
