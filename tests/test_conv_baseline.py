"""Zero-padded baseline convolutions: frozen examples, linearity, locality."""

import numpy as np
import pytest

from parc import parc_spatial
from parc.conv_baseline import ZeroPadConvParams, conv1d_zeropad, dwconv2d_zeropad
from parc.tensor import Tensor4

import test_parc_spatial


def row_tensor(values):
    return Tensor4(np.asarray(values, dtype=np.float64).reshape(1, 1, -1, 1))


class TestConv1d:
    def test_centered_delta_is_identity(self):
        x = row_tensor([1, 2, 3, 4])
        p = ZeroPadConvParams(np.array([[0.0, 1.0, 0.0]]), pad=1, orientation="H")
        assert conv1d_zeropad(x, p).data.ravel().tolist() == [1, 2, 3, 4]

    def test_box_kernel_with_zero_boundary(self):
        # y_i = x_{i-1} + x_i + x_{i+1} with zeros outside: [3, 6, 9, 7]
        x = row_tensor([1, 2, 3, 4])
        p = ZeroPadConvParams(np.array([[1.0, 1.0, 1.0]]), pad=1, orientation="H")
        assert conv1d_zeropad(x, p).data.ravel().tolist() == [3, 6, 9, 7]

    def test_zero_input(self):
        p = ZeroPadConvParams(np.ones((3, 5)), pad=2, orientation="V")
        y = conv1d_zeropad(Tensor4.zeros((2, 3, 4, 6)), p)
        assert not y.data.any()

    def test_orientation_v_sweeps_width(self):
        x = Tensor4(np.arange(8, dtype=np.float64).reshape(1, 1, 2, 4))
        p = ZeroPadConvParams(np.array([[1.0, 1.0]]), pad=0, orientation="V")
        y = conv1d_zeropad(x, p)
        assert y.shape == (1, 1, 2, 3)
        assert y.data[0, 0, 0].tolist() == [1, 3, 5]

    def test_valid_mode_shrinks_and_pad_grows(self):
        x = Tensor4.zeros((1, 1, 6, 2))
        p0 = ZeroPadConvParams(np.ones((1, 3)), pad=0, orientation="H")
        p2 = ZeroPadConvParams(np.ones((1, 3)), pad=2, orientation="H")
        assert conv1d_zeropad(x, p0).shape[2] == 4
        assert conv1d_zeropad(x, p2).shape[2] == 8

    def test_no_output_length_error(self):
        x = Tensor4.zeros((1, 1, 2, 2))
        p = ZeroPadConvParams(np.ones((1, 5)), pad=0, orientation="H")
        with pytest.raises(ValueError, match="no output"):
            conv1d_zeropad(x, p)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        p = ZeroPadConvParams(rng.standard_normal((3, 5)), pad=2, orientation="H")
        x1 = rng.standard_normal((2, 3, 7, 4))
        x2 = rng.standard_normal((2, 3, 7, 4))
        a, b = 1.7, -0.3
        lhs = conv1d_zeropad(Tensor4(a * x1 + b * x2), p).data
        rhs = a * conv1d_zeropad(Tensor4(x1), p).data + b * conv1d_zeropad(Tensor4(x2), p).data
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_channel_independence(self):
        rng = np.random.default_rng(4)
        p = ZeroPadConvParams(rng.standard_normal((2, 3)), pad=1, orientation="H")
        x = rng.standard_normal((1, 2, 5, 3))
        y = conv1d_zeropad(Tensor4(x), p).data
        x_other = x.copy()
        x_other[:, 1] = 0.0
        y_other = conv1d_zeropad(Tensor4(x_other), p).data
        assert np.array_equal(y[:, 0], y_other[:, 0])

    def test_channel_count_mismatch(self):
        p = ZeroPadConvParams(np.ones((2, 3)), pad=1, orientation="H")
        with pytest.raises(ValueError, match="channels"):
            conv1d_zeropad(Tensor4.zeros((1, 3, 4, 4)), p)

    def test_2d_params_rejected(self):
        p = ZeroPadConvParams(np.ones((1, 3, 3)), pad=1, orientation="2D")
        with pytest.raises(ValueError, match="orientation 'H' or 'V'"):
            conv1d_zeropad(Tensor4.zeros((1, 1, 4, 4)), p)


class TestDwConv2d:
    def test_ones_kernel_tap_counts(self):
        p = ZeroPadConvParams(np.ones((1, 3, 3)), pad=1, orientation="2D")
        y = dwconv2d_zeropad(Tensor4(np.ones((1, 1, 5, 5))), p).data[0, 0]
        assert y[2, 2] == 9.0
        assert y[0, 0] == 4.0
        assert y[0, 2] == 6.0

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(8)
        k = np.zeros((2, 3, 3))
        k[:, 1, 1] = 1.0
        p = ZeroPadConvParams(k, pad=1, orientation="2D")
        x = rng.standard_normal((1, 2, 4, 6))
        assert np.array_equal(dwconv2d_zeropad(Tensor4(x), p).data, x)

    def test_zero_kernel(self):
        p = ZeroPadConvParams(np.zeros((1, 3, 3)), pad=1, orientation="2D")
        y = dwconv2d_zeropad(Tensor4(np.ones((1, 1, 3, 3))), p)
        assert not y.data.any()

    def test_locality_radius(self):
        # support of a single-pixel bump is the (K-1)/2 Chebyshev ball, exactly
        rng = np.random.default_rng(6)
        for k in (3, 5):
            pad = (k - 1) // 2
            p = ZeroPadConvParams(rng.uniform(0.2, 1.0, (1, k, k)), pad=pad, orientation="2D")
            x = rng.standard_normal((1, 1, 9, 8))
            y0 = dwconv2d_zeropad(Tensor4(x), p).data
            xb = x.copy()
            ci, cj = 4, 3
            xb[0, 0, ci, cj] += 1.0
            diff = dwconv2d_zeropad(Tensor4(xb), p).data != y0
            ii, jj = np.meshgrid(np.arange(9), np.arange(8), indexing="ij")
            box = (np.abs(ii - ci) <= pad) & (np.abs(jj - cj) <= pad)
            assert np.array_equal(diff[0, 0], box)

    def test_same_size_configuration_enforced(self):
        with pytest.raises(ValueError, match="pad"):
            dwconv2d_zeropad(Tensor4.zeros((1, 1, 4, 4)),
                             ZeroPadConvParams(np.ones((1, 3, 3)), pad=0, orientation="2D"))
        with pytest.raises(ValueError, match="odd"):
            dwconv2d_zeropad(Tensor4.zeros((1, 1, 4, 4)),
                             ZeroPadConvParams(np.ones((1, 4, 4)), pad=1, orientation="2D"))


class TestParamsValidation:
    def test_orientation_kernel_rank_pairing(self):
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.ones((1, 3, 3)), pad=1, orientation="H")
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.ones((1, 3)), pad=1, orientation="2D")
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.ones((1, 3)), pad=1, orientation="diag")

    def test_square_and_finite_and_pad(self):
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.ones((1, 2, 3)), pad=1, orientation="2D")
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.array([[np.nan, 1.0]]), pad=0, orientation="H")
        with pytest.raises(ValueError):
            ZeroPadConvParams(np.ones((1, 3)), pad=-1, orientation="H")
        for pad in (1.5, 2.5, True, np.True_):
            with pytest.raises(ValueError, match="pad must be an integer"):
                ZeroPadConvParams(np.ones((1, 3, 3)), pad=pad, orientation="2D")
        assert ZeroPadConvParams(np.ones((1, 3, 3)), pad=np.int64(1), orientation="2D").pad == 1

    def test_conv1d_rejects_2d_params(self):
        p = ZeroPadConvParams(np.ones((1, 3, 3)), pad=1, orientation="2D")
        with pytest.raises(ValueError):
            conv1d_zeropad(Tensor4.zeros((1, 1, 4, 4)), p)


class TestChannelBlocks:
    """Both baselines run ``parc_spatial``'s channel-blocked tap loop, so the
    budgets of the spatial route's block test, one channel per block, a
    ragged last block and one block, give the same bytes and block sizes."""

    C = 7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation,k", [("H", 5), ("V", 5), ("2D", 3), ("2D", 7)])
    def test_every_budget_gives_the_same_bits(self, orientation, k, dtype, monkeypatch):
        rng = np.random.default_rng(38)
        shape = (self.C, k, k) if orientation == "2D" else (self.C, k)
        p = ZeroPadConvParams(rng.uniform(-1, 1, shape), pad=(k - 1) // 2,
                              orientation=orientation)
        op = dwconv2d_zeropad if orientation == "2D" else conv1d_zeropad
        x = rng.standard_normal((2, self.C, 6, 9)).astype(dtype)
        sizes = test_parc_spatial.spy_block_passes(monkeypatch)
        # same-size outputs, so a block holds as many channels as the budget
        # allows input channels; one einsum pass per block
        want = {"one_channel": [1] * 7, "ragged": [3, 3, 1], "one_block": [7]}
        got = {}
        for name, budget in test_parc_spatial.TestChannelBlocks.budgets(x).items():
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            sizes.clear()
            got[name] = op(Tensor4(x), p).data
            assert got[name].dtype == dtype
            assert sizes == want[name], name
        assert got["one_channel"].tobytes() == got["one_block"].tobytes()
        assert got["ragged"].tobytes() == got["one_block"].tobytes()


def oracle_1d(x, taps, pad, axis):
    """Scalar-index reference: output i reads input i - pad + t, zero outside."""
    xs = np.moveaxis(x, axis, -1)
    n, k = xs.shape[-1], taps.shape[1]
    out = np.zeros(xs.shape[:-1] + (n - k + 2 * pad + 1,))
    for i in range(out.shape[-1]):
        for t in range(k):
            if 0 <= i - pad + t < n:
                out[..., i] += taps[:, t, None] * xs[..., i - pad + t]
    return np.moveaxis(out, -1, axis)


def oracle_2d(x, taps, pad):
    h, w = x.shape[2:]
    k = taps.shape[1]
    out = np.zeros(x.shape)
    for i in range(h):
        for j in range(w):
            for r in range(k):
                for s in range(k):
                    if 0 <= i - pad + r < h and 0 <= j - pad + s < w:
                        out[:, :, i, j] += taps[:, r, s] * x[:, :, i - pad + r, j - pad + s]
    return out


class TestBruteForceOracle:
    """Random kernels against scalar-index loops that treat out-of-range taps as zero."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("orientation,axis", [("H", 2), ("V", 3)])
    def test_conv1d(self, orientation, axis, dtype, tol):
        rng = np.random.default_rng(axis)
        x = rng.standard_normal((2, 3, 6, 7)).astype(dtype)
        for k in range(1, 6):
            for pad in range(k + 1):
                taps = rng.uniform(-1, 1, (3, k))
                p = ZeroPadConvParams(taps, pad=pad, orientation=orientation)
                got = conv1d_zeropad(Tensor4(x), p)
                want = oracle_1d(x.astype(np.float64), taps, pad, axis)
                assert got.dtype == dtype and got.shape == want.shape
                assert np.abs(got.data - want).max() <= tol * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_dwconv2d(self, k, dtype, tol):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((2, 3, 6, 7)).astype(dtype)
        taps = rng.uniform(-1, 1, (3, k, k))
        p = ZeroPadConvParams(taps, pad=(k - 1) // 2, orientation="2D")
        got = dwconv2d_zeropad(Tensor4(x), p)
        want = oracle_2d(x.astype(np.float64), taps, (k - 1) // 2)
        assert got.dtype == dtype
        assert np.abs(got.data - want).max() <= tol * max(1.0, np.abs(want).max())
