"""Spatial circular-correlation contracts.

The oracle here is a deliberately naive scalar loop with explicit modulo
indexing, structured nothing like the the library's vectorized routes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parc import parc_spatial
from parc.fast_parc import fast_parc_forward
from parc.parc_spatial import (
    ParCParams,
    parc_backward,
    parc_forward,
    parc_forward_via_concat,
    random_params,
)
from parc.tensor import Tensor4, interp_linear


def oracle_forward(x, p):
    """Scalar reference: interp per row, explicit modulo walk, no shortcuts."""
    batch, c_in, height, width = x.shape
    n = height if p.orientation == "H" else width
    kernel = np.stack([interp_linear(row, n) for row in p.meta_kernel.reshape(-1, p.meta_kernel.shape[-1])])
    kernel = kernel.reshape(p.meta_kernel.shape[:-1] + (n,))
    pe = np.stack([interp_linear(row, n) for row in p.meta_pe])
    xp = np.zeros_like(x)
    for c in range(c_in):
        for m in range(n):
            if p.orientation == "H":
                xp[:, c, m, :] = x[:, c, m, :] + pe[c, m]
            else:
                xp[:, c, :, m] = x[:, c, :, m] + pe[c, m]
    c_out = p.channels_out
    y = np.zeros((batch, c_out, height, width))
    for b in range(batch):
        for o in range(c_out):
            for i in range(height):
                for j in range(width):
                    pos = i if p.orientation == "H" else j
                    acc = 0.0
                    for k in range(n):
                        src = (k + pos) % n
                        ii, jj = (src, j) if p.orientation == "H" else (i, src)
                        if p.mode == "depthwise":
                            acc += kernel[o, k] * xp[b, o, ii, jj]
                        else:
                            for ci in range(c_in):
                                acc += kernel[o, ci, k] * xp[b, ci, ii, jj]
                    y[b, o, i, j] = acc + p.bias[o]
    return y


class TestFrozenExamples:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor4(rng.standard_normal((2, 3, 4, 5)))
        p = ParCParams("depthwise", "H",
                       np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 4)), np.zeros(3))
        assert np.array_equal(parc_forward(x, p).data, x.data)

    def test_two_tap_row(self):
        x = Tensor4(np.array([1.0, 2, 3, 4]).reshape(1, 1, 4, 1))
        p = ParCParams("depthwise", "H",
                       np.array([[1.0, 2, 0, 0]]), np.zeros((1, 4)), np.zeros(1))
        assert parc_forward(x, p).data.ravel().tolist() == [5, 8, 11, 6]

    def test_all_ones_kernel_gives_row_sum(self):
        x = Tensor4(np.array([1.0, 2, 3, 4]).reshape(1, 1, 4, 1))
        p = ParCParams("depthwise", "H",
                       np.ones((1, 4)), np.zeros((1, 4)), np.zeros(1))
        assert parc_forward(x, p).data.ravel().tolist() == [10, 10, 10, 10]

    def test_pe_passes_through_delta_kernel(self):
        x = Tensor4.zeros((1, 1, 4, 3))
        p = ParCParams("depthwise", "H",
                       np.array([[1.0, 0, 0, 0]]), np.array([[1.0, 2, 3, 4]]), np.zeros(1))
        y = parc_forward(x, p).data
        for j in range(3):
            assert y[0, 0, :, j].tolist() == [1, 2, 3, 4]

    def test_single_tap_degenerate(self):
        x = Tensor4(np.array([[3.0, -1.0]]).reshape(1, 1, 1, 2))
        p = ParCParams("depthwise", "H", np.array([[2.0]]), np.array([[0.5]]), np.array([7.0]))
        y = parc_forward_via_concat(x, p).data
        assert np.allclose(y, 2.0 * (x.data + 0.5) + 7.0)
        assert np.array_equal(y, parc_forward(x, p).data)


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_small_shapes(self, mode, orientation):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 5, 8):
            for orth in (1, 3):
                shape = (2, 2, n, orth) if orientation == "H" else (2, 2, orth, n)
                p = random_params(rng, 2, orientation=orientation, mode=mode, k_meta=4)
                x = Tensor4(rng.standard_normal(shape))
                want = oracle_forward(x.data, p)
                got = parc_forward(x, p).data
                assert np.abs(got - want).max() <= 1e-12
                assert np.array_equal(parc_forward_via_concat(x, p).data, got)

    def test_dense_rectangular_channels(self):
        rng = np.random.default_rng(22)
        p = random_params(rng, 3, orientation="V", mode="dense", channels_out=5, k_meta=4)
        x = Tensor4(rng.standard_normal((2, 3, 3, 6)))
        want = oracle_forward(x.data, p)
        got = parc_forward(x, p).data
        assert got.shape == (2, 5, 3, 6)
        assert np.abs(got - want).max() <= 1e-12


class TestTwoRoutesBitwise:
    def test_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            orientation = rng.choice(["H", "V"])
            mode = rng.choice(["depthwise", "dense"])
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            p = random_params(rng, c, orientation=orientation, mode=mode)
            x = Tensor4(rng.standard_normal((2, c, h, w)))
            a = parc_forward(x, p).data
            b = parc_forward_via_concat(x, p).data
            assert a.tobytes() == b.tobytes()

    def test_documented_random_shape(self):
        rng = np.random.default_rng(32)
        p = random_params(rng, 2, orientation="H")
        x = Tensor4(rng.standard_normal((1, 2, 5, 3)))
        diff = parc_forward(x, p).data - parc_forward_via_concat(x, p).data
        assert np.abs(diff).max() == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("shape", [(2, 10, 50, 83), (2, 3, 1, 2), (2, 3, 2, 1)],
                             ids=["blocks", "h1w2", "h2w1"])
    def test_default_budget_and_shortest_extensions(self, shape, orientation, mode, dtype):
        # at 50x83 one channel holds 33,200 B in f32 and 66,400 B in f64, so the
        # default budget cuts 10 channels into blocks of 7+3 and 3+3+3+1; the
        # small maps sweep n = 1 and 2, extensions of 1 and 3 rows
        rng = np.random.default_rng(37)
        p = random_params(rng, shape[1], orientation=orientation, mode=mode)
        x = rng.standard_normal(shape).astype(dtype)
        if shape[1] == 10:
            per_block = parc_spatial._BLOCK_BYTES // (2 * 50 * 83 * x.itemsize)
            assert 1 < per_block < 10 and 10 % per_block
        a = parc_forward(Tensor4(x), p).data
        b = parc_forward_via_concat(Tensor4(x), p).data
        assert a.dtype == dtype
        assert a.tobytes() == b.tobytes()
        if mode == "depthwise":
            assert a.tobytes() == unblocked_forward(x, p).tobytes()



def unblocked_forward(x, p):
    """The depthwise tap loop with every tap sweeping all channels at once."""
    axis = 2 if p.orientation == "H" else 3
    n = x.shape[axis]
    kernel_n, pe_n, bias = p.resolved(n, Tensor4(x).dtype_name)
    xp = np.swapaxes(x, 2, axis) + pe_n[None, :, :, None]
    y = np.zeros_like(xp)
    prod = np.empty_like(y)
    for k in range(n):
        np.multiply(kernel_n[:, k].reshape(1, -1, 1, 1), np.roll(xp, -k, axis=2), out=prod)
        y += prod
    y += bias.reshape(1, -1, 1, 1)
    return np.swapaxes(y, 2, axis)


class TestChannelBlocks:
    """The depthwise tap loop runs per channel block; maps this small fit in
    one block at the default budget, so the budget is patched down to force
    one channel per block, a ragged last block, and back up to one block."""

    C = 7

    @staticmethod
    def budgets(x):
        one_channel = x.shape[0] * x.shape[2] * x.shape[3] * x.itemsize
        return {"one_channel": 1, "ragged": 3 * one_channel, "one_block": 1 << 40}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat],
                             ids=["modulo", "concat"])
    def test_every_budget_gives_the_unblocked_bits(self, route, orientation, dtype, monkeypatch):
        rng = np.random.default_rng(35)
        p = random_params(rng, self.C, orientation=orientation)
        x = rng.standard_normal((2, self.C, 6, 9)).astype(dtype)
        want = unblocked_forward(x, p).tobytes()
        for name, budget in self.budgets(x).items():
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            got = route(Tensor4(x), p).data
            assert got.dtype == dtype
            assert got.tobytes() == want, name

    def test_block_sizes_follow_the_budget(self, monkeypatch):
        rng = np.random.default_rng(36)
        p = random_params(rng, self.C, orientation="V")
        x = rng.standard_normal((2, self.C, 6, 9)).astype(np.float32)
        sizes = []
        per_channel = parc_spatial._per_channel

        def spy(vec):
            sizes.append(vec.shape[0])
            return per_channel(vec)

        monkeypatch.setattr(parc_spatial, "_per_channel", spy)
        # per block one size for each of the 9 taps; the last entry is the bias
        want = {"one_channel": [1] * 7, "ragged": [3, 3, 1], "one_block": [7]}
        for name, budget in self.budgets(x).items():
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            sizes.clear()
            parc_forward(Tensor4(x), p)
            assert sizes == [b for b in want[name] for _ in range(9)] + [self.C], name


class TestShiftEquivariance:
    @given(st.integers(0, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_pe_commutes_with_circular_shift(self, shift, seed):
        rng = np.random.default_rng(seed)
        mk = rng.standard_normal((2, 5))
        p = ParCParams("depthwise", "H", mk, np.zeros((2, 5)), np.zeros(2))
        x = rng.standard_normal((1, 2, 8, 3))
        y = parc_forward(Tensor4(x), p).data
        y_shifted = parc_forward(Tensor4(np.roll(x, shift, axis=2)), p).data
        assert np.array_equal(y_shifted, np.roll(y, shift, axis=2))

    def test_generic_pe_breaks_shift_equivariance(self):
        rng = np.random.default_rng(41)
        p = random_params(rng, 2, orientation="H", pe_scale=1.0)
        x = rng.standard_normal((1, 2, 8, 3))
        y = parc_forward(Tensor4(x), p).data
        y_shifted = parc_forward(Tensor4(np.roll(x, 3, axis=2)), p).data
        assert np.abs(y_shifted - np.roll(y, 3, axis=2)).max() > 1e-6


def test_global_receptive_field():
    rng = np.random.default_rng(51)
    mk = rng.uniform(0.2, 1.0, (2, 6))
    p = ParCParams("depthwise", "V", mk, np.zeros((2, 6)), np.zeros(2))
    x = rng.standard_normal((1, 2, 3, 7))
    y0 = parc_forward(Tensor4(x), p).data
    xb = x.copy()
    xb[0, 1, 2, 4] += 1.0
    diff = parc_forward(Tensor4(xb), p).data != y0
    # every position along the swept axis in the touched (channel, row) moves
    assert diff[0, 1, 2, :].all()
    assert not diff[0, 0].any() and not diff[0, 1, :2, :].any()


class TestBackward:
    def test_delta_kernel_identity_adjoint(self):
        rng = np.random.default_rng(61)
        x = Tensor4(rng.standard_normal((1, 2, 4, 3)))
        p = ParCParams("depthwise", "H",
                       np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 4)), np.zeros(2))
        dy = Tensor4(rng.standard_normal((1, 2, 4, 3)))
        g = parc_backward(x, p, dy)
        assert np.array_equal(g.d_input.data, dy.data)

    def test_frozen_kernel_gradient(self):
        x = Tensor4(np.array([1.0, 2, 3, 4]).reshape(1, 1, 4, 1))
        p = ParCParams("depthwise", "H",
                       np.array([[1.0, 0, 0, 0]]), np.zeros((1, 4)), np.zeros(1))
        g = parc_backward(x, p, Tensor4(np.ones((1, 1, 4, 1))))
        assert g.d_kernel_n.ravel().tolist() == [10, 10, 10, 10]

    def test_bias_gradient_is_cotangent_sum(self):
        rng = np.random.default_rng(62)
        p = random_params(rng, 3, orientation="V")
        x = Tensor4(rng.standard_normal((2, 3, 4, 5)))
        dy = Tensor4(rng.standard_normal((2, 3, 4, 5)))
        g = parc_backward(x, p, dy)
        assert np.allclose(g.d_bias, dy.data.sum(axis=(0, 2, 3)))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(63)
        p = random_params(rng, 2)
        x = Tensor4.zeros((1, 2, 4, 4))
        with pytest.raises(ValueError, match="shape"):
            parc_backward(x, p, Tensor4.zeros((1, 2, 4, 5)))

    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_long_axes_against_gather_reference(self, mode, orientation, dtype):
        """Lengths beyond the finite-difference gate, against np.take gathers.

        y - bias is linear in both the resolved kernel K and the offset input
        xp, so <dy, y - bias> == <dK, K> == <dxp, xp> must hold.
        """
        rng = np.random.default_rng(65)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for n in (1, 2, 13, 50, 83, 131, 224):
            c_out = 2 if mode == "depthwise" else 3
            p = random_params(rng, 2, orientation=orientation, mode=mode, channels_out=c_out)
            axis = 2 if orientation == "H" else 3
            shape = (2, 2, n, 3) if orientation == "H" else (2, 2, 3, n)
            x = Tensor4(rng.standard_normal(shape).astype(dtype))
            dy = rng.standard_normal((2, c_out) + shape[2:]).astype(dtype)
            g = parc_backward(x, p, Tensor4(dy))

            kernel_n, pe_n, bias = p.resolved(n, x.dtype_name)
            pe = pe_n[None, :, :, None] if axis == 2 else pe_n[None, :, None, :]
            # the offset input is formed at the input precision, as forward does
            xp = (x.data + pe).astype(np.float64)
            kernel_n, bias = kernel_n.astype(np.float64), bias.astype(np.float64)
            g64 = dy.astype(np.float64)
            base = np.arange(n)
            dxp = np.zeros(xp.shape)
            dk = np.zeros(kernel_n.shape)
            for k in range(n):
                x_k = np.take(xp, (base + k) % n, axis=axis)
                g_k = np.take(g64, (base - k) % n, axis=axis)
                if mode == "depthwise":
                    dk[:, k] = (g64 * x_k).sum(axis=(0, 2, 3))
                    dxp += kernel_n[None, :, k, None, None] * g_k
                else:
                    dk[:, :, k] = np.einsum("bohw,bihw->oi", g64, x_k)
                    dxp += np.einsum("oi,bohw->bihw", kernel_n[:, :, k], g_k)
            assert g.d_input.dtype == dtype
            assert np.abs(g.d_input.data - dxp).max() <= tol * np.abs(dxp).max()
            assert np.abs(g.d_kernel_n - dk).max() <= 1e-12 * np.abs(dk).max()

            lin = parc_forward(x, p).data.astype(np.float64) - bias[None, :, None, None]
            lhs = float(np.sum(g64 * lin))
            scale = np.linalg.norm(g64) * np.linalg.norm(lin)
            assert abs(lhs - float(np.sum(g.d_kernel_n * kernel_n))) <= tol * scale
            assert abs(lhs - float(np.sum(g.d_input.data * xp))) <= tol * scale

    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_fields_dtype_and_shape(self, mode, orientation, dtype):
        """d_input keeps the input dtype; every other field is float64."""
        rng = np.random.default_rng(66)
        c_out = 3 if mode == "depthwise" else 5
        p = random_params(rng, 3, orientation=orientation, mode=mode, channels_out=c_out,
                          k_meta=4)
        shape = (2, 3, 7, 6)
        n = 7 if orientation == "H" else 6
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        g = parc_backward(x, p, Tensor4(rng.standard_normal((2, c_out, 7, 6)).astype(dtype)))
        kernel_shape = (3,) if mode == "depthwise" else (c_out, 3)
        want = {
            "d_input": (shape, dtype),
            "d_kernel_n": (kernel_shape + (n,), np.float64),
            "d_pe_n": ((3, n), np.float64),
            "d_bias": ((c_out,), np.float64),
            "d_meta_kernel": (kernel_shape + (4,), np.float64),
            "d_meta_pe": ((3, 4), np.float64),
        }
        for name, (want_shape, want_dtype) in want.items():
            value = getattr(g, name)
            value = value.data if name == "d_input" else value
            assert (value.shape, value.dtype) == (want_shape, want_dtype), name

    def test_dense_peak_memory(self):
        """The dense adjoint works one output channel at a time.

        A single (C_out*N, C_in*N) circulant matmul peaks near 83 MiB here.
        """
        rng = np.random.default_rng(67)
        p = random_params(rng, 16, orientation="V", mode="dense")
        x = Tensor4(rng.standard_normal((2, 16, 50, 112)).astype(np.float32))
        dy = Tensor4(rng.standard_normal((2, 16, 50, 112)).astype(np.float32))
        p.resolved(112, "f32")
        tracemalloc.start()
        try:
            parc_backward(x, p, dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_meta_grads_respect_meta_length(self):
        rng = np.random.default_rng(64)
        p = random_params(rng, 2, k_meta=3)
        x = Tensor4(rng.standard_normal((1, 2, 7, 2)))
        g = parc_backward(x, p, Tensor4(rng.standard_normal((1, 2, 7, 2))))
        assert g.d_meta_kernel.shape == (2, 3)
        assert g.d_meta_pe.shape == (2, 3)
        assert g.d_kernel_n.shape == (2, 7)


class TestParamsContract:
    def test_defaults_and_caching(self):
        rng = np.random.default_rng(71)
        p = random_params(rng, 4)
        assert p.k_meta == 14
        first = p.resolved(9, "f64")
        again = p.resolved(9, "f64")
        assert first[0] is again[0]

    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat, fast_parc_forward])
    def test_in_place_edits_never_serve_stale_results(self, route):
        rng = np.random.default_rng(74)
        p = random_params(rng, 3, orientation="V")
        x = Tensor4(rng.standard_normal((1, 3, 4, 6)))
        for name in ("meta_kernel", "meta_pe", "bias"):
            before = route(x, p).data
            getattr(p, name)[:] *= 2.0
            fresh = ParCParams(p.mode, p.orientation, p.meta_kernel.copy(),
                               p.meta_pe.copy(), p.bias.copy())
            after = route(x, p).data
            assert not np.array_equal(after, before)
            assert np.array_equal(after, route(x, fresh).data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["meta_kernel", "meta_pe", "bias"])
    @pytest.mark.parametrize("route", [
        parc_forward, fast_parc_forward, lambda x, p: parc_backward(x, p, x),
    ], ids=["parc_forward", "fast_parc_forward", "parc_backward"])
    def test_in_place_non_finite_edit_raises(self, route, name, bad):
        rng = np.random.default_rng(75)
        p = random_params(rng, 3, orientation="V")
        x = Tensor4(rng.standard_normal((1, 3, 4, 6)))
        route(x, p)
        getattr(p, name)[0] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            route(x, p)

    @pytest.mark.parametrize("route", [parc_forward, fast_parc_forward])
    def test_reassigned_wrong_length_bias_raises_the_constructor_error(self, route):
        rng = np.random.default_rng(76)
        p = random_params(rng, 3)
        x = Tensor4(rng.standard_normal((1, 3, 4, 6)))
        route(x, p)
        p.bias = np.zeros(4)
        with pytest.raises(ValueError, match="bias carries 4 channels, kernel implies 3"):
            route(x, p)

    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat, fast_parc_forward])
    def test_reassigned_same_bytes_new_shape_raises(self, route):
        """A reshape keeps the bytes; the cache must still be revalidated."""
        rng = np.random.default_rng(77)
        p = random_params(rng, 4)
        x = Tensor4(rng.standard_normal((1, 4, 6, 5)))
        route(x, p)
        p.meta_kernel = p.meta_kernel.reshape(14, 4)
        with pytest.raises(ValueError, match="meta_pe carries 4 channels, kernel implies 14"):
            route(x, p)

    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat, fast_parc_forward])
    @pytest.mark.parametrize("name", ["meta_kernel", "meta_pe", "bias"])
    def test_reassigned_same_bytes_new_dtype_serves_fresh_results(self, route, name):
        rng = np.random.default_rng(78)
        p = random_params(rng, 4)
        x = Tensor4(rng.standard_normal((1, 4, 6, 5)))
        before = route(x, p).data
        setattr(p, name, getattr(p, name).view(np.int64))
        fresh = ParCParams(p.mode, p.orientation, p.meta_kernel, p.meta_pe, p.bias)
        after = route(x, p).data
        assert not np.array_equal(after, before)
        assert np.array_equal(after, route(x, fresh).data)

    def test_resolved_matches_interp_per_row(self):
        rng = np.random.default_rng(72)
        p = random_params(rng, 3, k_meta=5)
        kernel_n, pe_n, bias = p.resolved(8, "f64")
        for c in range(3):
            assert np.array_equal(kernel_n[c], interp_linear(p.meta_kernel[c], 8))
            assert np.array_equal(pe_n[c], interp_linear(p.meta_pe[c], 8))
        assert np.array_equal(bias, p.bias)

    def test_validation(self):
        good = dict(mode="depthwise", orientation="H",
                    meta_kernel=np.ones((2, 3)), meta_pe=np.ones((2, 3)), bias=np.ones(2))
        ParCParams(**good)
        with pytest.raises(ValueError, match="mode"):
            ParCParams(**{**good, "mode": "grouped"})
        with pytest.raises(ValueError, match="orientation"):
            ParCParams(**{**good, "orientation": "D"})
        with pytest.raises(ValueError, match="non-finite"):
            ParCParams(**{**good, "bias": np.array([np.inf, 0.0])})
        with pytest.raises(ValueError, match="channels"):
            ParCParams(**{**good, "meta_pe": np.ones((3, 3))})
        with pytest.raises(ValueError, match="rank"):
            ParCParams(**{**good, "meta_kernel": np.ones((2, 2, 3))})
        with pytest.raises(ValueError, match="channels"):
            ParCParams("dense", "H", np.ones((4, 2, 3)), np.ones((2, 3)), np.ones(3))

    def test_input_channel_mismatch(self):
        rng = np.random.default_rng(73)
        p = random_params(rng, 3)
        with pytest.raises(ValueError, match="channels"):
            parc_forward(Tensor4.zeros((1, 2, 4, 4)), p)
