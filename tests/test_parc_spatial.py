"""Spatial circular-correlation contracts.

The oracle here is a deliberately naive scalar loop with explicit modulo
indexing, structured nothing like the the library's vectorized routes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parc import fast_parc, parc_spatial
from parc.fast_parc import fast_parc_forward, weight_spectrum
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
                concat = parc_forward_via_concat(x, p).data
                assert np.abs(concat - want).max() <= 1e-12
                if not takes_circulant(x.shape, p):
                    assert np.array_equal(concat, got)

    def test_dense_rectangular_channels(self):
        rng = np.random.default_rng(22)
        p = random_params(rng, 3, orientation="V", mode="dense", channels_out=5, k_meta=4)
        x = Tensor4(rng.standard_normal((2, 3, 3, 6)))
        want = oracle_forward(x.data, p)
        got = parc_forward(x, p).data
        assert got.shape == (2, 5, 3, 6)
        assert np.abs(got - want).max() <= 1e-12


def takes_circulant(shape, p):
    """parc_forward's documented branch rule: depthwise, and N^2 <= B * orth *
    (2N - 1), the memory rule of ``parc_spatial._circulant_fits``."""
    axis = 2 if p.orientation == "H" else 3
    n, orth = shape[axis], shape[5 - axis]
    return p.mode == "depthwise" and n * n <= shape[0] * orth * (2 * n - 1)


def assert_roundoff(got, want):
    """The circulant matmul against the tap loop: <= 1e-13 (f64) or 1e-6 (f32)
    of max(1, |want|)."""
    assert got.dtype == want.dtype
    tol = 1e-6 if want.dtype == np.float32 else 1e-13
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got.astype(np.float64) - want).max() <= tol * scale


class TestTwoRoutesBitwise:
    """The tap loop is bitwise the same on both routes wherever parc_forward
    runs it (dense mode, thin maps); its circulant matmul agrees to roundoff."""

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
            if takes_circulant(x.shape, p):
                assert_roundoff(a, b)
            else:
                assert a.tobytes() == b.tobytes()

    def test_documented_random_shape(self):
        # N^2 = 25 <= B * orth * (2N - 1) = 27: the circulant branch
        rng = np.random.default_rng(32)
        p = random_params(rng, 2, orientation="H")
        x = Tensor4(rng.standard_normal((1, 2, 5, 3)))
        assert takes_circulant(x.shape, p)
        diff = parc_forward(x, p).data - parc_forward_via_concat(x, p).data
        assert np.abs(diff).max() <= 1e-13

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("shape", [(2, 10, 50, 83), (2, 3, 1, 2), (2, 3, 2, 1)],
                             ids=["blocks", "h1w2", "h2w1"])
    def test_default_budget_and_shortest_extensions(self, shape, orientation, mode, dtype,
                                                   monkeypatch):
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
        assert b.dtype == dtype
        if takes_circulant(shape, p):
            assert_roundoff(a, b)
        else:
            assert a.tobytes() == b.tobytes()
        if mode == "depthwise":
            assert_tap_roundoff(b, x, p)
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", 1 << 40)
            assert b.tobytes() == parc_forward_via_concat(Tensor4(x), p).data.tobytes()



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


def assert_tap_roundoff(got, x, p):
    """The depthwise tap loop against ``unblocked_forward``: its row taps sum
    in BLAS's own order, so within 1e-6 (f32) or 1e-13 (f64) of
    sum_k |kernel[c, k]| |x + pe|[c, (i + k) mod N] per element, the bound
    of ``TestFusedTapLoop.test_other_taps_match_to_roundoff``."""
    axis = 2 if p.orientation == "H" else 3
    n = x.shape[axis]
    kernel_n, pe_n, _ = p.resolved(n, Tensor4(x).dtype_name)
    xp = np.abs(np.swapaxes(x, 2, axis) + pe_n[None, :, :, None]).astype(np.float64)
    k = np.abs(kernel_n.astype(np.float64))
    scale = sum(k[:, j].reshape(1, -1, 1, 1) * np.roll(xp, -j, axis=2) for j in range(n))
    tol = 1e-6 if x.dtype == np.float32 else 1e-13
    assert got.dtype == x.dtype
    diff = np.abs(got.astype(np.float64) - unblocked_forward(x, p))
    assert (diff <= tol * np.swapaxes(scale, 2, axis)).all()


def spy_block_passes(monkeypatch, name="matmul"):
    """Patch np.matmul, the block pass of ``_circular_correlate``, or
    np.einsum, that of ``_correlate``, to record the leading extent of the
    taps, the second argument of either: the channel count of one block
    pass.  Returns the list."""
    sizes, run = [], getattr(np, name)

    def spy(*args, **kw):
        sizes.append(args[1].shape[0])
        return run(*args, **kw)

    monkeypatch.setattr(np, name, spy)
    return sizes


class TestChannelBlocks:
    """The depthwise tap loop runs per channel block; maps this small fit in
    one block at the default budget, so the budget is patched down to force
    one channel per block, a ragged last block, and back up to one block.
    parc_forward runs the tap loop on thin maps only, so it sweeps a 9-long
    axis over two lines of one batch: 81 > 2 * 17."""

    C = 7
    SHAPES = {"modulo": {"H": (1, C, 9, 2), "V": (1, C, 2, 9)},
              "concat": {"H": (2, C, 6, 9), "V": (2, C, 6, 9)}}

    @staticmethod
    def budgets(x):
        one_channel = x.shape[0] * x.shape[2] * x.shape[3] * x.itemsize
        return {"one_channel": 1, "ragged": 3 * one_channel, "one_block": 1 << 40}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat],
                             ids=["modulo", "concat"])
    def test_every_budget_gives_the_one_block_bits(self, route, orientation, dtype, monkeypatch):
        rng = np.random.default_rng(35)
        p = random_params(rng, self.C, orientation=orientation)
        shape = self.SHAPES["modulo" if route is parc_forward else "concat"][orientation]
        x = rng.standard_normal(shape).astype(dtype)
        assert not (route is parc_forward and takes_circulant(shape, p))
        runs = {}
        for name, budget in self.budgets(x).items():
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            runs[name] = route(Tensor4(x), p).data
        want = runs["one_block"]
        for name, got in runs.items():
            assert got.tobytes() == want.tobytes(), name
        assert_tap_roundoff(want, x, p)
        # where parc_forward runs the tap loop, it is the tap loop of concat
        assert want.tobytes() == parc_forward_via_concat(Tensor4(x), p).data.tobytes()

    def test_block_sizes_follow_the_budget(self, monkeypatch):
        rng = np.random.default_rng(36)
        p = random_params(rng, self.C, orientation="V")
        x = rng.standard_normal((2, self.C, 6, 9)).astype(np.float32)
        parc_forward_via_concat(Tensor4(x), p)  # builds the output rows outside the spy
        sizes = spy_block_passes(monkeypatch)
        # one matmul pass per block, sized by the block's channel count
        want = {"one_channel": [1] * 7, "ragged": [3, 3, 1], "one_block": [7]}
        for name, budget in self.budgets(x).items():
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            sizes.clear()
            parc_forward_via_concat(Tensor4(x), p)
            assert sizes == want[name], name

    GRAD_FIELDS = ("d_input", "d_kernel_n", "d_pe_n", "d_bias", "d_meta_kernel", "d_meta_pe")
    # thin maps with B = 2 (169 > 2 * 25): the dK pass's channel x line axis
    # then spans both batch items
    BACKWARD_SHAPES = {"circulant": SHAPES["concat"], "taps": SHAPES["modulo"],
                       "batched_taps": {"H": (2, C, 13, 1), "V": (2, C, 1, 13)}}

    @pytest.mark.parametrize("mode", ["depthwise", "dense"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("branch", ["circulant", "taps", "batched_taps"])
    def test_backward_gives_the_same_bits_at_every_budget(self, branch, orientation, dtype,
                                                          mode, monkeypatch):
        """parc_backward runs per channel block inside the memory rule and
        through the blocked tap loop outside it; neither mixes channels.
        Dense mode is one block, but outside the rule each
        ``_circular_correlate`` block extends its own copy of the dY line
        every channel shares."""
        rng = np.random.default_rng(37)
        p = random_params(rng, self.C, orientation=orientation)
        shape = self.BACKWARD_SHAPES[branch][orientation]
        # the memory rule picks the backward's branch in either mode
        assert takes_circulant(shape, p) == (branch == "circulant")
        if mode == "dense":
            p = random_params(rng, self.C, orientation=orientation, mode="dense",
                              channels_out=self.C - 2)
        x = rng.standard_normal(shape).astype(dtype)
        dy = Tensor4(rng.standard_normal((shape[0], p.channels_out) + shape[2:]).astype(dtype))
        lines = x.shape[0] * x.shape[2] * x.shape[3] * 8
        want = None
        for budget in (1 << 40, 1, 2 * lines, 3 * lines):
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            g = parc_backward(Tensor4(x), p, dy)
            got = [getattr(g, f) for f in self.GRAD_FIELDS]
            got = [v.data if isinstance(v, Tensor4) else v for v in got]
            want = want or [v.tobytes() for v in got]
            assert [v.tobytes() for v in got] == want, budget


def multiply_then_add(src, taps, y):
    """The tap loop before the fused pass: y = 0, then for each tap in
    row-major order one product into a buffer and one add into y."""
    h, w = y.shape[2:]
    y[...] = 0
    prod = np.empty_like(y)
    for r, s in np.ndindex(taps.shape[1:]):
        np.multiply(taps[:, r, s].reshape(1, -1, 1, 1), src[:, :, r:r + h, s:s + w], out=prod)
        y += prod


class TestFusedTapLoop:
    """``_correlate`` runs each channel block as one einsum pass.  Per output
    element that is the old loop's multiply, then add, tap by tap, wherever
    the taps are one column and the output's last axis is longer than 1;
    there it must match ``multiply_then_add`` bit for bit, so a fused
    multiply-add or a reordered tap sequence fails.  With one column of
    output, or KxK taps, einsum may sum in its own order: within 1e-6 (f32)
    or 1e-13 (f64) of sum |k| |x| per element.  Nothing wraps: a source
    shorter than the windows raises.  Five channels at a budget of two per
    block leave a ragged last block."""

    C = 5

    @staticmethod
    def case(rng, dtype, orientation, taps_shape, out_hw):
        """Source, taps and output as ``conv_baseline.conv1d_zeropad`` passes
        them: row-major, swept axis at 2.  A V map is drawn as
        (B, C, orth, N) and reaches that layout through a transposing copy."""
        b, c, (h, w) = 2, TestFusedTapLoop.C, out_hw
        src_hw = (h + taps_shape[1] - 1, w + taps_shape[2] - 1)
        if orientation == "V":
            src = np.swapaxes(rng.standard_normal((b, c) + src_hw[::-1]), 2, 3)
        else:
            src = rng.standard_normal((b, c) + src_hw)
        taps = rng.uniform(-1, 1, taps_shape).astype(dtype)
        return np.ascontiguousarray(src, dtype), taps, np.empty((b, c, h, w), dtype)

    def run(self, monkeypatch, src, taps, y):
        monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", 2 * y[:, :1].nbytes)
        want = np.empty_like(y)
        multiply_then_add(src, taps, want)
        parc_spatial._correlate(src, taps, y)
        return want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 83, 131])
    def test_column_taps_match_multiply_then_add_bitwise(self, n, orientation, dtype,
                                                         monkeypatch):
        rng = np.random.default_rng(n)
        for orth in (2, 3, 16):
            src, taps, y = self.case(rng, dtype, orientation, (self.C, n, 1), (n, orth))
            want = self.run(monkeypatch, src, taps, y)
            assert y.tobytes() == want.tobytes(), orth

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("taps_shape, out_hw", [
        ((C, 7, 1), (7, 1)), ((C, 83, 1), (83, 1)), ((C, 131, 1), (131, 1)),
        ((C, 3, 3), (6, 9)), ((C, 7, 7), (50, 83)), ((C, 3, 5), (9, 6))],
        ids=["orth1-n7", "orth1-n83", "orth1-n131", "k3", "k7", "k3x5"])
    def test_other_taps_match_to_roundoff(self, taps_shape, out_hw, orientation, dtype,
                                          monkeypatch):
        rng = np.random.default_rng(taps_shape[1] * 10 + taps_shape[2])
        src, taps, y = self.case(rng, dtype, orientation, taps_shape, out_hw)
        want = self.run(monkeypatch, src, taps, y)
        scale = np.empty(y.shape)
        multiply_then_add(np.abs(src.astype(np.float64)), np.abs(taps.astype(np.float64)), scale)
        tol = 1e-6 if dtype == np.float32 else 1e-13
        assert y.dtype == dtype
        assert (np.abs(y.astype(np.float64) - want) <= tol * scale).all()

    def test_source_short_of_the_window_rows_raises(self):
        """Only the last axis wraps: a source with fewer than h + K_h - 1
        rows would make the strided windows read past its buffer."""
        taps = np.ones((self.C, 3, 1))
        y = np.empty((2, self.C, 4, 6))
        with pytest.raises(ValueError, match="source holds 5 rows, the windows need 6"):
            parc_spatial._correlate(np.ones((2, self.C, 5, 6)), taps, y)
        parc_spatial._correlate(np.ones((2, self.C, 6, 6)), taps, y)
        assert (y == 3.0).all()

    def test_source_short_of_the_window_columns_raises(self):
        """Nor does the last axis wrap: a source with fewer than w + K_w - 1
        columns raises."""
        taps = np.ones((self.C, 1, 3))
        y = np.empty((2, self.C, 6, 4))
        with pytest.raises(ValueError, match="source holds 5 columns, the windows need 6"):
            parc_spatial._correlate(np.ones((2, self.C, 6, 5)), taps, y)
        parc_spatial._correlate(np.ones((2, self.C, 6, 6)), taps, y)
        assert (y == 3.0).all()

    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_zero_padded_source_is_read_as_it_is(self, orientation, monkeypatch):
        """A source as long as the windows, as the zero-padded baselines pass
        it, is windowed in place, with no copy and no wrap, and keeps the
        multiply-then-add bits."""
        rng = np.random.default_rng(12)
        src, taps, y = self.case(rng, np.float32, orientation, (self.C, 5, 1), (9, 4))
        src[:, :, :2] = src[:, :, -2:] = 0
        in_place, einsum = [], np.einsum

        def spy(subscripts, *operands, **kw):
            in_place.append(np.may_share_memory(operands[1], src))
            return einsum(subscripts, *operands, **kw)

        monkeypatch.setattr(np, "einsum", spy)
        want = self.run(monkeypatch, src, taps, y)
        assert in_place == [True] * 3  # blocks of 2, 2 and 1 channels
        assert y.tobytes() == want.tobytes()


class TestCircularPass:
    """``_circular_correlate``, the circular tap loop: one BLAS matrix-vector
    product per output column of each channel, over each block's extension
    of its source.  Five channels at a budget of two per block leave a
    ragged last block."""

    C = 5

    @staticmethod
    def budgets(y):
        return (1, 2 * y[:, :1].nbytes, 1 << 40)

    @pytest.mark.parametrize("broadcast", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_unextended_source_is_read_circularly(self, dtype, broadcast, monkeypatch):
        """A (4, 9) source, 4 rows of 9 taps, gives the bits of the call
        given its periodic extension along the last axis, built here by
        np.pad, within roundoff of the multiply-then-add loop over it; so
        does a source broadcast over the channels, as dense mode's backward
        shares one dY line."""
        rng = np.random.default_rng(19)
        b, c, hw = 2, self.C, (4, 9)
        src = rng.standard_normal((b, 1 if broadcast else c) + hw).astype(dtype)
        src = np.broadcast_to(src, (b, c) + hw)
        taps = rng.uniform(-1, 1, (c, 9)).astype(dtype)
        ext = np.pad(src, [(0, 0), (0, 0), (0, 0), (0, 8)], mode="wrap")
        want, got = np.empty((b, c) + hw, dtype), np.empty((b, c) + hw, dtype)
        monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", self.budgets(got)[1])
        parc_spatial._circular_correlate(np.ascontiguousarray(ext), taps, want)
        parc_spatial._circular_correlate(src, taps, got)
        assert got.tobytes() == want.tobytes()
        loop, scale = np.empty(got.shape), np.empty(got.shape)
        multiply_then_add(ext.astype(np.float64), taps[:, None, :].astype(np.float64), loop)
        multiply_then_add(np.abs(ext.astype(np.float64)),
                          np.abs(taps[:, None, :].astype(np.float64)), scale)
        tol = 1e-6 if dtype == np.float32 else 1e-13
        assert (np.abs(got - loop) <= tol * scale).all()

    def test_source_wrapped_more_than_once_raises(self):
        """The last axis wraps at most once: a source with fewer than half of
        the w + K - 1 window columns would make the appended wrap read past
        its buffer."""
        y = np.empty((1, 1, 1, 3))
        with pytest.raises(ValueError, match="source holds 3 columns, the windows need 10"):
            parc_spatial._circular_correlate(np.arange(3.0).reshape(1, 1, 1, 3),
                                             np.ones((1, 8)), y)
        parc_spatial._circular_correlate(np.arange(3.0).reshape(1, 1, 1, 3), np.ones((1, 4)), y)
        assert y.ravel().tolist() == [3.0, 4.0, 5.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_channel_broadcast_source_gives_its_contiguous_copy_bits(self, rows, dtype,
                                                                     monkeypatch):
        """A source broadcast over channels, as the dense backward passes its
        shared dY line, gives at every block size the bits of its C-contiguous
        copy: np.concatenate would lay such a block out channel-fastest, and
        its windows, with no unit stride, would run numpy's own loop, not
        BLAS, with bits that follow the block size."""
        rng = np.random.default_rng(20 + rows)
        shape = (2, self.C, rows, 67)
        src = np.broadcast_to(rng.standard_normal((2, 1, rows, 67)).astype(dtype), shape)
        taps = rng.uniform(-1, 1, (self.C, 67)).astype(dtype)
        want = np.empty(shape, dtype)
        parc_spatial._circular_correlate(np.ascontiguousarray(src), taps, want)
        for budget in self.budgets(want):
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            got = np.empty(shape, dtype)
            parc_spatial._circular_correlate(src, taps, got)
            assert got.tobytes() == want.tobytes(), budget


    @pytest.mark.parametrize("source", ["own", "shared", "swapped"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("rows", [50, 65, 83, 224])
    def test_row_chunks_change_no_bit(self, rows, dtype, source, monkeypatch):
        """The bits of one chunk per window, 2**40 bytes, at the default
        ``_WINDOW_BYTES`` and at a budget of 16-row chunks: 50 and 83 rows
        leave a short last chunk at both, and 65 one row past a multiple of
        16, which joins the chunk before it.  The source is the channels'
        own rows, one row set broadcast over the channels, or, as an H sweep
        passes x, the swapped view of a map written back through the
        swapped view of its output."""
        rng = np.random.default_rng(21)
        shape, n = (2, self.C, rows, 64), 64
        taps = rng.uniform(-1, 1, (self.C, n)).astype(dtype)
        if source == "swapped":
            src = np.swapaxes(rng.standard_normal((2, self.C, n, rows)).astype(dtype), 2, 3)
        else:
            src = rng.standard_normal((2, 1 if source == "shared" else self.C, rows, n))
            src = np.broadcast_to(src.astype(dtype), shape)
        got, chunks = [], []
        for budget in (1, parc_spatial._WINDOW_BYTES, 1 << 40):
            monkeypatch.setattr(parc_spatial, "_WINDOW_BYTES", budget)
            y = np.empty(shape[:2] + shape[2:][::-1], dtype)
            y = np.swapaxes(y, 2, 3) if source == "swapped" else y.reshape(shape)
            parc_spatial._circular_correlate(src, taps, y)
            got.append(np.ascontiguousarray(y).tobytes())
            chunks.append(parc_spatial._row_chunks(rows, n * y.itemsize))
        assert [c.stop - c.start for c in chunks[0][:-1]] == [16] * (len(chunks[0]) - 1)
        assert chunks[2] == [slice(None)]
        assert got[0] == got[1] == got[2]


class TestMemoryRule:
    """parc_forward and parc_backward build (C, N, N) circulant stacks only
    under the memory rule of ``parc_spatial._circulant_fits``, which bounds a
    stack by twice the call's (C, B * orth, N) offset lines."""

    @staticmethod
    def spy_circulant(monkeypatch):
        built = []
        circulant = parc_spatial._circulant

        def spy(k):
            built.append(k.shape)
            return circulant(k)

        monkeypatch.setattr(parc_spatial, "_circulant", spy)
        return built

    @staticmethod
    def peak(route, x, p, warm=True) -> int:
        if warm:
            route(x, p)  # resolve the parameters outside the measurement
        tracemalloc.start()
        try:
            route(x, p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("shape", [(1, 48, 56, 56), (1, 4, 63, 32)],
                             ids=["square", "rule-edge"])
    def test_building_call_peak_is_bounded_by_the_offset_lines(self, shape, monkeypatch):
        """The call that builds the stack, plans cleared as on first use,
        peaks within the tap loop's peak plus twice the offset lines' bytes.
        At the rule's edge, 63^2 = 3969 <= 32 * 125 = 4000, the stack alone
        holds 1.97 times the offset lines."""
        rng = np.random.default_rng(45)
        p = random_params(rng, shape[1])
        x = Tensor4(rng.standard_normal(shape).astype(np.float32))
        assert takes_circulant(shape, p)

        def first_peak(route):
            p._plans.clear()
            return self.peak(route, x, p, warm=False)

        built = self.spy_circulant(monkeypatch)
        peak, tap_peak = first_peak(parc_forward), first_peak(parc_forward_via_concat)
        assert built == [(shape[1], shape[2])]
        assert peak <= tap_peak + 2 * x.data.nbytes, f"{peak} B against {tap_peak} B"

    def test_thin_map_keeps_the_tap_loop(self, monkeypatch):
        # the stack would hold 4 * 512^2 elements, the extension 4 * 1023
        rng = np.random.default_rng(38)
        p = random_params(rng, 4, kernel_scale=1.0 / 512)
        x = Tensor4(rng.standard_normal((1, 4, 512, 1)))
        built = self.spy_circulant(monkeypatch)
        got = parc_forward(x, p).data
        assert built == []
        assert got.tobytes() == parc_forward_via_concat(x, p).data.tobytes()
        peak, tap_peak = self.peak(parc_forward, x, p), self.peak(parc_forward_via_concat, x, p)
        assert peak <= 1.5 * tap_peak, f"{peak} B against the tap loop's {tap_peak} B"

    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_square_map_takes_the_circulant(self, orientation, monkeypatch):
        rng = np.random.default_rng(39)
        p = random_params(rng, 4, orientation=orientation)
        x = Tensor4(rng.standard_normal((1, 4, 16, 16)))
        built = self.spy_circulant(monkeypatch)
        got = parc_forward(x, p).data
        assert built == [(4, 16)]
        assert_roundoff(got, parc_forward_via_concat(x, p).data)
        # a second call takes the stack cached on the params
        assert parc_forward(x, p).data.tobytes() == got.tobytes()
        assert built == [(4, 16)]

    def test_v_sweep_reads_x_in_place(self):
        """A depthwise V sweep under the memory rule multiplies x's own rows
        by the cached stack: at its peak it holds its output, the output
        rows and numpy's buffer for the broadcast add of ``_finish``, but no
        copy of x."""
        rng = np.random.default_rng(48)
        p = random_params(rng, 12, orientation="V", kernel_scale=1.0 / 32)
        shape = (8, 12, 32, 32)
        x = Tensor4(rng.standard_normal(shape).astype(np.float32))
        assert takes_circulant(shape, p)
        y = parc_forward(x, p).data  # builds the stack and the rows outside the measurement
        peak = self.peak(parc_forward, x, p, warm=False)
        rows = parc_spatial._pe_bias(p, 32, "f32")
        buffer = np.getbufsize() * np.dtype(np.float32).itemsize
        assert peak <= y.nbytes + rows.nbytes + buffer + 4096, peak
        assert peak < y.nbytes + x.data.nbytes

    @pytest.mark.parametrize("route, shape", [
        (parc_forward_via_concat, (1, 48, 112, 112)),
        (parc_forward_via_concat, (8, 32, 64, 64)),
        (parc_forward, (2, 8, 512, 2)),
    ], ids=["concat-112", "concat-b8-64", "modulo-thin"])
    def test_tap_loop_h_sweep_makes_no_map_sized_temporary(self, route, shape):
        """The tap loop reads an H sweep's x through its swapped view and
        writes its output in x's layout: its peak is that of the V sweep of
        the transposed map, with no transposed copy of x, which would be
        64 KiB at the least here."""
        rng = np.random.default_rng(47)
        h = random_params(rng, shape[1], orientation="H")
        v = ParCParams(h.mode, "V", h.meta_kernel, h.meta_pe, h.bias)
        x = rng.standard_normal(shape).astype(np.float32)
        assert not takes_circulant(shape, h) or route is parc_forward_via_concat
        peak_h = self.peak(route, Tensor4(x), h)
        peak_v = self.peak(route, Tensor4(np.ascontiguousarray(np.swapaxes(x, 2, 3))), v)
        assert peak_h <= peak_v + 8192 < peak_v + x.nbytes, f"{peak_h} B against {peak_v} B"

    def test_dense_mode_keeps_the_tap_loop(self, monkeypatch):
        rng = np.random.default_rng(40)
        p = random_params(rng, 4, mode="dense", channels_out=3)
        x = Tensor4(rng.standard_normal((2, 4, 16, 16)))
        built = self.spy_circulant(monkeypatch)
        got = parc_forward(x, p).data
        assert built == []
        assert got.tobytes() == parc_forward_via_concat(x, p).data.tobytes()

    @pytest.mark.parametrize("mode, orientation", [("depthwise", "H"), ("depthwise", "V"),
                                                   ("dense", "H")])
    def test_thin_map_backward_builds_no_stack(self, mode, orientation, monkeypatch):
        # (C, N, N) float64 stacks would take 64 MiB here; the input is 64 KiB
        rng = np.random.default_rng(41)
        n = 1024 if mode == "depthwise" else 256
        p = random_params(rng, 8, orientation=orientation, mode=mode, kernel_scale=1.0 / n)
        shape = (1, 8, n, 1) if orientation == "H" else (1, 8, 1, n)
        x = Tensor4(rng.standard_normal(shape))
        dy = Tensor4(rng.standard_normal(shape))
        built = self.spy_circulant(monkeypatch)
        peak = self.peak(lambda x, p: parc_backward(x, p, dy), x, p)
        assert built == []
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_blocked_backward_peak(self, orientation):
        """The circulant backward holds one channel block's float64 lines,
        Grams and circulants at a time: 8.4 (H) and 10.6 MiB (V) unblocked
        against a 1 MiB input."""
        rng = np.random.default_rng(42)
        p = random_params(rng, 32, orientation=orientation)
        x = Tensor4(rng.standard_normal((2, 32, 50, 83)).astype(np.float32))
        dy = Tensor4(rng.standard_normal((2, 32, 50, 83)).astype(np.float32))
        assert takes_circulant(x.shape, p)
        peak = self.peak(lambda x, p: parc_backward(x, p, dy), x, p)
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_blocked_thin_backward_peak(self, orientation):
        """Outside the memory rule the backward also holds one channel block's
        float64 lines and extensions at a time; the float64 d_kernel_n and
        d_pe_n it returns take 4 MiB of the bound, the f32 d_input 1 MiB."""
        rng = np.random.default_rng(43)
        p = random_params(rng, 256, orientation=orientation, kernel_scale=1.0 / 1024)
        shape = (1, 256, 1024, 1) if orientation == "H" else (1, 256, 1, 1024)
        x = Tensor4(rng.standard_normal(shape).astype(np.float32))
        dy = Tensor4(rng.standard_normal(shape).astype(np.float32))
        assert not takes_circulant(shape, p)
        peak = self.peak(lambda x, p: parc_backward(x, p, dy), x, p)
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestShiftEquivariance:
    @given(st.integers(0, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_pe_commutes_with_circular_shift(self, shift, seed):
        rng = np.random.default_rng(seed)
        mk = rng.standard_normal((2, 5))
        p = ParCParams("depthwise", "H", mk, np.zeros((2, 5)), np.zeros(2))
        x = rng.standard_normal((1, 2, 8, 3))
        # 64 > 3 * 15: a thin map, so both calls run the tap loop
        assert not takes_circulant(x.shape, p)
        y = parc_forward(Tensor4(x), p).data
        y_shifted = parc_forward(Tensor4(np.roll(x, shift, axis=2)), p).data
        assert np.array_equal(y_shifted, np.roll(y, shift, axis=2))

    @given(st.integers(0, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_pe_commutes_with_circular_shift_to_roundoff(self, shift, seed):
        # a square map takes the circulant matmul, whose sums run in BLAS order
        rng = np.random.default_rng(seed)
        mk = rng.standard_normal((2, 5))
        p = ParCParams("depthwise", "H", mk, np.zeros((2, 5)), np.zeros(2))
        x = rng.standard_normal((1, 2, 8, 8))
        assert takes_circulant(x.shape, p)
        y = parc_forward(Tensor4(x), p).data
        y_shifted = parc_forward(Tensor4(np.roll(x, shift, axis=2)), p).data
        assert np.abs(y_shifted - np.roll(y, shift, axis=2)).max() <= 1e-12

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
        xp, so <dy, y - bias> == <dK, K> == <dxp, xp> must hold.  xp = x + pe
        is formed in float64, the forward every route computes, so d_kernel_n
        matches to 1e-12 at either input precision.
        """
        rng = np.random.default_rng(65)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        # thin maps from n = 13 on take the tap-loop adjoint, square ones the circulant
        thin = [(2, 2, n, 3) for n in (1, 2, 13, 50, 83, 131, 224)]
        for shape in thin + [(1, 2, n, n) for n in (50, 83)]:
            c_out = 2 if mode == "depthwise" else 3
            p = random_params(rng, 2, orientation=orientation, mode=mode, channels_out=c_out)
            axis = 2 if orientation == "H" else 3
            n = shape[2]
            shape = shape if orientation == "H" else shape[:2] + shape[2:][::-1]
            x = Tensor4(rng.standard_normal(shape).astype(dtype))
            dy = rng.standard_normal((shape[0], c_out) + shape[2:]).astype(dtype)
            g = parc_backward(x, p, Tensor4(dy))

            kernel_n, pe_n, bias = p.resolved(n, x.dtype_name)
            pe = pe_n[None, :, :, None] if axis == 2 else pe_n[None, :, None, :]
            # no route rounds x + pe: the reference adds them in float64
            xp = x.data + pe.astype(np.float64)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("orientation", ["H", "V"])
@pytest.mark.parametrize("shape", [(2, 3, 1, 5), (2, 3, 5, 1), (1, 3, 1, 257), (1, 3, 257, 1)],
                         ids=["2x3x1x5", "2x3x5x1", "1x3x1x257", "1x3x257x1"])
@pytest.mark.parametrize("route, mode", [
    (parc_forward, "depthwise"), (parc_forward, "dense"), (parc_forward_via_concat, "depthwise"),
    (parc_forward_via_concat, "dense"), (fast_parc_forward, "depthwise")],
    ids=["modulo", "modulo-dense", "concat", "concat-dense", "freq"])
def test_no_forward_route_writes_its_input(route, mode, shape, orientation, dtype):
    """With one extent 1 a transposed map is already C-contiguous, so a route
    that transforms a "copy" in place must make a real one: the H sweep's
    swept-last copy on table plans, and past N = 256 the frequency route's
    paired lines, a view of x itself on a B = 1 V map."""
    rng = np.random.default_rng(48)
    p = random_params(rng, 3, orientation=orientation, mode=mode)
    x = rng.standard_normal(shape).astype(dtype)
    before = x.tobytes()
    y = route(Tensor4(x), p).data
    assert x.tobytes() == before
    assert not np.shares_memory(x, y)


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


class TestCirculantLayout:
    """``_circulant`` returns C-contiguous stacks, so every (N, N) slice has a
    unit-stride row and the forward's and backward's matmuls run on BLAS."""

    @pytest.mark.parametrize("shape", [(7,), (5, 7), (3, 4, 7)], ids=["row", "depthwise", "dense"])
    def test_stack_is_contiguous_and_circulant(self, shape):
        k = np.random.default_rng(84).standard_normal(shape)
        m = parc_spatial._circulant(k)
        assert m.flags.c_contiguous
        n = shape[-1]
        want = np.empty(shape + (n,))
        for i, l in np.ndindex(n, n):
            want[..., i, l] = k[..., (l - i) % n]
        assert np.array_equal(m, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_cached_forward_plan_is_contiguous(self, dtype, orientation):
        rng = np.random.default_rng(85)
        p = random_params(rng, 6, orientation=orientation)
        x = Tensor4(rng.standard_normal((2, 6, 12, 9)).astype(dtype))
        parc_forward(x, p)
        n = 12 if orientation == "H" else 9
        stack, = p._plans[("circulant", n, x.dtype_name)]
        assert stack.shape == (6, n, n) and stack.dtype == dtype
        assert stack.flags.c_contiguous


class TestPlanCache:
    """Resolved rows, weight spectra and circulant stacks are plans cached on
    the params as read-only arrays, at most ``_PLAN_CAP`` of them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("route, shape", [
        (parc_forward, (2, 3, 16, 16)),
        (parc_forward, (1, 3, 64, 1)),
        (parc_forward_via_concat, (2, 3, 16, 16)),
        (fast_parc_forward, (2, 3, 16, 16)),
    ], ids=["circulant", "thin-tap-loop", "concat", "freq"])
    def test_a_cache_hit_gives_the_first_calls_bytes(self, route, shape, dtype):
        rng = np.random.default_rng(81)
        p = random_params(rng, 3, kernel_scale=1.0 / 16)
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        if route is parc_forward:
            assert takes_circulant(shape, p) == (shape[2] == 16)
        first = route(x, p).data
        plans = dict(p._plans)
        again = route(x, p).data
        assert p._plans.keys() == plans.keys()
        assert all(p._plans[key] is plan for key, plan in plans.items())
        assert again.tobytes() == first.tobytes()

    def test_least_recently_used_plan_goes_past_the_cap(self):
        cap = parc_spatial._PLAN_CAP
        p = random_params(np.random.default_rng(82), 2)
        kept = p.resolved(2, "f64")
        for n in range(3, cap + 6):
            p.resolved(n, "f64")
            assert p.resolved(2, "f64") is kept
            assert len(p._plans) <= cap
        # lengths 3 to 6 were used least recently, so they went first
        assert list(p._plans) == [("rows", n, "f64") for n in range(7, cap + 6)] + [
            ("rows", 2, "f64")]
        assert np.array_equal(p.resolved(3, "f64")[0][0], interp_linear(p.meta_kernel[0], 3))

    def test_writes_into_cached_arrays_raise_and_change_nothing(self):
        rng = np.random.default_rng(83)
        p = random_params(rng, 3)
        x = Tensor4(rng.standard_normal((1, 3, 8, 8)))
        routes = (parc_forward, parc_forward_via_concat, fast_parc_forward)
        before = [route(x, p).data for route in routes]
        kernel_n, pe_n, bias = p.resolved(8, "f64")
        spectrum = weight_spectrum(p, 8, "f64")
        circulant, = p._plans[("circulant", 8, "f64")]
        for arr in (kernel_n, pe_n, bias, spectrum, circulant):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 0
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert not any(arr.flags.writeable for plan in p._plans.values() for arr in plan)
        for route, want in zip(routes, before):
            assert route(x, p).data.tobytes() == want.tobytes()


class TestOneLayoutStage:
    """Every forward route runs one pipeline: ``_pe_bias``'s output rows
    q = corr(pe, K) + bias, a swept-last (B, C, orth, N) map and one
    ``_finish``, which adds q.  The GEMM routes take the map from
    ``_offset_input`` (x itself for a V sweep, one transposed copy for an H
    sweep); the tap loop reads x through its swapped view and writes its
    output in x's layout, so ``_finish`` hands it to Tensor4 uncopied.  Past
    N = 256 the frequency route lays its paired lines out as ``_lines``
    instead and hands ``_finish`` their (B, C, orth, N) view."""

    @staticmethod
    def spy(calls, name, fn, pick):
        def wrapped(*args, **kw):
            out = fn(*args, **kw)
            calls.append((name, pick(args, kw, out)))
            return out
        return wrapped

    ROUTES = {"modulo": parc_forward, "concat": parc_forward_via_concat, "freq": fast_parc_forward}

    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("route, mode, shape", [
        ("modulo", "depthwise", (2, 3, 8, 5)),
        ("modulo", "depthwise", (1, 3, 64, 2)),
        ("modulo", "dense", (2, 3, 8, 5)),
        ("concat", "depthwise", (2, 3, 8, 5)),
        ("concat", "dense", (2, 3, 8, 5)),
        ("freq", "depthwise", (2, 3, 8, 5)),
    ], ids=["modulo-circulant", "modulo-taps", "modulo-dense", "concat", "concat-dense", "freq"])
    def test_each_route_runs_the_stage_once(self, route, mode, shape, orientation, monkeypatch):
        rng = np.random.default_rng(44)
        p = random_params(rng, 3, orientation=orientation, mode=mode, channels_out=4)
        if orientation == "V":
            shape = shape[:2] + shape[2:][::-1]
        x = Tensor4(rng.standard_normal(shape))
        if route == "modulo" and mode == "depthwise":
            assert takes_circulant(shape, p) == (shape[0] == 2)
        calls = []
        # each stage is spied under every name the routes look it up by
        for name, pick in (("_pe_bias", lambda args, kw, out: out),
                           ("_offset_input", lambda args, kw, out: out),
                           ("_finish", lambda args, kw, out: args[:2])):
            wrapped = self.spy(calls, name.strip("_"), getattr(parc_spatial, name), pick)
            for module in (parc_spatial, fast_parc):
                monkeypatch.setattr(module, name, wrapped)
        y = self.ROUTES[route](x, p).data
        n, orth = (shape[2], shape[3]) if orientation == "H" else (shape[3], shape[2])
        if route == "freq" or takes_circulant(shape, p) and route == "modulo":
            assert [name for name, _ in calls] == ["pe_bias", "offset_input", "finish"]
            (_, q), (_, src), (_, (out, rows)) = calls
            assert src.shape == (shape[0], p.channels_in, orth, n) and src.flags.c_contiguous
            assert (src is x.data) == (orientation == "V")
        else:  # the tap loop
            assert [name for name, _ in calls] == ["pe_bias", "finish"]
            (_, q), (_, (out, rows)) = calls
            assert np.shares_memory(out, y)  # Tensor4 copied nothing
        assert out.shape == (shape[0], p.channels_out, orth, n)
        assert rows is q and q.shape == (p.channels_out, n)
        assert y.shape == (shape[0], p.channels_out) + shape[2:]

    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("route, mode, shape", [
        ("modulo", "depthwise", (2, 3, 8, 5)),
        ("modulo", "depthwise", (1, 3, 64, 2)),
        ("modulo", "dense", (2, 3, 8, 5)),
        ("concat", "depthwise", (2, 3, 8, 5)),
        ("concat", "dense", (2, 3, 8, 5)),
        ("freq", "depthwise", (2, 3, 8, 5)),
        ("freq", "depthwise", (2, 3, 257, 3)),
    ], ids=["modulo-circulant", "modulo-taps", "modulo-dense", "concat", "concat-dense",
            "freq-table", "freq-paired"])
    def test_pe_and_bias_enter_only_through_the_output_rows(self, route, mode, shape,
                                                            orientation, monkeypatch):
        """With ``_pe_bias`` patched to zero rows, every route gives the
        bytes of the same params with a zero PE and bias, whose rows
        corr(0, K) + 0 are exactly zero."""
        rng = np.random.default_rng(49)
        p = random_params(rng, 3, orientation=orientation, mode=mode, channels_out=4,
                          kernel_scale=1.0 / 64)
        if orientation == "V":
            shape = shape[:2] + shape[2:][::-1]
        x = Tensor4(rng.standard_normal(shape).astype(np.float32))
        bare = ParCParams(p.mode, p.orientation, p.meta_kernel, np.zeros_like(p.meta_pe),
                          np.zeros_like(p.bias))
        want = self.ROUTES[route](x, bare).data
        def zero_rows(p, n, dtype_name):
            return np.zeros((p.channels_out, n), np.float32)

        for module in (parc_spatial, fast_parc):
            monkeypatch.setattr(module, "_pe_bias", zero_rows)
        assert self.ROUTES[route](x, p).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_frequency_route_runs_on_the_map(self, orientation, dtype, monkeypatch):
        """Up to N = 256 a V sweep reads its rows from x and writes them into
        a fresh output, and an H sweep transforms its transposed copy of x
        in place; neither lays out lines, and both end in ``_finish``."""
        rng = np.random.default_rng(45)
        p = random_params(rng, 3, orientation=orientation)
        shape = (2, 3, 8, 5) if orientation == "H" else (2, 3, 5, 8)
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        want = parc_forward(x, p).data
        fast_parc_forward(x, p)  # builds the weight spectra outside the spies
        calls = []
        monkeypatch.setattr(fast_parc, "_lines", self.spy(calls, "lines", fast_parc._lines,
                                                          lambda args, kw, out: None))
        monkeypatch.setattr(fast_parc, "_finish", self.spy(
            calls, "finish", fast_parc._finish, lambda args, kw, out: args[0]))
        monkeypatch.setattr(fast_parc, "_rfft_lines", self.spy(
            calls, "rfft", fast_parc._rfft_lines, lambda args, kw, out: args[0]))
        monkeypatch.setattr(fast_parc, "_irfft_lines", self.spy(
            calls, "irfft", fast_parc._irfft_lines, lambda args, kw, out: kw["out"]))
        y = fast_parc_forward(x, p).data
        assert [name for name, _ in calls] == ["rfft", "irfft", "finish"]
        (_, src), (_, dst), (_, out) = calls
        assert src.shape == dst.shape == (2 * 3 * 5, 8)
        assert np.shares_memory(dst, out)
        if orientation == "V":
            assert np.shares_memory(src, x.data) and np.shares_memory(dst, y)
        else:
            assert not np.shares_memory(src, x.data) and np.shares_memory(src, dst)
        assert np.abs(y - want).max() <= (1e-5 if dtype == np.float32 else 1e-12)

    @pytest.mark.parametrize("orientation", ["H", "V"])
    def test_paired_frequency_route_adds_rows_in_finish(self, orientation, monkeypatch):
        """Past N = 256 the frequency route lays x out as ``_lines`` with no
        PE and hands ``_finish`` the (B, C, orth, N) view of those lines and
        the (C, N) output rows."""
        rng = np.random.default_rng(47)
        p = random_params(rng, 3, orientation=orientation, kernel_scale=1.0 / 257)
        shape = (2, 3, 257, 5) if orientation == "H" else (2, 3, 5, 257)
        x = Tensor4(rng.standard_normal(shape))
        calls = []
        monkeypatch.setattr(fast_parc, "_lines", self.spy(
            calls, "lines", fast_parc._lines, lambda args, kw, out: (len(args), out)))
        monkeypatch.setattr(fast_parc, "_finish", self.spy(
            calls, "finish", fast_parc._finish, lambda args, kw, out: args[:2]))
        y = fast_parc_forward(x, p).data
        assert [name for name, _ in calls] == ["lines", "finish"]
        (_, (positional, lines)), (_, (out, rows)) = calls
        assert positional == 2 and lines.shape == (3, 10, 257)
        assert out.shape == (2, 3, 5, 257) and np.shares_memory(out, lines)
        assert rows.shape == (3, 257)
        assert np.abs(y - parc_forward(x, p).data).max() <= 1e-12

    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 5), (1, 3, 64, 2)], ids=["square", "thin"])
    @pytest.mark.parametrize("route, mode", [
        ("modulo", "depthwise"), ("modulo", "dense"), ("concat", "depthwise"),
        ("concat", "dense"), ("freq", "depthwise"), ("backward", "depthwise"),
        ("backward", "dense")])
    def test_only_the_tap_loop_reads_a_source_circularly(self, route, mode, shape, orientation,
                                                        monkeypatch):
        """Every ``_circular_correlate`` call comes from ``_accumulate``, the
        one circular tap loop, forward and backward, and the one builder of
        every route's output rows; ``_correlate`` reads no source circularly
        (it raises on one shorter than its windows) and no route calls it."""
        rng = np.random.default_rng(46)
        p = random_params(rng, 3, orientation=orientation, mode=mode, kernel_scale=1.0 / 64)
        thin = shape[0] == 1
        if orientation == "V":
            shape = shape[:2] + shape[2:][::-1]
        assert takes_circulant(shape, p) == (mode == "depthwise" and not thin)
        x = Tensor4(rng.standard_normal(shape))
        depth, wraps, plain = [0], [], []
        accumulate, circular = parc_spatial._accumulate, parc_spatial._circular_correlate

        def in_accumulate(*args):
            depth[0] += 1
            try:
                return accumulate(*args)
            finally:
                depth[0] -= 1

        def spy(src, taps, y):
            if src.shape[3] < y.shape[3] + taps.shape[1] - 1:
                wraps.append(depth[0] > 0)
            return circular(src, taps, y)

        assert not hasattr(fast_parc, "_accumulate")
        monkeypatch.setattr(parc_spatial, "_accumulate", in_accumulate)
        monkeypatch.setattr(parc_spatial, "_circular_correlate", spy)
        monkeypatch.setattr(parc_spatial, "_correlate", lambda *args: plain.append(args))
        if route == "backward":
            dy = Tensor4(rng.standard_normal((shape[0], p.channels_out) + shape[2:]))
            parc_backward(x, p, dy)
            assert wraps == [True] * len(wraps)
            assert bool(wraps) == thin
            assert plain == []
            return
        self.ROUTES[route](x, p)
        forward_taps = route == "concat" or route == "modulo" and (thin or mode == "dense")
        assert wraps == [True] * len(wraps)
        # on a plan miss every route's tap loop builds its output rows
        assert wraps
        wraps.clear()
        self.ROUTES[route](x, p)
        assert wraps == [True] * len(wraps)
        assert bool(wraps) == forward_taps
        assert plain == []


@pytest.mark.parametrize("mode", ["depthwise", "dense"])
@pytest.mark.parametrize("orth", [1, 2, 4])
@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_tap_loop_f32_error_stays_flat_in_n(n, orth, mode):
    """The f32 tap loop on thin maps, kernel scale 1/N, against its own f64
    run: within 5e-7 of the output's max up to N = 4096, where a tap loop
    summing each output's N products in order reads up to about 8.5e-7
    (1.0e-6 to 1.7e-6 dense, at N >= 1024, for one einsum per tap).
    With one row per channel (orth = 1, the shape of the output rows'
    build) each output is a BLAS dot product rather than a matrix-vector
    product.  Dense mode runs the same loop per output channel and sums
    its 4 input channels."""
    rng = np.random.default_rng(n + orth)
    p = random_params(rng, 4, mode=mode, channels_out=4, kernel_scale=1.0 / n)
    x = rng.standard_normal((1, 4, n, orth))
    want = parc_forward_via_concat(Tensor4(x), p).data
    got = parc_forward_via_concat(Tensor4(x.astype(np.float32)), p).data
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 5e-7, f"{err:.2e}"
