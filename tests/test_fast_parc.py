"""Transform-route contracts: FFT engine plus the spectral correlation path."""

import math
import pathlib
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parc
from parc import fast_parc, parc_spatial
from parc.fast_parc import (
    _MAX_RADIX,
    FftPlan,
    Spectrum,
    _irfft_lines,
    _rfft_lines,
    dft_naive,
    fast_parc_forward,
    fft,
    get_plan,
    ifft,
    weight_spectrum,
)
from parc.parc_spatial import ParCParams, parc_forward, parc_forward_via_concat, random_params
from parc.tensor import Tensor4


def _rel(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


class TestNaiveReference:
    def test_unit_impulse_is_flat(self):
        got = dft_naive(np.array([1.0, 0, 0, 0]))
        assert np.allclose(got.bins, np.ones(4), atol=1e-14)

    def test_constant_concentrates_in_dc(self):
        got = dft_naive(np.array([1.0, 1, 1, 1]))
        assert np.allclose(got.bins, [4, 0, 0, 0], atol=1e-14)

    def test_ramp(self):
        got = dft_naive(np.array([1.0, 2, 3, 4]))
        want = np.array([10, -2 + 2j, -2, -2 - 2j])
        assert np.abs(got.bins - want).max() <= 1e-13


class TestPlans:
    @pytest.mark.parametrize("n,strategy", [
        (1, "mixed-radix"), (64, "mixed-radix"), (56, "mixed-radix"),
        (60, "mixed-radix"), (127, "mixed-radix"), (4096, "mixed-radix"),
        (37, "mixed-radix"), (83, "mixed-radix"), (97, "mixed-radix"),
        (131, "bluestein"), (257, "bluestein"), (509, "bluestein"), (1031, "bluestein"),
    ])
    def test_strategy_selection(self, n, strategy):
        assert get_plan(n).strategy == strategy

    @pytest.mark.parametrize("n,radices", [
        (1, (1,)), (83, (83,)), (128, (128,)), (224, (14, 16)), (4096, (64, 64)),
        (16384, (128, 128)), (131, ()),
    ])
    def test_radices_split_at_the_divisor_nearest_the_root(self, n, radices):
        assert get_plan(n).radices == radices

    def test_plan_invariants_up_to_1100(self):
        def largest_prime_factor(n):
            p, big = 2, 1
            while n > 1:
                while n % p == 0:
                    n, big = n // p, p
                p += 1
            return big

        for n in range(1, 1101):
            plan = get_plan(n)
            bluestein = largest_prime_factor(n) > _MAX_RADIX
            assert (plan.strategy == "bluestein") == bluestein, n
            # a Bluestein plan runs no stage of its own: its inner plan does
            stages = plan.inner if bluestein else plan
            assert math.prod(stages.radices) == stages.n, n
            assert all(1 <= f <= _MAX_RADIX for f in stages.radices), n
            if bluestein:
                assert plan.radices == ()
                assert stages.n >= 2 * n - 1 and stages.n & (stages.n - 1) == 0, n
            else:
                assert plan.inner is None, n

    def test_plan_cache_returns_same_object(self):
        assert get_plan(48) is get_plan(48)

    def test_bluestein_runs_on_the_cached_power_of_two_plan(self):
        plan = get_plan(131)
        assert plan.inner is get_plan(512)
        assert plan.inner.strategy == "mixed-radix" and plan.inner.inner is None
        assert get_plan(132).inner is None

    def test_tables_are_built_per_precision_on_first_use(self):
        plan = FftPlan(12)
        assert plan._cache == {}
        plan._tables(np.dtype(np.complex64))
        plan._tables(np.dtype(np.float32))
        assert list(plan._cache) == [np.dtype(np.complex64), np.dtype(np.float32)]

    def test_rank_guard(self):
        with pytest.raises(ValueError, match="vector"):
            fft(np.zeros((2, 3)))


class TestAgainstNaive:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 21, 29, 35, 56, 64, 97, 127,
                                   224])
    def test_real_lines(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        want = dft_naive(x)
        got = fft(x)
        scale = max(1.0, np.abs(want.bins).max())
        nh = n // 2 + 1
        assert got.bins.shape == (nh,)
        assert not got.full
        assert np.abs(got.bins - want.bins[:nh]).max() / scale <= 1e-12

    @pytest.mark.parametrize("n", [4, 15, 37, 56])
    def test_complex_lines_full_spectrum(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = fft(x)
        want = dft_naive(x)
        assert got.full
        scale = max(1.0, np.abs(want.bins).max())
        assert np.abs(got.bins - want.bins).max() / scale <= 1e-12

    def test_half_spectrum_bin_count(self):
        assert fft(np.ones(7)).bins.shape == (4,)

    def test_real_input_hermitian_endpoints(self):
        rng = np.random.default_rng(5)
        for n in (8, 10, 56):
            spec = fft(rng.standard_normal(n))
            assert abs(spec.bins[0].imag) <= 1e-12
            assert abs(spec.bins[n // 2].imag) <= 1e-12 * max(1.0, abs(spec.bins[n // 2]))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 56, 101, 4096])
    def test_real_signal(self, n):
        rng = np.random.default_rng(200 + n)
        x = rng.standard_normal(n)
        back = ifft(fft(x))
        assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())

    def test_complex_signal(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        back_spec = fft(x)
        back = ifft(back_spec)
        assert np.abs(back.imag - x.imag).max() <= 1e-12

    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        assert np.abs(ifft(fft(x)) - x).max() <= 1e-10 * max(1.0, np.abs(x).max())


class TestF32ErrorGrowth:
    """f32 error stays flat from one-stage plans (37, 83, 97) to Bluestein
    plans (257, 509, 1031; inner plans up to 4096)."""

    @pytest.mark.parametrize("n", [37, 83, 97, 257, 509, 1031])
    def test_real_complex_and_round_trip(self, n):
        rng = np.random.default_rng(300 + n)

        def rel(got, want):
            return np.abs(got - want).max() / max(1.0, np.abs(want).max())

        x = rng.standard_normal(n).astype(np.float32)
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        assert rel(fft(x).bins, dft_naive(x).bins[:n // 2 + 1]) <= 1e-6
        assert rel(fft(z).bins, dft_naive(z).bins) <= 1e-6
        assert rel(ifft(fft(x)), x) <= 1e-6
        assert rel(ifft(fft(z)), z) <= 1e-6

    def test_half_spectrum_stage_at_every_table_length(self):
        rng = np.random.default_rng(301)
        for n in range(1, 2 * _MAX_RADIX + 1):
            lines = rng.standard_normal((2, n)).astype(np.float32)
            plan = get_plan(n)
            want = np.stack([dft_naive(line).bins[:n // 2 + 1] for line in lines])
            assert _rel(_rfft_lines(lines, plan), want) <= 1e-6, n
            assert _rel(_irfft_lines(_rfft_lines(lines, plan), plan), lines) <= 1e-6, n


class TestBluesteinLong:
    """Bluestein lengths past 1031 (inner plans up to 16384), checked on 32
    random bins per transform against a direct complex128 sum, O(32 n)."""

    @staticmethod
    def direct(x, bins):
        n = x.shape[0]
        # (j * k) % n keeps every twiddle angle inside [0, 2 pi)
        angle = (-2 * np.pi / n) * ((bins[:, None] * np.arange(n)[None, :]) % n)
        return np.exp(1j * angle) @ x.astype(np.complex128)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("n", [2053, 4093, 8191])
    def test_real_complex_and_round_trip(self, n, dtype, tol):
        assert get_plan(n).strategy == "bluestein"
        rng = np.random.default_rng(n)

        def rel(got, want):
            return np.abs(got - want).max() / max(1.0, np.abs(want).max())

        x = rng.standard_normal(n).astype(dtype)
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.result_type(dtype, 1j))
        half = rng.choice(n // 2 + 1, 32, replace=False)
        full = rng.choice(n, 32, replace=False)
        assert rel(fft(x).bins[half], self.direct(x, half)) <= tol
        assert rel(fft(z).bins[full], self.direct(z, full)) <= tol
        assert rel(ifft(fft(x)), x) <= tol
        assert rel(ifft(fft(z)), z) <= tol


class TestSpectrumType:
    def test_bin_count_validation(self):
        with pytest.raises(ValueError, match="bins"):
            Spectrum(np.zeros(3, dtype=complex), n=7, full=False)
        Spectrum(np.zeros(4, dtype=complex), n=7, full=False)
        Spectrum(np.zeros(7, dtype=complex), n=7, full=True)

    def test_low_n_disambiguation(self):
        # n=2: half and full both hold 2 bins; the flag decides
        half = fft(np.array([1.0, 3.0]))
        assert not half.full and half.bins.shape == (2,)
        assert np.allclose(ifft(half), [1.0, 3.0])


class TestPrecisionRule:
    """fft and ifft compute in float32/complex64 for float32 or complex64
    data and promote everything else to float64/complex128."""

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.bool_, ">f4"], ids=str)
    @pytest.mark.parametrize("n", [8, 131])
    def test_promoted_input_gives_the_float64_bytes(self, n, dtype):
        x = np.random.default_rng(n).integers(-8, 9, n).astype(dtype)
        want = fft(x.astype(np.float64))
        got = fft(x)
        assert got.bins.dtype == np.complex128
        assert got.bins.tobytes() == want.bins.tobytes()
        for full in (False, True):
            bins = x if full else x[:n // 2 + 1]
            back = ifft(Spectrum(bins, n, full=full))
            assert back.tobytes() == ifft(Spectrum(bins.astype(np.float64), n, full=full)).tobytes()

    def test_single_precision_stays_single(self):
        x = np.random.default_rng(3).standard_normal(12).astype(np.float32)
        assert fft(x).bins.dtype == np.complex64
        assert fft(x.astype(np.complex64)).bins.dtype == np.complex64
        assert ifft(Spectrum(x, 12, full=True)).dtype == np.complex64
        assert ifft(fft(x)).dtype == np.float32

    @pytest.mark.parametrize("kind", ["float64", "float32", "int"])
    @pytest.mark.parametrize("full", [False, True], ids=["half", "full"])
    @pytest.mark.parametrize("n", [8, 224, 131])
    def test_real_bins_are_read_as_complex(self, n, full, kind):
        """float32 bins are read as complex64, float64 and int bins as complex128."""
        rng = np.random.default_rng(n)
        bins = fft(rng.standard_normal(n)).bins.real
        if full:
            bins = np.resize(bins, n)
        if kind == "float32":
            bins = bins.astype(np.float32)
        if kind == "int":
            bins = np.arange(bins.shape[0])
        cdt = np.complex64 if kind == "float32" else np.complex128
        got = ifft(Spectrum(bins, n, full=full))
        want = ifft(Spectrum(bins.astype(cdt), n, full=full))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestSpectralCorrelation:
    def test_frozen_line(self):
        # x=[1,2,3,4], w=[1,2,0,0]: X*conj(W) then inverse gives [5,8,11,6]
        x = np.array([1.0, 2, 3, 4])
        w = np.array([1.0, 2, 0, 0])
        prod = dft_naive(x).bins * np.conj(dft_naive(w).bins)
        want_prod = np.array([30, -6 - 2j, 2, -6 + 2j])
        assert np.abs(prod - want_prod).max() <= 1e-12
        line = ifft(Spectrum(prod, n=4, full=True))
        assert np.abs(line - [5, 8, 11, 6]).max() <= 1e-12

    def test_forward_matches_frozen_line(self):
        x = Tensor4(np.array([1.0, 2, 3, 4]).reshape(1, 1, 4, 1))
        p = ParCParams("depthwise", "H",
                       np.array([[1.0, 2, 0, 0]]), np.zeros((1, 4)), np.zeros(1))
        y = fast_parc_forward(x, p).data.ravel()
        assert np.abs(y - [5, 8, 11, 6]).max() <= 1e-12

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(11)
        x = Tensor4(rng.standard_normal((2, 3, 8, 5)))
        p = ParCParams("depthwise", "H",
                       np.tile([1.0] + [0.0] * 7, (3, 1)), np.zeros((3, 8)), np.zeros(3))
        y = fast_parc_forward(x, p).data
        assert np.abs(y - x.data).max() <= 1e-12

    @pytest.mark.parametrize("orientation,shape", [("H", (2, 4, 12, 5)), ("V", (2, 4, 5, 12))])
    def test_matches_spatial_route(self, orientation, shape):
        rng = np.random.default_rng(12)
        p = random_params(rng, 4, orientation=orientation)
        x = Tensor4(rng.standard_normal(shape))
        spatial = parc_forward(x, p).data
        spectral = fast_parc_forward(x, p).data
        assert np.abs(spectral - spatial).max() <= 1e-10 * max(1.0, np.abs(spatial).max())

    def test_prime_extent_uses_bluestein_and_agrees(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 2, orientation="V")
        assert get_plan(131).strategy == "bluestein"
        x = Tensor4(rng.standard_normal((1, 2, 3, 131)))
        spatial = parc_forward(x, p).data
        spectral = fast_parc_forward(x, p).data
        assert np.abs(spectral - spatial).max() <= 1e-10 * max(1.0, np.abs(spatial).max())

    def test_f32_path_keeps_dtype(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, 2)
        x = Tensor4(rng.standard_normal((1, 2, 8, 4)).astype(np.float32))
        y = fast_parc_forward(x, p)
        assert y.dtype == np.float32

    def test_dense_mode_rejected(self):
        rng = np.random.default_rng(15)
        p = random_params(rng, 2, mode="dense")
        with pytest.raises(ValueError, match="depthwise"):
            fast_parc_forward(Tensor4.zeros((1, 2, 4, 4)), p)

    @pytest.mark.parametrize("n,bins", [(16, 9), (224, 113), (260, 260)],
                             ids=["half", "half-224", "paired"])
    def test_weight_spectrum_cached(self, n, bins):
        """Half spectra up to 2 * _MAX_RADIX, full spectra where lines pair."""
        rng = np.random.default_rng(16)
        p = random_params(rng, 3)
        a = weight_spectrum(p, n, "f64")
        b = weight_spectrum(p, n, "f64")
        assert a is b
        assert a.shape == (3, bins)
        kernel_n, _, _ = p.resolved(n, "f64")
        for c in range(3):
            want = np.conj(dft_naive(kernel_n[c]).bins[:bins])
            assert np.abs(a[c] - want).max() / max(1.0, np.abs(want).max()) <= 1e-12

    def test_weight_spectrum_miss_runs_one_rfft_and_a_hit_none(self, monkeypatch):
        # perfbench counts a spectrum miss as an rfft span inside the spectrum span
        calls = []
        rfft = fast_parc._rfft_lines
        monkeypatch.setattr(fast_parc, "_rfft_lines", lambda *a: calls.append(a) or rfft(*a))
        p = random_params(np.random.default_rng(21), 3)
        weight_spectrum(p, 16, "f64")
        assert len(calls) == 1
        weight_spectrum(p, 16, "f64")
        assert len(calls) == 1

    def test_unknown_precision_raises_and_caches_nothing(self):
        p = random_params(np.random.default_rng(19), 3)
        weight_spectrum(p, 8, "f64")
        with pytest.raises(ValueError, match="'f16'"):
            p.resolved(8, "f16")
        with pytest.raises(ValueError, match="'bogus'"):
            weight_spectrum(p, 8, "bogus")
        assert list(p._plans) == [("rows", 8, "f64"), ("spectrum", 8, "f64")]

    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("n", [16, 257], ids=["table", "paired"])
    def test_in_place_pe_and_bias_edits_rebuild_the_output_rows(self, n, orientation):
        """The PE and bias reach the output only through the cached rows
        corr(pe, K) + bias, so editing both in place must give the bytes of
        a fresh copy of the params."""
        rng = np.random.default_rng(24)
        p = random_params(rng, 3, orientation=orientation, kernel_scale=1.0 / n)
        shape = (2, 3, n, 5) if orientation == "H" else (2, 3, 5, n)
        x = Tensor4(rng.standard_normal(shape).astype(np.float32))
        before = fast_parc_forward(x, p).data
        p.meta_pe[:] += rng.uniform(-1, 1, p.meta_pe.shape)
        p.bias[1] -= 0.5
        fresh = ParCParams(p.mode, p.orientation, p.meta_kernel.copy(), p.meta_pe.copy(),
                           p.bias.copy())
        after = fast_parc_forward(x, p).data
        assert not np.array_equal(after, before)
        assert after.tobytes() == fast_parc_forward(x, fresh).data.tobytes()

    def test_v_sweep_allocates_its_output_one_group_spectrum_and_its_rows(self):
        """A V sweep on a table plan reads x in place: at its peak it holds
        its output, one plane group's spectrum (the first group of 64 planes
        of 32 lines, 2048 rows of 17 bins) and the output rows, plus numpy's
        buffer for the broadcast per-bin multiply, but no copy of the map
        and never two spectra at once."""
        rng = np.random.default_rng(25)
        p = random_params(rng, 12, orientation="V", kernel_scale=1.0 / 32)
        x = Tensor4(rng.standard_normal((8, 12, 32, 32)).astype(np.float32))
        fast_parc_forward(x, p)  # builds the spectra and rows outside the measurement
        tracemalloc.start()
        try:
            y = fast_parc_forward(x, p).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = fast_parc._pe_bias(p, 32, "f32")
        spectrum = 2048 * 17 * np.dtype(np.complex64).itemsize
        buffer = np.getbufsize() * np.dtype(np.complex64).itemsize
        assert peak <= y.nbytes + spectrum + rows.nbytes + buffer, peak

    def test_no_route_starts_a_thread(self, monkeypatch):
        """Every route runs serially: no route starts a Python thread, and
        parallel=True on the two routes that still accept it gives the serial
        bytes.  The stage matmuls' BLAS threads are native, not counted."""
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        rng = np.random.default_rng(23)
        p = random_params(rng, 6, orientation="V")
        x = Tensor4(rng.standard_normal((2, 6, 6, 12)))
        parc_forward(x, p)
        for route in (parc_forward_via_concat, fast_parc_forward):
            assert route(x, p, parallel=True).data.tobytes() == route(x, p).data.tobytes()
        assert started == []


class TestHalfSpectrumLines:
    """Up to 2 * _MAX_RADIX (one-stage, multi-stage 224 and Bluestein 131
    alike) every real line keeps its own n//2 + 1 bins."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 37, 50, 83, 97, 128, 131, 224, 256])
    def test_lines_against_naive_and_round_trip(self, n, count, dtype, tol):
        rng = np.random.default_rng(1000 * n + count)
        lines = rng.standard_normal((count, n)).astype(dtype)
        plan = get_plan(n)
        assert plan.half_spectrum
        h = n // 2 + 1
        want = np.stack([dft_naive(line).bins[:h] for line in lines])
        spec = _rfft_lines(lines, plan)
        assert spec.shape == (count, h)
        assert spec.dtype == np.result_type(dtype, np.complex64)
        assert _rel(spec, want) <= tol
        back = _irfft_lines(spec, plan)
        assert back.shape == (count, n) and back.dtype == dtype
        assert _rel(back, lines) <= tol
        # leading-axis form (C, 1, n), as in weight_spectrum
        lone = _rfft_lines(lines[:, None], plan)
        assert lone.shape == (count, 1, h)
        assert _rel(lone[:, 0], want) <= tol
        assert _rel(_irfft_lines(lone, plan)[:, 0], lines) <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("n", [7, 50, 64, 224])
    def test_strided_lines_in_and_out(self, n, dtype):
        """Transposed (L, n) line views go in and come out through their own
        strides."""
        tol = 1e-5 if dtype == np.float32 else 1e-12
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((2, 3, n, 5)).astype(dtype)  # (B, C, N, orth)
        view = rows.transpose(1, 0, 3, 2)  # (C, B, orth, N)
        plan = get_plan(n)
        spec = _rfft_lines(view, plan)
        assert spec.shape == (3, 2, 5, n // 2 + 1)
        assert _rel(spec, _rfft_lines(np.ascontiguousarray(view), plan)) <= tol
        out = np.empty_like(rows)
        got = _irfft_lines(spec, plan, out=out.transpose(1, 0, 3, 2))
        assert np.shares_memory(got, out)
        assert _rel(out, rows) <= tol

    def test_dc_and_nyquist_imaginary_parts_are_ignored(self):
        plan = get_plan(8)
        spec = _rfft_lines(np.arange(8.0)[None], plan)
        assert spec[0, 0].imag == 0 and spec[0, 4].imag == 0
        bent = spec.copy()
        bent[0, 0] += 3j
        bent[0, 4] -= 2j
        assert _irfft_lines(bent, plan).tobytes() == _irfft_lines(spec, plan).tobytes()

    def test_runs_inside_fft_array_and_fft_rec(self, monkeypatch):
        # perfbench's trace spans on _fft_array and _fft_rec must fire at
        # lengths where every line takes the half-spectrum stage
        seen = []
        for name in ("_fft_array", "_fft_rec"):
            fn = getattr(fast_parc, name)
            monkeypatch.setattr(fast_parc, name,
                                lambda *a, fn=fn, name=name: seen.append(name) or fn(*a))
        _rfft_lines(np.ones((3, 50)), get_plan(50))
        assert seen == ["_fft_array", "_fft_rec"]


class TestRealPairs:
    """Past 2 * _MAX_RADIX, lines 2j and 2j + 1 ride one complex transform;
    an odd last line pairs with zeros, and the inverse writes (..., L, n).
    257 is a Bluestein length, 260 (13 x 20) and 448 (16 x 28) multi-stage."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [257, 260, 448])
    def test_lines_against_naive_and_round_trip(self, n, count, dtype, tol):
        rng = np.random.default_rng(1000 * n + count)
        lines = rng.standard_normal((count, n)).astype(dtype)
        plan = get_plan(n)
        assert not plan.half_spectrum
        pairs = (count + 1) // 2
        spec = _rfft_lines(lines, plan)
        assert spec.shape == (pairs, n)
        assert spec.dtype == np.result_type(dtype, np.complex64)
        padded = np.vstack((lines, np.zeros((2 * pairs - count, n), dtype=dtype)))
        want = np.stack([dft_naive(padded[2 * j] + 1j * padded[2 * j + 1]).bins
                         for j in range(pairs)])
        assert _rel(spec, want) <= tol
        back = _irfft_lines(spec, plan)
        assert back.shape == (2 * pairs, n) and back.dtype == dtype
        assert _rel(back[:count], lines) <= tol
        out = np.full_like(lines, np.nan)
        assert _irfft_lines(spec, plan, out=out) is out
        assert out.tobytes() == back[:count].tobytes()
        # leading-axis form (C, 1, n): each line pairs with zeros, as in weight_spectrum
        lone = _rfft_lines(lines[:, None], plan)
        assert lone.shape == (count, 1, n)
        assert _rel(lone[:, 0], np.stack([dft_naive(line).bins for line in lines])) <= tol
        back = _irfft_lines(lone, plan)
        assert back.shape == (count, 2, n)
        assert _rel(back[:, 0], lines) <= tol
        assert np.abs(back[:, 1]).max() <= tol * max(1.0, np.abs(lines).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orth", [3, 4])
    @pytest.mark.parametrize("n", [257, 260, 448])
    def test_strided_lines_in_and_out(self, n, orth, dtype):
        """Transposed (L, n) line views pair along their own axis -2 and come
        back through out's strides."""
        tol = 1e-5 if dtype == np.float32 else 1e-12
        rng = np.random.default_rng(n + orth)
        rows = rng.standard_normal((2, 3, n, orth)).astype(dtype)  # (B, C, N, orth)
        view = rows.transpose(1, 0, 3, 2)  # (C, B, orth, N)
        plan = get_plan(n)
        spec = _rfft_lines(view, plan)
        assert spec.shape == (3, 2, (orth + 1) // 2, n)
        assert spec.tobytes() == _rfft_lines(np.ascontiguousarray(view), plan).tobytes()
        out = np.full_like(rows, np.nan)
        got = _irfft_lines(spec, plan, out=out.transpose(1, 0, 3, 2))
        assert np.shares_memory(got, out)
        assert _rel(out, rows) <= tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("orientation,shape", [("H", (1, 3, 37, 5)), ("V", (3, 3, 7, 16)),
                                                   ("H", (1, 3, 257, 5)), ("V", (3, 3, 7, 260))])
    def test_odd_channels_and_lines_match_spatial_route(self, orientation, shape, dtype, tol):
        rng = np.random.default_rng(18)
        p = random_params(rng, 3, orientation=orientation)
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        spatial = parc_forward(x, p).data
        spectral = fast_parc_forward(x, p).data
        assert spectral.dtype == dtype
        assert _rel(spectral, spatial) <= tol


    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                             ids=["f32", "f64"])
    def test_lines_pair_across_batch_items(self, dtype, tol, monkeypatch):
        """Pairs run along each channel's B * orth lines, so B = 2 and orth 3
        make ceil(6 / 2) = 3 complex lines per channel, none of them with a
        zero partner; the V sweep of the transposed map pairs the same lines
        and gives the same bits."""
        rng = np.random.default_rng(53)
        p_h = random_params(rng, 4, orientation="H", kernel_scale=1.0 / 1031)
        p_v = ParCParams("depthwise", "V", p_h.meta_kernel, p_h.meta_pe, p_h.bias)
        x = rng.standard_normal((2, 4, 1031, 3)).astype(dtype)
        x_t = Tensor4(np.ascontiguousarray(np.swapaxes(x, 2, 3)))
        fast_parc_forward(Tensor4(x), p_h)  # builds the weight spectra outside the spy
        fast_parc_forward(x_t, p_v)
        shapes, fft_array = [], fast_parc._fft_array
        monkeypatch.setattr(fast_parc, "_fft_array",
                            lambda z, plan: shapes.append(z.shape) or fft_array(z, plan))
        y_h = fast_parc_forward(Tensor4(x), p_h).data
        assert shapes and {s[-2] for s in shapes} == {3}
        shapes.clear()
        y_v = fast_parc_forward(x_t, p_v).data
        assert shapes and {s[-2] for s in shapes} == {3}
        assert y_v.tobytes() == np.ascontiguousarray(np.swapaxes(y_h, 2, 3)).tobytes()
        assert _rel(y_h, parc_forward(Tensor4(x), p_h).data) <= tol


class TestChannelBlocks:
    """Up to 2 * _MAX_RADIX, fast_parc_forward runs one table GEMM per group
    of whole channels holding at least ``_GROUP_LINES`` lines, whatever
    ``_BLOCK_BYTES`` says.  Past it, one ``_rfft_lines`` call per
    ``_channel_blocks`` block of channels, and both lines of a pair belong to
    one channel.  So every budget gives the same bits, on maps whose lines
    make one pair too."""

    C = 5

    @staticmethod
    def spy_rfft_calls(monkeypatch):
        """lines.shape[0] of every ``_rfft_lines`` call: the GEMM's rows on
        the table path, the block's channels where lines pair."""
        calls, rfft = [], fast_parc._rfft_lines
        monkeypatch.setattr(fast_parc, "_rfft_lines",
                            lambda lines, plan: calls.append(lines.shape[0]) or rfft(lines, plan))
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation,shape", [
        ("H", (2, C, 50, 83)), ("V", (2, C, 50, 83)), ("H", (1, C, 257, 3)),
        ("V", (3, C, 7, 16)), ("H", (1, C, 64, 2)), ("V", (2, C, 1, 5)), ("H", (1, C, 9, 1)),
        ("H", (1, C, 257, 2)), ("V", (1, C, 1, 260)), ("H", (2, C, 257, 3)),
        ("V", (3, C, 5, 260)), ("H", (1, C, 131, 3)), ("V", (3, C, 5, 224))],
        ids=["50x83-H", "50x83-V", "bluestein-257", "odd-lines", "two-lines", "two-lines-V",
             "one-line", "one-pair", "one-pair-V", "odd-pairs", "odd-pairs-V",
             "table-bluestein-131", "table-224-V"])
    def test_every_budget_gives_one_channel_bits(self, orientation, shape, dtype, monkeypatch):
        rng = np.random.default_rng(19)
        p = random_params(rng, self.C, orientation=orientation)
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        fast_parc_forward(x, p)  # builds the weight spectrum outside the spy
        calls = self.spy_rfft_calls(monkeypatch)
        want = None
        for budget in (1, 3000, 256 * 1024, 1 << 40):
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            calls.clear()
            got = fast_parc_forward(x, p).data
            assert got.dtype == dtype
            want = want or got.tobytes()
            assert got.tobytes() == want, budget
        n, orth = shape[2:] if orientation == "H" else shape[:1:-1]
        assert calls == ([self.C * shape[0] * orth] if n <= 2 * _MAX_RADIX else [self.C])

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("shape,rows", [
        # 224 lines per channel: the 1024-line floor makes groups of 5 channels
        ((1, 12, 224, 224), [1120, 1120, 448]),
        # 256 lines of 32: the 65536-element floor, 2048 lines, makes groups of 8
        ((8, 12, 32, 32), [2048, 1024])], ids=["224", "32-b8"])
    def test_channels_span_several_table_groups(self, shape, rows, orientation, dtype, tol,
                                                monkeypatch):
        assert (fast_parc._GROUP_LINES, fast_parc._GROUP_ELEMENTS) == (1024, 65536)
        rng = np.random.default_rng(20)
        p = random_params(rng, 12, orientation=orientation, kernel_scale=1.0 / shape[2])
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        fast_parc_forward(x, p)
        calls = self.spy_rfft_calls(monkeypatch)
        want = None
        for budget in (1, 256 * 1024, 1 << 40):
            monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", budget)
            calls.clear()
            got = fast_parc_forward(x, p).data
            want = want or got.tobytes()
            assert got.tobytes() == want, budget
            assert calls == rows
        assert _rel(got, parc_forward(x, p).data) <= tol

    def test_bluestein_blocks_charge_the_inner_length(self, monkeypatch):
        # 257 runs on inner length 1024: one channel's 8 lines are charged
        # 1024 complex64 bins each, 64 KiB, so a 128 KiB budget takes two
        assert get_plan(257).inner.n == 1024
        rng = np.random.default_rng(21)
        p = random_params(rng, self.C, orientation="H")
        x = Tensor4(rng.standard_normal((2, self.C, 257, 4)).astype(np.float32))
        fast_parc_forward(x, p)
        calls = self.spy_rfft_calls(monkeypatch)
        monkeypatch.setattr(parc_spatial, "_BLOCK_BYTES", 128 * 1024)
        fast_parc_forward(x, p)
        assert calls == [2, 2, 1]

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("orientation", ["H", "V"])
    @pytest.mark.parametrize("n", [256, 257])
    def test_tap_loop_agrees_across_the_path_boundary(self, n, orientation, dtype, tol):
        """256 is the longest half-spectrum length, 257 (Bluestein) the
        shortest that pairs; both agree with the tap loop, odd orth 5."""
        assert get_plan(n).half_spectrum == (n <= 2 * _MAX_RADIX)
        rng = np.random.default_rng(n)
        p = random_params(rng, 3, orientation=orientation)
        shape = (2, 3, n, 5) if orientation == "H" else (2, 3, 5, n)
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        want = parc_forward_via_concat(x, p).data
        got = fast_parc_forward(x, p).data
        assert got.dtype == dtype
        assert _rel(got, want) <= tol


def _source_lines(pattern: str) -> list:
    """Lines of the package's sources that match pattern, as file:line: text."""
    banned = re.compile(pattern)
    sources = sorted(pathlib.Path(parc.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    return [f"{path.name}:{i}: {line.strip()}"
            for path in sources
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]


def test_engine_uses_no_library_fft():
    """The package promises its own transforms: no numpy.fft, no scipy."""
    hits = _source_lines(r"\bnp\.fft\b|\bnumpy\.fft\b|\bscipy\b|from numpy import .*\bfft\b")
    assert not hits, hits


def test_engine_starts_no_thread_pool():
    """Every route runs serially: no worker pool, and no PARC_THREADS knob."""
    hits = _source_lines(r"ThreadPoolExecutor|import threading|PARC_THREADS")
    assert not hits, hits
