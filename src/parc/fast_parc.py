"""Self-contained FFT engine and the frequency-domain circular correlation.

Circular correlation of a length-N line by a length-N kernel is, bin by bin,
the input spectrum times the conjugated kernel spectrum.  This module owns
the transforms needed to exploit that.  Every transform is a short chain of
one stage kind: a batched matmul with a DFT matrix of radix <= _MAX_RADIX, a
twiddle multiply and an axis swap (Bailey's four-step FFT).  A length with a
prime factor above _MAX_RADIX runs a Bluestein chirp convolution on such a
chain, so every N >= 1 works.  ``_rfft_lines`` and ``_irfft_lines`` take
real lines to spectra and back, and only they know the spectrum's format,
which the plan's length picks.  Up to N = 2*_MAX_RADIX = 256, one-stage,
multi-stage (224) and Bluestein (131-251) lengths alike, each line is
multiplied by a real (N, 2h) cos/sin table into its h = N//2 + 1
half-spectrum bins, and a matching real table maps the bins back.  Past
256 two neighbouring real lines ride one complex line, a + i*b, whose full
spectrum is never split.

``fast_parc_forward`` is the operator-level entry point and matches the
spatial routes in ``parc_spatial`` to roundoff.  It runs their pipeline:
up to 256 the swept-last (B, C, orth, N) array of ``_offset_input``, x
itself for a V sweep, past 256 the lines-last (C, B*orth, N) lines of
``parc_spatial._lines``, whose pairs cross batch items; at every length
the output rows q = corr(pe, K) + bias of ``_pe_bias`` and one ``_finish``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parc_spatial import (ParCParams, _channel_blocks, _finish, _lines, _offset_input, _pe_bias,
                           _resolve)
from .tensor import Tensor4, working_dtype

_MAX_RADIX = 128
# Fewest lines, and fewest line elements (lines * N), per table GEMM of
# fast_parc_forward, which groups whole (b, c) planes of the map until a group
# holds both.
# Counts, never a byte budget: a GEMM row's bits depend on the call's row
# count, so the groups must not move with _BLOCK_BYTES.  Measured on a 2-vCPU
# host with 2 OpenBLAS threads: at 224^2 groups of >= 1024 lines ran 1.6-1.8x
# faster than the paired four-step; below N = 64 the element floor makes fewer
# threaded GEMM calls, 7-10% faster at 32^2 (B=8) and 4-10% at 28^2 than the
# line floor alone (interleaved in-process medians).  Larger groups cost memory:
# perfbench's train_det peak RSS rose 1.6% over one channel per GEMM at 1024
# lines and 2.9% at 2048, as a threaded GEMM touches workspace that grows with
# its rows.
_GROUP_LINES = 1024
_GROUP_ELEMENTS = 64 * 1024


@dataclass(frozen=True)
class Spectrum:
    """Frequency bins of one length-n sequence.

    full=False marks the half spectrum of a real input: floor(n/2)+1 bins,
    the rest implied by conjugate symmetry.
    """

    bins: np.ndarray
    n: int
    full: bool

    def __post_init__(self):
        want = self.n if self.full else self.n // 2 + 1
        if self.bins.ndim != 1 or self.bins.shape[0] != want:
            raise ValueError(f"expected {want} bins for n={self.n}, full={self.full}")


def _radices(n: int) -> tuple:
    """Stage radices, each <= _MAX_RADIX, multiplying to n, or () when n has
    a prime factor above _MAX_RADIX.  Splits at the divisor nearest sqrt(n)."""
    if n <= _MAX_RADIX:
        return (n,)
    divisors = [c for d in range(2, math.isqrt(n) + 1) if n % d == 0 for c in (d, n // d)]
    if not divisors:
        return ()
    d = min(divisors, key=lambda c: abs(c - math.sqrt(n)))
    head, tail = _radices(d), _radices(n // d)
    return head + tail if head and tail else ()


def _dft_stages(radices, cdt) -> list:
    """One (radix, tail, twiddles, dft_matrix) per stage; tables are computed
    in complex128 with angles reduced mod their period, then cast to cdt."""
    stages, cur = [], math.prod(radices)
    for f in radices:
        m = cur // f
        tw = np.exp((-2j * np.pi / cur) * np.outer(np.arange(f), np.arange(m)))
        dmat = np.exp((-2j * np.pi / f) * (np.outer(np.arange(f), np.arange(f)) % f))
        stages.append((f, m, tw.astype(cdt), dmat.astype(cdt)))
        cur = m
    return stages


def _real_stage(n: int, rdt) -> tuple:
    """The one-stage real DFT of length n in real dtype rdt, as ([stage],
    inverse).  The stage (n, 1, None, table) holds the (n, 2h) table whose
    columns 2k and 2k + 1 are cos and -sin of 2*pi*j*k/n, h = n//2 + 1 and
    angles reduced mod n, so a real line times it gives its bins k < h as
    interleaved real and imaginary parts.  The (2h, n) inverse is the table
    transposed and scaled by 1/n for DC and Nyquist, 2/n for every other bin;
    the imaginary columns of those two bins are zero, so their imaginary
    parts are ignored both ways."""
    h = n // 2 + 1
    angle = (2 * np.pi / n) * (np.outer(np.arange(n), np.arange(h)) % n)
    table = np.stack((np.cos(angle), -np.sin(angle)), axis=-1)
    table[:, 0, 1] = 0.0
    weight = np.full(h, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        table[:, -1, 1] = 0.0
        weight[-1] = 1.0 / n
    inverse = (table * weight[:, None]).reshape(n, 2 * h).T
    return ([(n, 1, None, table.reshape(n, 2 * h).astype(rdt))],
            np.ascontiguousarray(inverse, dtype=rdt))


def _fft_rec(x: np.ndarray, stages, depth: int) -> np.ndarray:
    """DFT along the last axis of a complex array, one four-step stage per
    call, returned as (lines, n).  With n = f*m, input j1*m + j2 and output
    k1 + f*k2: a length-f DFT over j1, twiddles w_n^(k1*j2), a length-m
    transform of the tail over j2, then the (k1, k2) axes swap.  The real
    stage of ``_real_stage`` (no twiddles) is a leaf of its own: a real
    (..., n) array times its table, (..., 2h) interleaved bins, where matmul
    hands each (L, n) line matrix to BLAS whatever its strides."""
    f, m, tw, dmat = stages[depth]
    if tw is None:
        return np.matmul(x, dmat)
    if m == 1:
        return x.reshape(-1, f) @ dmat
    y = (dmat @ x.reshape(-1, f, m)) * tw
    z = _fft_rec(y, stages, depth + 1).reshape(y.shape)
    return np.swapaxes(z, -1, -2).reshape(-1, f * m)


class FftPlan:
    """Schedule for one transform length; ``get_plan`` builds and caches it.

    ``radices`` lists its four-step stages, each <= _MAX_RADIX: one stage up
    to _MAX_RADIX, otherwise n splits at its divisor nearest sqrt(n) and each
    part splits again (224 -> (14, 16), 16384 -> (128, 128)).  strategy is
    "mixed-radix" then, or "bluestein" when n has a prime factor above
    _MAX_RADIX: such a plan has no radices of its own and reaches its length
    through a chirp convolution whose transforms run on ``inner``, the cached
    plan of a power-of-two length m >= 2n - 1; every other plan has ``inner``
    None.  Tables are built per precision on first use.  Every plan of
    length n <= 2*_MAX_RADIX = 256 has ``half_spectrum`` True, whatever its
    radices: its real lines take the real stage of ``_real_stage``, built
    per real dtype, and keep h = n//2 + 1 bins each.  That table's
    2*n*(n + 2) multiplications per line round trip run as large BLAS GEMMs
    and beat pairing at every length tried up to 256 (224 and Bluestein 131
    included), not at 384 or 512.  Longer plans pair real lines into
    complex ones.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"transform length must be >= 1, got {n}")
        self.n = n
        self.radices = _radices(n)
        self.strategy = "mixed-radix" if self.radices else "bluestein"
        self.half_spectrum = n <= 2 * _MAX_RADIX
        self.inner = None if self.radices else get_plan(1 << (2 * n - 1).bit_length())
        self._cache = {}

    def _tables(self, dt: np.dtype):
        """Stage list, or Bluestein (chirp, transformed filter), in complex
        dtype dt; ``_real_stage``'s tables for a real dtype dt."""
        tables = self._cache.get(dt)
        if tables is None:
            n = self.n
            if dt.kind == "f":
                tables = _real_stage(n, dt)
            elif self.inner is None:
                tables = _dft_stages(self.radices, dt)
            else:
                m = self.inner.n
                idx = np.arange(n, dtype=np.int64)
                # Angles reduced mod 2*pi via n^2 mod 2N, keeping sin/cos arguments small.
                chirp = np.exp((-1j * np.pi / n) * ((idx * idx) % (2 * n)))
                b = np.zeros(m, dtype=np.complex128)
                b[:n] = np.conj(chirp)
                b[m - n + 1:] = np.conj(chirp)[1:][::-1]
                tables = (chirp.astype(dt), _fft_array(b, self.inner).astype(dt))
            self._cache[dt] = tables
        return tables


_PLANS: dict[int, FftPlan] = {}


def get_plan(n: int) -> FftPlan:
    plan = _PLANS.get(n)
    if plan is None:
        plan = _PLANS[n] = FftPlan(n)
    return plan


def _fft_array(x: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Forward DFT along the last axis of a complex array of length plan.n.
    A real float array, on a ``half_spectrum`` plan only, gets its
    (..., n//2 + 1) half spectra from the real stage, any strides allowed."""
    tables = plan._tables(x.dtype)
    if x.dtype.kind == "f":
        return _fft_rec(x, tables[0], 0).view(np.result_type(x.dtype, np.complex64))
    if plan.inner is None:
        return _fft_rec(x, tables, 0).reshape(x.shape)
    chirp, bfft = tables
    u = np.zeros(x.shape[:-1] + (plan.inner.n,), dtype=x.dtype)
    u[..., :plan.n] = x * chirp
    w = _ifft_array(_fft_array(u, plan.inner) * bfft, plan.inner)
    return w[..., :plan.n] * chirp


def _ifft_array(x: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Inverse DFT along the last axis, normalized by 1/n."""
    return np.conj(_fft_array(np.conj(x), plan)) * (1.0 / plan.n)


# ---------------------------------------------------------------------------
# Real-input path, the only code that knows a real line's spectrum format.
# On a ``half_spectrum`` plan each real line keeps its half spectrum.  On any
# other plan lines 2j and 2j + 1 ride one complex transform: correlation with
# a real kernel is linear over C, so corr(a + i*b, k) = corr(a, k) +
# i*corr(b, k) and the pair comes back as the real and imaginary parts.
# ---------------------------------------------------------------------------


def _rfft_lines(lines: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Spectra of real (..., L, n) lines along the last axis, read through
    the lines' own strides.

    On a ``half_spectrum`` plan (n <= 2*_MAX_RADIX): (..., L, n//2 + 1) half
    spectra, line by line.  Otherwise (..., ceil(L/2), n) full spectra of
    lines[2j] + i*lines[2j+1], paired along axis -2 of the view given; an
    odd last line pairs with zeros."""
    if plan.half_spectrum:
        return _fft_array(lines, plan)
    count = lines.shape[-2]
    z = np.zeros(lines.shape[:-2] + ((count + 1) // 2, plan.n),
                 dtype=np.result_type(lines.dtype, np.complex64))
    z.real = lines[..., 0::2, :]
    z.imag[..., :count // 2, :] = lines[..., 1::2, :]
    return _fft_array(z, plan)


def _irfft_lines(spec: np.ndarray, plan: FftPlan, out=None) -> np.ndarray:
    """Undoes ``_rfft_lines``: (..., L, n) real lines from its spectra,
    written into out when given, any strides allowed.  On a paired plan the
    real and imaginary parts of each inverse go straight to lines 2j and
    2j + 1 of out, the zero partner of an odd L dropped; without out, all
    2P lines of P pairs come back."""
    if plan.half_spectrum:
        rdt = spec.real.dtype
        return np.matmul(spec.view(rdt), plan._tables(rdt)[1], out=out)
    w = _ifft_array(spec, plan)
    if out is None:
        out = np.empty(w.shape[:-2] + (2 * w.shape[-2], plan.n), dtype=w.real.dtype)
    out[..., 0::2, :] = w.real
    out[..., 1::2, :] = w.imag[..., :out.shape[-2] // 2, :]
    return out


# ---------------------------------------------------------------------------
# Vector-level public API.
# ---------------------------------------------------------------------------


def dft_naive(x) -> Spectrum:
    """Definition-level O(n^2) DFT, the oracle the fast paths are judged by."""
    v = np.asarray(x)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError("dft_naive expects a non-empty vector")
    n = v.shape[0]
    grid = np.outer(np.arange(n), np.arange(n))
    mat = np.exp((-2j * np.pi / n) * grid)
    return Spectrum(bins=mat @ v.astype(np.complex128), n=n, full=True)


def _complex_dtype(a: np.ndarray) -> np.dtype:
    """complex64 when a's real part works in float32, else complex128."""
    return np.result_type(working_dtype(a.real.dtype), np.complex64)


def fft(x) -> Spectrum:
    """Transform one vector on the cached plan of its length.

    Real input yields the half spectrum (full=False), complex input the
    full spectrum (full=True).  Precision follows ``tensor.working_dtype``,
    promoting and never rejecting: float32 input transforms in complex64,
    as does complex64 input; any other real, integer or boolean input is
    promoted to float64 and any other complex input to complex128.
    """
    v = np.asarray(x)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError("fft expects a non-empty vector")
    plan = get_plan(v.shape[0])
    if np.iscomplexobj(v):
        return Spectrum(bins=_fft_array(v.astype(_complex_dtype(v)), plan), n=plan.n, full=True)
    bins = _rfft_lines(v.astype(working_dtype(v.dtype))[None], plan)[0, :plan.n // 2 + 1]
    return Spectrum(bins=bins, n=plan.n, full=False)


def ifft(spec: Spectrum) -> np.ndarray:
    """Invert ``fft`` with 1/n normalization on the cached plan of length
    spec.n; half spectra come back real.  The bins are cast first by the
    rule of ``fft``, so real or integer bins are read as complex values."""
    plan = get_plan(spec.n)
    bins = spec.bins.astype(_complex_dtype(spec.bins), copy=False)
    if spec.full:
        return _ifft_array(bins, plan)
    # the missing bins n-k are conj(bins[k]) for a real line
    full = np.concatenate((bins, np.conj(bins[1:(spec.n + 1) // 2][::-1])))
    return _ifft_array(full, plan).real


def weight_spectrum(p: ParCParams, n: int, dtype_name: str) -> np.ndarray:
    """Conjugated spectra of the kernel lines: the "spectrum" plan of the
    params, read-only; an unknown dtype_name raises ValueError.  Row c is
    ``_rfft_lines`` of kernel line c alone, (C, n//2 + 1) half spectra on a
    ``half_spectrum`` length, else (C, n) full spectra of each line with a zero
    partner, so it multiplies any spectra of channel c's lines."""
    return p.prepared("spectrum", n, dtype_name, lambda: (np.conj(
        _rfft_lines(p.resolved(n, dtype_name)[0][:, None], get_plan(n))[:, 0]),))[0]


def _sweep_planes(src: np.ndarray, out: np.ndarray, plan: FftPlan, wspec: np.ndarray) -> None:
    """Correlate every row of the C-contiguous (B, C, orth, N) array src
    into the same rows of out, which may be src, on a ``half_spectrum``
    plan.  Each group of whole (b, c) planes holding at least
    ``_GROUP_LINES`` rows and ``_GROUP_ELEMENTS`` row elements is one
    (rows, N) @ (N, 2h) table GEMM; plane b*C + c multiplies its bins by
    row c of wspec; one inverse GEMM writes the group's rows of out."""
    channels, orth, n = src.shape[1:]
    planes, dst = src.reshape(-1, orth, n), out.reshape(-1, orth, n)
    step = -(-max(_GROUP_LINES, _GROUP_ELEMENTS // n) // orth)
    for start in range(0, len(planes), step):
        stop = min(start + step, len(planes))
        spec = _rfft_lines(planes[start:stop].reshape(-1, n), plan)
        bins = spec.reshape(stop - start, orth, -1)
        # runs of planes within one batch item take consecutive rows of wspec
        edges = [start, *range(start - start % channels + channels, stop, channels), stop]
        for lo, hi in zip(edges, edges[1:]):
            c = lo % channels
            bins[lo - start:hi - start] *= wspec[c:c + hi - lo, None, :]
        _irfft_lines(spec, plan, out=dst[start:stop].reshape(-1, n))
        del spec, bins  # before the next group allocates its spectrum


def fast_parc_forward(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Circular correlation via the frequency domain.

    Transforms every line along the swept axis, multiplies by the
    conjugated kernel spectrum bin-wise, transforms back, and ends in
    ``_finish``, which adds the output rows q = corr(pe, K) + bias of
    ``_pe_bias`` to every line of each channel, as every forward route
    does.  Depthwise mode only.

    On a ``half_spectrum`` plan (N <= 2*_MAX_RADIX) the route runs
    ``_sweep_planes`` on the swept-last array of ``_offset_input``: a V
    sweep reads the rows of x and writes those of one fresh output; an H
    sweep transforms its transposed copy of x in place.  So the V sweep of
    x and the H sweep of its transpose run the same products on the same
    arrays, bit for bit.  Past that, lines pair along each channel's B*orth
    lines of the C-contiguous lines-last (C, B*orth, N) array of
    ``parc_spatial._lines``, transformed in place in ``_channel_blocks``
    blocks, each channel charged B*orth rows of ``weight_spectrum`` (rows of
    the inner length at a Bluestein length) against the tap loop's
    ``_BLOCK_BYTES``; ``_finish`` gets their (B, C, orth, N) view.  No bit
    depends on ``_BLOCK_BYTES``: plane groups ignore it, and blocks never
    mix lines of two channels.  ``parallel`` is accepted and ignored;
    perfbench's ``call_route`` still passes it.  The matmuls run on BLAS
    threads.
    """
    if p.mode != "depthwise":
        raise ValueError("the frequency route implements the depthwise operator only")
    axis, n = _resolve(x, p)[:2]
    plan = get_plan(n)
    wspec = weight_spectrum(p, n, x.dtype_name)
    q = _pe_bias(p, n, x.dtype_name)
    if plan.half_spectrum:
        src = _offset_input(x, axis)
        y = src if axis == 2 else np.empty_like(src)
        _sweep_planes(src, y, plan, wspec)
        return _finish(y, q, axis)
    lines = _lines(x.data, axis, dtype=x.dtype)
    channels, count, _ = lines.shape
    # a Bluestein transform works on lines of its inner length, m >= 2n - 1
    length = n if plan.inner is None else plan.inner.n
    for blk in _channel_blocks(channels, count * wspec[0].nbytes * length // n):
        group = lines[blk]
        spec = _rfft_lines(group, plan)
        spec *= wspec[blk, None, :]
        _irfft_lines(spec, plan, out=group)
        del spec  # before the next block allocates its spectrum
    return _finish(np.swapaxes(lines.reshape(channels, x.shape[0], -1, n), 0, 1), q, axis)
