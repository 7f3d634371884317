"""Self-contained FFT engine and the frequency-domain circular correlation.

Circular correlation of a length-N line by a length-N kernel is, bin by bin,
the input spectrum times the conjugated kernel spectrum.  This module owns
the transforms needed to exploit that.  Every transform is a short chain of
one stage kind: a batched matmul with a DFT matrix of radix <= _MAX_RADIX, a
twiddle multiply and an axis swap (Bailey's four-step FFT).  A length with a
prime factor above _MAX_RADIX runs a Bluestein chirp convolution on such a
chain, so every N >= 1 works.  The real path packs two real lines into one
complex line and never splits its spectrum.

``fast_parc_forward`` is the operator-level entry point and matches the
spatial routes in ``parc_spatial`` to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parc_spatial import ParCParams, _channel_blocks, _offset_input, _per_channel, _rows
from .tensor import Tensor4, working_dtype

_MAX_RADIX = 128


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


def _fft_rec(x: np.ndarray, stages, depth: int) -> np.ndarray:
    """DFT along the last axis of a complex array, one four-step stage per
    call, returned as (lines, n).  With n = f*m, input j1*m + j2 and output
    k1 + f*k2: a length-f DFT over j1, twiddles w_n^(k1*j2), a length-m
    transform of the tail over j2, then the (k1, k2) axes swap."""
    f, m, tw, dmat = stages[depth]
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
    None.  Tables are built per precision on first use.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"transform length must be >= 1, got {n}")
        self.n = n
        self.radices = _radices(n)
        self.strategy = "mixed-radix" if self.radices else "bluestein"
        self.inner = None if self.radices else get_plan(1 << (2 * n - 1).bit_length())
        self._cache = {}

    def _tables(self, cdt: np.dtype):
        """Stage list, or Bluestein (chirp, transformed filter), in dtype cdt."""
        tables = self._cache.get(cdt)
        if tables is None:
            n = self.n
            if self.inner is None:
                tables = _dft_stages(self.radices, cdt)
            else:
                m = self.inner.n
                idx = np.arange(n, dtype=np.int64)
                # Angles reduced mod 2*pi via n^2 mod 2N, keeping sin/cos arguments small.
                chirp = np.exp((-1j * np.pi / n) * ((idx * idx) % (2 * n)))
                b = np.zeros(m, dtype=np.complex128)
                b[:n] = np.conj(chirp)
                b[m - n + 1:] = np.conj(chirp)[1:][::-1]
                tables = (chirp.astype(cdt), _fft_array(b, self.inner).astype(cdt))
            self._cache[cdt] = tables
        return tables


_PLANS: dict[int, FftPlan] = {}


def get_plan(n: int) -> FftPlan:
    plan = _PLANS.get(n)
    if plan is None:
        plan = _PLANS[n] = FftPlan(n)
    return plan


def _fft_array(x: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Forward DFT along the last axis of a complex array of length plan.n."""
    tables = plan._tables(x.dtype)
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
# Real-input path.  Two real lines ride one complex transform: correlation
# with a real kernel is linear over C, so corr(a + i*b, k) = corr(a, k) +
# i*corr(b, k) and the pair comes back as the real and imaginary parts.
# ---------------------------------------------------------------------------


def _rfft_lines(lines: np.ndarray, plan: FftPlan) -> np.ndarray:
    """(..., L, n) real -> (..., ceil(L/2), n) full spectra of lines[2j] +
    i*lines[2j+1], paired along axis -2; an odd last line pairs with zeros."""
    count = lines.shape[-2]
    z = np.zeros(lines.shape[:-2] + ((count + 1) // 2, plan.n),
                 dtype=np.result_type(lines.dtype, np.complex64))
    z.real = lines[..., 0::2, :]
    z.imag[..., :count // 2, :] = lines[..., 1::2, :]
    return _fft_array(z, plan)


def _irfft_lines(spec: np.ndarray, plan: FftPlan) -> np.ndarray:
    """(..., P, n) complex -> (..., 2P, n) real, the inverse's real and
    imaginary parts interleaved; undoes ``_rfft_lines``."""
    w = _ifft_array(spec, plan)
    return np.stack((w.real, w.imag), axis=-2).reshape(w.shape[:-2] + (-1, plan.n))


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
    """Conjugated full spectra (C, n) of the kernel lines, each with a zero
    partner: the "spectrum" plan of the params, read-only; an unknown
    dtype_name raises ValueError."""
    return p.prepared("spectrum", n, dtype_name, lambda: (np.conj(
        _rfft_lines(p.resolved(n, dtype_name)[0][:, None], get_plan(n))[:, 0]),))[0]


def fast_parc_forward(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Circular correlation via the frequency domain.

    Adds the position embedding spatially, transforms every line along the
    swept axis, multiplies by the conjugated kernel spectrum bin-wise,
    transforms back, and adds bias.  Depthwise mode only.  Channels run in
    ``parc_spatial._channel_blocks`` blocks, one transform pair per block,
    sized so a block's spectra fit the tap loop's ``_BLOCK_BYTES``, and a
    channel whose lines make one pair always alone; pairs never cross
    channels, so the block size changes no bit.  ``parallel`` is
    accepted and ignored; perfbench's ``call_route`` still passes it.  The
    stage matmuls run on BLAS threads.
    """
    if p.mode != "depthwise":
        raise ValueError("the frequency route implements the depthwise operator only")
    axis, n, _, bias, xp = _offset_input(x, p)
    plan = get_plan(n)
    wspec = weight_spectrum(p, n, x.dtype_name)
    batch, channels, _, orth = xp.shape
    lines = batch * orth
    y = np.empty(x.shape, dtype=xp.dtype)
    # (C, B, orth, N) line views of xp and of y, the latter written in place
    lines_in = xp.transpose(1, 0, 3, 2)
    lines_out = _rows(y, axis).transpose(1, 0, 3, 2)
    # both lines of a pair share one channel's kernel, so a block transforms
    # (cb, B * orth, N) lines, its spectra within the tap loop's byte budget;
    # numpy runs a one-row product on gemv, which rounds unlike a row of gemm,
    # so a channel of one pair is a block of its own at every budget
    pairs = (lines + 1) // 2
    length = plan.n if plan.inner is None else plan.inner.n
    blocks = (_channel_blocks(channels, pairs * length * wspec.itemsize) if pairs > 1
              else [slice(c, c + 1) for c in range(channels)])
    for blk in blocks:
        block = lines_in[blk]
        spec = _rfft_lines(block.reshape(block.shape[0], lines, n), plan)
        spec *= wspec[blk, None, :]
        lines_out[blk] = _irfft_lines(spec, plan)[:, :lines].reshape(block.shape)
    y += _per_channel(bias)
    return Tensor4(y)
