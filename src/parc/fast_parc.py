"""Self-contained FFT engine and the frequency-domain circular correlation.

Circular correlation of a length-N line by a length-N kernel is, bin by bin,
the input spectrum times the conjugated kernel spectrum.  This module owns
the transforms needed to exploit that: a mixed-radix Cooley–Tukey FFT for
smooth lengths, a Bluestein chirp transform for lengths with large prime
factors (so every N >= 1 works, including 7, 14, 56), and a half-spectrum
real path that transforms two real lines per complex FFT.

``fast_parc_forward`` is the operator-level entry point and matches the
spatial routes in ``parc_spatial`` to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import run_sliced
from .parc_spatial import ParCParams, _offset_input, _per_channel
from .tensor import Tensor4

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


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


def _factorize(n: int):
    fs, m = [], n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            fs.append(p)
            m //= p
    return fs, m


def _build_stages(n: int, factors) -> list:
    """Decimation schedule: one (factor, tail, twiddles, dft_matrix) per level."""
    stages, cur = [], n
    for f in factors:
        m = cur // f
        grid = np.arange(f).reshape(-1, 1) * np.arange(m).reshape(1, -1)
        tw = np.exp((-2j * np.pi / cur) * grid)
        dmat = None
        if f != 2:
            dmat = np.exp((-2j * np.pi / f) * np.outer(np.arange(f), np.arange(f)))
        stages.append((f, m, tw, dmat))
        cur = m
    return stages


def _fft_rec(x: np.ndarray, stages, depth: int) -> np.ndarray:
    """DFT along the last axis; x must already be complex."""
    if depth == len(stages):
        return x
    f, m, tw, dmat = stages[depth]
    sub = np.swapaxes(x.reshape(x.shape[:-1] + (m, f)), -1, -2)
    z = _fft_rec(sub, stages, depth + 1) * tw
    if f == 2:
        return np.concatenate([z[..., 0, :] + z[..., 1, :], z[..., 0, :] - z[..., 1, :]], axis=-1)
    out = np.einsum("tj,...jq->...tq", dmat, z)
    return out.reshape(x.shape)


def _cast_stages(stages, cdt):
    return [
        (f, m, tw.astype(cdt), None if dmat is None else dmat.astype(cdt))
        for f, m, tw, dmat in stages
    ]


class FftPlan:
    """Precomputed schedule for one transform length.

    strategy is "radix-2" when the length is a power of two, "mixed-radix"
    when all prime factors are small, "bluestein" otherwise (the length is
    then reached through a power-of-two chirp convolution).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"transform length must be >= 1, got {n}")
        self.n = n
        factors, residual = _factorize(n)
        self._blu = None
        if residual > 1:
            self.strategy = "bluestein"
            self._blu = self._build_bluestein(n)
            self._stages = None
        else:
            self.strategy = "radix-2" if all(f == 2 for f in factors) else "mixed-radix"
            self._stages = _build_stages(n, factors)
        self._cast32 = None

    @staticmethod
    def _build_bluestein(n: int):
        m = 1 << (2 * n - 1).bit_length()
        idx = np.arange(n, dtype=np.int64)
        # Angles reduced mod 2*pi via n^2 mod 2N, keeping sin/cos arguments small.
        chirp = np.exp((-1j * np.pi / n) * ((idx * idx) % (2 * n)))
        b = np.zeros(m, dtype=np.complex128)
        b[:n] = np.conj(chirp)
        if n > 1:
            b[m - n + 1:] = np.conj(chirp)[1:][::-1]
        inner = _build_stages(m, [2] * (m.bit_length() - 1))
        return m, chirp, _fft_rec(b, inner, 0), inner

    def _tables(self, use32: bool):
        if not use32:
            return self._stages, self._blu
        if self._cast32 is None:
            stages = None if self._stages is None else _cast_stages(self._stages, np.complex64)
            blu = None
            if self._blu is not None:
                m, chirp, bfft, inner = self._blu
                blu = (m, chirp.astype(np.complex64), bfft.astype(np.complex64),
                       _cast_stages(inner, np.complex64))
            self._cast32 = (stages, blu)
        return self._cast32


_PLANS: dict[int, FftPlan] = {}


def get_plan(n: int) -> FftPlan:
    plan = _PLANS.get(n)
    if plan is None:
        plan = _PLANS[n] = FftPlan(n)
    return plan


def _fft_array(x: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Forward DFT along the last axis of a complex array."""
    if x.shape[-1] != plan.n:
        raise ValueError(f"plan is for length {plan.n}, input has {x.shape[-1]}")
    stages, blu = plan._tables(x.dtype == np.complex64)
    if blu is None:
        return _fft_rec(x, stages, 0)
    m, chirp, bfft, inner = blu
    n = plan.n
    u = np.zeros(x.shape[:-1] + (m,), dtype=x.dtype)
    u[..., :n] = x * chirp
    v = _fft_rec(u, inner, 0) * bfft
    w = np.conj(_fft_rec(np.conj(v), inner, 0)) * (1.0 / m)
    return w[..., :n] * chirp


def _ifft_array(x: np.ndarray, plan: FftPlan) -> np.ndarray:
    """Inverse DFT along the last axis, normalized by 1/n."""
    return np.conj(_fft_array(np.conj(x), plan)) * (1.0 / plan.n)


# ---------------------------------------------------------------------------
# Real-input half-spectrum path.  Two real lines ride one complex transform:
# for z = a + i*b the spectra split as A = (Z + conj(Z[-k]))/2 and
# B = (Z - conj(Z[-k]))/(2i).
# ---------------------------------------------------------------------------


def _rfft_lines(lines: np.ndarray, plan: FftPlan) -> np.ndarray:
    """(L, n) real -> (L, floor(n/2)+1) complex."""
    if lines.shape[-1] != plan.n:
        raise ValueError(f"plan is for length {plan.n}, lines have {lines.shape[-1]}")
    n = plan.n
    nh = n // 2 + 1
    cdt = np.complex64 if lines.dtype == np.float32 else np.complex128
    count = lines.shape[0]
    out = np.empty((count, nh), dtype=cdt)
    pairs = count // 2
    if pairs:
        z = np.empty((pairs, n), dtype=cdt)
        z.real = lines[0:2 * pairs:2]
        z.imag = lines[1:2 * pairs:2]
        zf = _fft_array(z, plan)
        zrev = np.conj(zf[:, (n - np.arange(n)) % n])
        out[0:2 * pairs:2] = (0.5 * (zf + zrev))[:, :nh]
        out[1:2 * pairs:2] = (-0.5j * (zf - zrev))[:, :nh]
    if count % 2:
        solo = _fft_array(lines[-1].astype(cdt), plan)
        out[-1] = solo[:nh]
    return out


def _irfft_lines(half: np.ndarray, plan: FftPlan) -> np.ndarray:
    """(L, floor(n/2)+1) complex -> (L, n) real, undoing ``_rfft_lines``."""
    n = plan.n
    nh = n // 2 + 1
    if half.shape[-1] != nh:
        raise ValueError(f"expected {nh} bins for length {n}, got {half.shape[-1]}")
    cdt = np.complex64 if half.dtype == np.complex64 else np.complex128
    rdt = np.float32 if cdt == np.complex64 else np.float64
    count = half.shape[0]
    full = np.empty((count, n), dtype=cdt)
    full[:, :nh] = half
    full[:, nh:] = np.conj(half[:, 1:n - nh + 1])[:, ::-1]
    out = np.empty((count, n), dtype=rdt)
    pairs = count // 2
    if pairs:
        z = full[0:2 * pairs:2] + 1j * full[1:2 * pairs:2]
        w = _ifft_array(z.astype(cdt), plan)
        out[0:2 * pairs:2] = w.real
        out[1:2 * pairs:2] = w.imag
    if count % 2:
        out[-1] = _ifft_array(full[-1], plan).real
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


def fft(x, plan: FftPlan | None = None) -> Spectrum:
    """Transform one vector; real input yields the half spectrum.

    Args:
        x: 1D real or complex sequence.
        plan: optional FftPlan; built (and cached) from len(x) when omitted.

    Returns:
        Spectrum with full=False for real input, full=True for complex.
    """
    v = np.asarray(x)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError("fft expects a non-empty vector")
    if plan is None:
        plan = get_plan(v.shape[0])
    if np.iscomplexobj(v):
        cdt = np.complex64 if v.dtype == np.complex64 else np.complex128
        return Spectrum(bins=_fft_array(v.astype(cdt), plan), n=plan.n, full=True)
    rdt = np.float32 if v.dtype == np.float32 else np.float64
    return Spectrum(bins=_rfft_lines(v.astype(rdt).reshape(1, -1), plan)[0], n=plan.n, full=False)


def ifft(spec: Spectrum, plan: FftPlan | None = None) -> np.ndarray:
    """Invert ``fft`` with 1/n normalization; half spectra come back real."""
    if plan is None:
        plan = get_plan(spec.n)
    if plan.n != spec.n:
        raise ValueError(f"plan is for length {plan.n}, spectrum for {spec.n}")
    if spec.full:
        return _ifft_array(spec.bins, plan)
    return _irfft_lines(spec.bins.reshape(1, -1), plan)[0]


def weight_spectrum(p: ParCParams, n: int, dtype_name: str) -> np.ndarray:
    """Per-channel conjugate-ready kernel spectra, cached on the params."""
    key = (n, dtype_name)
    # resolving first also drops spectra of params edited since they were cached
    kernel_n, _, _ = p.resolved(n, dtype_name)
    spec = p._spectra.get(key)
    if spec is None:
        spec = _rfft_lines(kernel_n, get_plan(n))
        p._spectra[key] = spec
    return spec


def fast_parc_forward(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Circular correlation via the frequency domain.

    Adds the position embedding spatially, transforms every line along the
    swept axis, multiplies by the conjugated kernel spectrum bin-wise,
    transforms back, and adds bias.  Depthwise mode only.
    """
    if p.mode != "depthwise":
        raise ValueError("the frequency route implements the depthwise operator only")
    axis, n, _, _, bias, xp = _offset_input(x, p)
    plan = get_plan(n)
    wspec = np.conj(weight_spectrum(p, n, x.dtype_name))
    lines_first = xp.transpose(0, 1, 3, 2) if axis == 2 else xp
    batch, _, orth, _ = lines_first.shape
    out_lines = np.empty(lines_first.shape, dtype=xp.dtype)

    def work(sl):
        # one channel per transform batch, so line pairing inside the real
        # path never depends on how channels were sliced across workers
        for c in range(sl.start, sl.stop):
            spec = _rfft_lines(np.ascontiguousarray(lines_first[:, c]).reshape(-1, n), plan)
            spec *= wspec[c][None, :]
            out_lines[:, c] = _irfft_lines(spec, plan).reshape(batch, orth, n)

    run_sliced(work, xp.shape[1], parallel)
    y = out_lines.transpose(0, 1, 3, 2) if axis == 2 else out_lines
    y = np.ascontiguousarray(y)
    y += _per_channel(bias.astype(xp.dtype))
    return Tensor4(y)
