"""Global circular correlation with a learned per-position input offset.

The operator sweeps one spatial axis (H or V) with a kernel as long as that
axis, wrapping indices modulo the axis length, after adding a position
embedding to the input.  Kernel and embedding are stored at a fixed meta
length and stretched to the runtime extent by linear interpolation, so one
parameter set serves any input size.

An H sweep and a V sweep are one operator on transposed maps, so every route
works on the (B, C, N, orth) layout of ``_offset_input``, swept axis at 2,
and ``_rows`` maps results back to (B, C, H, W), bit for bit.

Both spatial routes run one valid correlation over the (2N-1)-long periodic
extension of the offset input and differ only in how they build that
extension: ``parc_forward`` with one explicit modulo gather,
``parc_forward_via_concat`` by concatenating the input's first N-1 positions
onto it.  The extensions are equal and the tap loop is shared, so their
outputs agree bit for bit.  In depthwise mode the tap loop is
``_correlate``, which runs all taps over one cache-sized channel block before
the next; the zero-padded baselines in ``conv_baseline`` share it.
A frequency-domain route lives in ``fast_parc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._threads import run_sliced
from .tensor import Tensor4, dtype_from_name, finite_field, interp_linear_adjoint, interp_rows

_AXIS = {"H": 2, "V": 3}
DEFAULT_META_LEN = 14
# Output bytes per channel block of the tap loop ``_correlate``: small enough that
# a block's source window, product buffer and output stay in L2 over all taps.
_BLOCK_BYTES = 256 * 1024


def sweep_axis(orientation: str) -> int:
    """Array axis swept by the given orientation: H -> 2 (height), V -> 3."""
    try:
        return _AXIS[orientation]
    except KeyError:
        raise ValueError(f"orientation must be 'H' or 'V', got {orientation!r}")


@dataclass
class ParCParams:
    """Learnable state of one circular-correlation layer.

    Depthwise mode holds one kernel row per channel: meta_kernel (C, K),
    meta_pe (C, K_pe), bias (C,).  Dense mode mixes channels: meta_kernel
    (C_out, C_in, K), meta_pe (C_in, K_pe), bias (C_out,).  All values are
    kept as float64 and must be finite.

    The trailing dicts cache per-(length, dtype) resolved parameters and
    weight spectra.  Once the shape, dtype or bytes of meta_kernel, meta_pe
    or bias change, in-place edits included, ``resolved`` validates the
    fields again and empties both.
    """

    mode: str
    orientation: str
    meta_kernel: np.ndarray
    meta_pe: np.ndarray
    bias: np.ndarray
    _resolved: dict = field(default_factory=dict, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, repr=False, compare=False)
    _stamp: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("depthwise", "dense"):
            raise ValueError(f"mode must be 'depthwise' or 'dense', got {self.mode!r}")
        sweep_axis(self.orientation)
        mk, pe, b = (finite_field(self, f) for f in ("meta_kernel", "meta_pe", "bias"))
        want = 2 if self.mode == "depthwise" else 3
        if mk.ndim != want or min(mk.shape) < 1:
            raise ValueError(f"{self.mode} meta_kernel must have rank {want} with positive extents")
        if pe.ndim != 2 or min(pe.shape) < 1:
            raise ValueError("meta_pe must be (channels_in, K_pe)")
        if b.ndim != 1:
            raise ValueError("bias must be a vector")
        c_in = mk.shape[0] if self.mode == "depthwise" else mk.shape[1]
        c_out = mk.shape[0]
        if pe.shape[0] != c_in:
            raise ValueError(f"meta_pe carries {pe.shape[0]} channels, kernel implies {c_in}")
        if b.shape[0] != c_out:
            raise ValueError(f"bias carries {b.shape[0]} channels, kernel implies {c_out}")

    @property
    def channels_in(self) -> int:
        return self.meta_pe.shape[0]

    @property
    def channels_out(self) -> int:
        return self.bias.shape[0]

    @property
    def k_meta(self) -> int:
        return self.meta_kernel.shape[-1]

    def resolved(self, n: int, dtype_name: str):
        """Kernel, PE, and bias stretched to sweep length n and cast.

        Interpolation runs in float64 and the result is cached per
        (n, dtype_name), so repeated calls at one resolution are free.  If a
        field's shape, dtype or bytes have changed, the fields are validated
        as in the constructor and both caches are emptied first.  An unknown
        dtype_name raises ValueError and caches nothing.
        """
        def stamp():
            fields = map(np.asarray, (self.meta_kernel, self.meta_pe, self.bias))
            return tuple((a.shape, a.dtype, a.tobytes()) for a in fields)

        if stamp() != self._stamp:
            self.__post_init__()
            self._resolved.clear()
            self._spectra.clear()
            self._stamp = stamp()
        key = (n, dtype_name)
        hit = self._resolved.get(key)
        if hit is None:
            dt = dtype_from_name(dtype_name)
            hit = (
                interp_rows(self.meta_kernel, n).astype(dt),
                interp_rows(self.meta_pe, n).astype(dt),
                self.bias.astype(dt),
            )
            self._resolved[key] = hit
        return hit


def random_params(
    rng: np.random.Generator,
    channels: int,
    *,
    orientation: str = "H",
    mode: str = "depthwise",
    channels_out: int | None = None,
    k_meta: int = DEFAULT_META_LEN,
    kernel_scale: float = 1.0,
    pe_scale: float = 0.1,
    bias_scale: float = 0.1,
) -> ParCParams:
    """Uniformly random parameters, scaled per group for test conditioning."""
    if mode == "depthwise":
        mk = rng.uniform(-1.0, 1.0, (channels, k_meta)) * kernel_scale
        c_out = channels
    else:
        c_out = channels_out if channels_out is not None else channels
        mk = rng.uniform(-1.0, 1.0, (c_out, channels, k_meta)) * kernel_scale
    pe = rng.uniform(-1.0, 1.0, (channels, k_meta)) * pe_scale
    b = rng.uniform(-1.0, 1.0, c_out) * bias_scale
    return ParCParams(mode, orientation, mk, pe, b)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def _per_channel(vec: np.ndarray) -> np.ndarray:
    return vec.reshape(1, -1, 1, 1)


def _rows(arr: np.ndarray, axis: int) -> np.ndarray:
    """View of a (B, C, H, W) array with the swept axis at position 2, or
    back: a no-op for H, a swap of H and W for V, and its own inverse."""
    return np.swapaxes(arr, 2, axis)


def _offset_input(x: Tensor4, p: ParCParams):
    """Swept axis, length N, resolved kernel and bias, and xp = x + pe as one
    C-contiguous (B, C, N, orth) array; the add that allocates xp also does
    the transpose, so a V sweep copies the input no more than an H sweep."""
    if x.shape[1] != p.channels_in:
        raise ValueError(f"input carries {x.shape[1]} channels, params expect {p.channels_in}")
    axis = sweep_axis(p.orientation)
    n = x.shape[axis]
    kernel_n, pe_n, bias = p.resolved(n, x.dtype_name)
    xp = np.add(_rows(x.data, axis), pe_n[None, :, :, None], order="C")
    return axis, n, kernel_n, bias, xp


def _correlate(src, taps, y) -> None:
    """Add sum_(r,s) taps[c, r, s] * src[:, c, r:r + h, s:s + w] into y[:, c]
    for every channel c, (h, w) being y's last two extents.

    Taps run in row-major order, each multiplied into one product buffer, one
    block of max(1, _BLOCK_BYTES // y[:, :1].nbytes) channels at a time: a
    block runs all its taps before the next starts, so its source window,
    product buffer and output stay in cache.  Channels never mix, so the
    block size changes no output element's sequence of operations, or any bit.
    """
    h, w = y.shape[2:]
    step = max(1, _BLOCK_BYTES // y[:, :1].nbytes)
    for start in range(0, y.shape[1], step):
        blk = slice(start, start + step)
        dst = y[:, blk]
        prod = np.empty_like(dst)
        for r, s in np.ndindex(taps.shape[1:]):
            np.multiply(_per_channel(taps[blk, r, s]), src[:, blk, r:r + h, s:s + w], out=prod)
            dst += prod


def _accumulate(ext, kernel_n, bias, mode, axis):
    """Shared tap loop over the periodic extension ext, (B, C, 2N-1, orth).

    Tap k reads the window ext[..., k:k + N, :], so output position i takes
    kernel[k] * ext[i + k], which is (x + pe)[(i + k) mod N].  The output is
    accumulated with the swept axis at 2, as ext has it, and returned through
    ``_rows``.  Both spatial routes funnel through here so the accumulation
    order, and therefore every rounding, is identical.  Depthwise, it runs
    the channel-blocked ``_correlate`` through ``run_sliced``.
    """
    n = kernel_n.shape[-1]
    y = np.zeros((ext.shape[0], kernel_n.shape[0], n, ext.shape[3]), dtype=ext.dtype)
    if mode == "depthwise":
        run_sliced(_correlate, ext, kernel_n[:, :, None], y)
    else:
        for k in range(n):
            y += np.einsum("oi,bihw->bohw", kernel_n[:, :, k], ext[:, :, k:k + n])
    y += _per_channel(bias)
    return Tensor4(_rows(y, axis))


def parc_forward(x: Tensor4, p: ParCParams) -> Tensor4:
    """Circular correlation via one explicit modulo gather.

    Output position i along the swept axis is
    sum_k kernel[c, k] * (x + pe)[c, (k + i) mod N] + bias[c]; dense mode
    additionally contracts over input channels.  Output shape matches the
    input except that dense mode replaces C with channels_out.  The periodic
    extension is gathered once per call at indices arange(2N - 1) mod N.
    """
    axis, n, kernel_n, bias, xp = _offset_input(x, p)
    ext = np.take(xp, np.arange(2 * n - 1) % n, axis=2)
    return _accumulate(ext, kernel_n, bias, p.mode, axis)


def parc_forward_via_concat(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Same operator computed over a periodic extension of the input.

    The offset input is concatenated with its own first N-1 positions along
    the swept axis (length 2N-1) and the kernel slides over that extension
    with no padding.  Independent of the modulo route in its indexing, yet
    bit-identical to it because the extension and the tap loop match.
    ``parallel`` is accepted and ignored; perfbench's ``call_route`` still
    passes it.  The tap loop always runs serially.
    """
    axis, n, kernel_n, bias, xp = _offset_input(x, p)
    ext = np.concatenate([xp, xp[:, :, :n - 1]], axis=2)
    return _accumulate(ext, kernel_n, bias, p.mode, axis)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParCGrads:
    """Cotangents for every learnable input of the forward pass.

    d_kernel_n / d_pe_n are at the resolved sweep length; d_meta_kernel /
    d_meta_pe are pulled back through the interpolation adjoint.  d_input
    carries the input's dtype; every other field is float64, accumulated in
    float64 whatever the input precision.
    """

    d_input: Tensor4
    d_kernel_n: np.ndarray
    d_pe_n: np.ndarray
    d_bias: np.ndarray
    d_meta_kernel: np.ndarray
    d_meta_pe: np.ndarray


def parc_backward(x: Tensor4, p: ParCParams, dy: Tensor4) -> ParCGrads:
    """Analytic adjoint of the forward operator at the point (x, p).

    dY has the forward output's shape.  Along one line the forward pass is
    y = xp @ M.T with the circulant M[i, l] = K[(l - i) mod N], so the adjoint
    is two batched matmuls over lines-last (C, lines, N) arrays, computed in
    float64 from the offset input xp formed at the input precision:
    dxp = dY @ M, and dK[k] = sum_i G[i, (i + k) mod N] sums the wrapped
    diagonals of the Gram matrix G = dY.T @ xp.  Depthwise mode builds one
    (C, N, N) circulant stack.  Dense mode loops over output channels o, each
    with a (C_in, N, N) stack and Gram, adding its share to dxp, so no
    (C_out*N, C_in*N) matrix is ever formed.  Meta-length gradients are
    pulled back through ``interp_linear_adjoint``.
    """
    axis, n, kernel_n, _, xp = _offset_input(x, p)
    expect = (x.shape[0], p.channels_out) + x.shape[2:]
    if dy.shape != expect:
        raise ValueError(f"dY shape {dy.shape} does not match forward output {expect}")
    # (B, C, N, orth) <-> (C, B, orth, N), the swept axis last; its own inverse
    perm = (1, 0, 3, 2)

    def lines(arr):
        return np.ascontiguousarray(arr.transpose(perm), dtype=np.float64).reshape(
            arr.shape[1], -1, n)

    g, xl = lines(_rows(dy.data, axis)), lines(xp)
    k64 = kernel_n.astype(np.float64)
    ramp = np.arange(n)
    circ = (ramp[None, :] - ramp[:, None]) % n
    diag = (ramp[:, None] + ramp[None, :]) % n

    def adjoint(g_lines, k):
        """dxp lines and dK for cotangent lines against the kernel rows k."""
        gram = np.swapaxes(g_lines, -1, -2) @ xl
        dk = np.take_along_axis(gram, np.broadcast_to(diag, gram.shape), axis=-1).sum(axis=-2)
        return g_lines @ k[..., circ], dk

    if p.mode == "depthwise":
        dxl, dwn = adjoint(g, k64)
    else:
        dxl, dwn = np.zeros(xl.shape), np.empty(k64.shape)
        for o in range(p.channels_out):
            part, dwn[o] = adjoint(g[o], k64[o])
            dxl += part

    d_pe_n = dxl.sum(axis=1)
    d_input = _rows(dxl.reshape(xp.shape[1], x.shape[0], -1, n).transpose(perm), axis)
    return ParCGrads(
        d_input=Tensor4(np.ascontiguousarray(d_input, dtype=x.dtype)),
        d_kernel_n=dwn,
        d_pe_n=d_pe_n,
        d_bias=g.sum(axis=(1, 2)),
        d_meta_kernel=interp_linear_adjoint(dwn, p.k_meta),
        d_meta_pe=interp_linear_adjoint(d_pe_n, p.meta_pe.shape[-1]),
    )
