"""Global circular correlation with a learned per-position input offset.

The operator sweeps one spatial axis (H or V) with a kernel as long as that
axis, wrapping indices modulo the axis length, after adding a position
embedding to the input.  Kernel and embedding are stored at a fixed meta
length and stretched to the runtime extent by linear interpolation, so one
parameter set serves any input size.

Every swept line is an independent length-N circular correlation, so every
route works on one layout whatever the orientation: C-contiguous lines-last
(C, B * orth, N) arrays of ``_lines``, one row per line, each made by the add
or cast that also does the transpose; ``_line_view`` maps (B, C, H, W) to
lines and back.  Every forward route, ``fast_parc``'s too, starts with
``_offset_input``, the one place the position embedding is added, and ends
in ``_finish``, the one place lines become a map again.

``parc_forward_via_concat`` is the paper's tap loop: one valid correlation
over the (2N-1)-long periodic extension of each offset line.  Along one line
the operator is also a product with the circulant M[i, l] = K[(l - i) mod N]
(``_circulant``), so in depthwise mode ``parc_forward`` runs the sweep as one
stacked matmul, agreeing with the tap loop to roundoff.  Where that stack
would outgrow the periodic extension (thin maps) and in dense mode,
``parc_forward`` runs the same tap loop, bit for bit.  In depthwise mode the
tap loop is ``_correlate``, which reads its source circularly, one einsum
pass over a strided window view per cache-sized channel block, storing no
per-tap product; the zero-padded baselines in ``conv_baseline`` share it.
``parc_backward`` runs the operator again per channel block of lines, dX
correlating dY with the reversed kernel and dK the offset input with dY: as
circulant matmuls under the memory rule and as ``_correlate`` passes on thin
maps, so it never holds much more than the forward.
Resolved rows, weight spectra and forward circulant stacks are plans, cached
by ``ParCParams.prepared``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._threads import run_sliced
from .tensor import Tensor4, dtype_from_name, finite_field, interp_linear_adjoint, interp_rows

_AXIS = {"H": 2, "V": 3}
DEFAULT_META_LEN = 14
# Most plans one ParCParams keeps, least recently used dropped first.  A count
# bounds the bytes: the one large plan, a circulant stack, passed parc_forward's
# memory rule, so it is no larger than the extension its own call allocated.
_PLAN_CAP = 16
# Output bytes per channel block of the tap loop ``_correlate``: small enough that
# a block's source window and output stay in L2 over all taps.  The frequency
# route sizes its channel blocks of paired spectra (lengths past 256) by the
# same budget.
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

    The trailing dict caches the read-only plans of ``prepared`` per (kind,
    length, dtype).  Once the shape, dtype or bytes of meta_kernel, meta_pe
    or bias change, in-place edits included, ``prepared`` empties it.
    """

    mode: str
    orientation: str
    meta_kernel: np.ndarray
    meta_pe: np.ndarray
    bias: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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

    def prepared(self, kind: str, n: int, dtype_name: str, build) -> tuple:
        """Plan ``kind`` at sweep length n and precision dtype_name: the tuple
        of arrays build() returns on a miss, made read-only; a build that
        raises caches nothing.  Edited fields are validated as in the
        constructor and drop every plan first.  Past ``_PLAN_CAP`` plans the
        least recently used one is dropped."""
        def stamp():
            fields = map(np.asarray, (self.meta_kernel, self.meta_pe, self.bias))
            return tuple((a.shape, a.dtype, a.tobytes()) for a in fields)

        if stamp() != self._stamp:
            self.__post_init__()
            self._plans.clear()
            self._stamp = stamp()
        key = (kind, n, dtype_name)
        plan = self._plans.pop(key, None)
        if plan is None:
            plan = build()
            for arr in plan:
                arr.flags.writeable = False
        self._plans[key] = plan  # most recently used last
        if len(self._plans) > _PLAN_CAP:
            del self._plans[next(iter(self._plans))]
        return plan

    def resolved(self, n: int, dtype_name: str):
        """Kernel, PE, and bias stretched to sweep length n in float64 and
        cast: the "rows" plan.  An unknown dtype_name raises ValueError."""
        dt = dtype_from_name(dtype_name)
        return self.prepared("rows", n, dtype_name, lambda: (
            interp_rows(self.meta_kernel, n).astype(dt),
            interp_rows(self.meta_pe, n).astype(dt), self.bias.astype(dt)))


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


def _line_view(arr: np.ndarray, axis: int) -> np.ndarray:
    """View of a (B, C, H, W) array as lines (C, B, orth, N), the swept axis
    last, or back: the one layout map of every route, its own inverse."""
    return arr.transpose(1, 0, 5 - axis, axis)


def _lines(arr: np.ndarray, axis: int, blk: slice = slice(None), pe_n: np.ndarray | None = None,
           dtype=np.float64) -> np.ndarray:
    """Channels blk of a (B, C, H, W) array as C-contiguous lines of dtype,
    (C_blk, B * orth, N), read through ``_line_view``; given pe_n, of
    arr + pe_n added at the precision of arr and cast by the same pass."""
    view = _line_view(arr, axis)[blk]
    out = np.empty(view.shape, dtype=dtype)
    if pe_n is None:
        out[...] = view
    else:
        np.add(view, pe_n[blk, None, None, :], out=out, dtype=arr.dtype)
    return out.reshape(out.shape[0], -1, out.shape[-1])


def _finish(yl: np.ndarray, bias: np.ndarray, axis: int, batch: int) -> Tensor4:
    """End of every forward route: bias added in place on C-contiguous lines
    yl (C, B * orth, N), returned as the (B, C, H, W) ``_line_view`` of them."""
    yl += bias[:, None, None]
    return Tensor4(_line_view(yl.reshape(yl.shape[0], batch, -1, yl.shape[-1]), axis))


def _resolve(x: Tensor4, p: ParCParams):
    """Swept axis, its length N, and the kernel, PE and bias resolved to N at
    the input's precision; an input with the wrong channel count raises."""
    if x.shape[1] != p.channels_in:
        raise ValueError(f"input carries {x.shape[1]} channels, params expect {p.channels_in}")
    axis = sweep_axis(p.orientation)
    n = x.shape[axis]
    return (axis, n) + p.resolved(n, x.dtype_name)


def _offset_input(x: Tensor4, p: ParCParams):
    """Swept axis, length N, resolved kernel and bias, and the offset input
    xl = x + pe as ``_lines`` at the input's precision: the PE-add-and-layout
    stage of every forward route, on which H and V sweeps run alike."""
    axis, n, kernel_n, pe_n, bias = _resolve(x, p)
    return axis, n, kernel_n, bias, _lines(x.data, axis, slice(None), pe_n, x.dtype)


def _channel_blocks(channels: int, channel_bytes: int) -> list:
    """Slices of max(1, _BLOCK_BYTES // channel_bytes) channels that cover
    range(channels) in order, the last one possibly shorter."""
    step = max(1, _BLOCK_BYTES // channel_bytes)
    return [slice(start, start + step) for start in range(0, channels, step)]


def _correlate(src, taps, y) -> None:
    """Write sum_(r,s) taps[c, r, s] * src[:, c, (r + i) mod H, (s + j) mod W]
    into y[:, c, i, j] for every channel c, (h, w) being y's last two extents
    and (H, W) src's, whose windows may wrap at most once.

    Each ``_channel_blocks`` block of y's channels appends to its slice of
    src the leading rows and columns its windows wrap onto; a source that
    needs no wrap, such as a zero-padded one, is read as it is.  The block is
    then one einsum pass over a read-only strided view, (B, cb, K_h, K_w, h,
    w), whose element [b, c, r, s, i, j] is src[b, c, r + i, s + j]: all taps
    of a block run before the next block starts, so its source window and
    output stay in cache, and no product is stored.  einsum's C loop (no
    BLAS, no fused multiply-add) then multiplies each tap and adds it into
    the output element, tap after tap, as a multiply-then-add loop would,
    wherever the taps are one column (K_w = 1), the output's last axis is
    longer than 1 and src and y are row-major, as the zero-padded baselines
    pass them.  Otherwise, as on the row taps of the forward and the
    backward, it may sum them in its own order, within roundoff.  Channels
    never mix, so the block size changes no output element's sequence of
    operations, or any bit.
    """
    (h, w), (h0, w0) = y.shape[2:], src.shape[2:]
    rows, cols = h + taps.shape[1] - 1, w + taps.shape[2] - 1
    for blk in _channel_blocks(y.shape[1], y[:, :1].nbytes):
        part = src[:, blk]
        # C order: concatenate lays a channel-broadcast dY out channel-fastest
        if h0 < rows:
            part = np.ascontiguousarray(np.concatenate([part, part[:, :, :rows - h0]], 2))
        if w0 < cols:
            part = np.ascontiguousarray(np.concatenate([part, part[..., :cols - w0]], 3))
        sb, sc, sr, ss = part.strides
        win = np.lib.stride_tricks.as_strided(
            part, part.shape[:2] + taps.shape[1:] + (h, w), (sb, sc, sr, ss, sr, ss),
            writeable=False)
        np.einsum("crs,bcrshw->bchw", taps[blk], win, out=y[:, blk])


def _accumulate(xl, kernel_n, mode):
    """Shared tap loop over the offset lines xl, (C_in, lines, N), each read
    as its periodic extension: output position i takes kernel[k] * xl[(i + k)
    mod N].  Every tap-loop forward funnels through here so the accumulation
    order, and therefore every rounding, is identical.  Returns the lines
    (C_out, lines, N).  Depthwise, one ``_correlate`` call with one row of N
    taps per channel extends each channel block by itself, so no extension
    of the whole tensor and no per-tap product is held; dense mode extends
    the whole tensor and runs one einsum per tap.
    """
    if mode == "depthwise":
        yl = np.empty_like(xl)
        run_sliced(_correlate, xl[None], kernel_n[:, None, :], yl[None])
        return yl
    n = xl.shape[-1]
    yl = np.zeros((kernel_n.shape[0],) + xl.shape[1:], dtype=xl.dtype)
    ext = np.concatenate([xl, xl[..., :n - 1]], axis=-1)
    for k in range(n):
        yl += np.einsum("oi,ilw->olw", kernel_n[:, :, k], ext[..., k:k + n])
    return yl


def _reversed(k: np.ndarray) -> np.ndarray:
    """Kernel rows k (..., N) read backwards mod N, k[..., (-j) mod N]; np.take
    keeps them C-contiguous whatever the layout of k."""
    return np.take(k, -np.arange(k.shape[-1]) % k.shape[-1], axis=-1)


def _circulant(k: np.ndarray) -> np.ndarray:
    """Circulant stack M[..., i, l] = k[..., (l - i) mod N] of kernel rows
    k (..., N): along one line the forward is y = xl @ M.T, M.T being the
    stack of the ``_reversed`` rows, and the input adjoint is dY @ M.

    The stack is C-contiguous, so every (N, N) slice has a unit-stride row
    and ``matmul`` hands it to BLAS.  ``np.take`` along the last axis builds
    it in that layout; the fancy index k[..., idx] would move the leading
    axes fastest, and matmul would fall back to its own loop."""
    ramp = np.arange(k.shape[-1])
    return np.take(k, (ramp[None, :] - ramp[:, None]) % k.shape[-1], axis=-1)


def _circulant_fits(n: int, lines: int) -> bool:
    """The memory rule of both circulant branches: a (C, N, N) stack holds no
    more elements than the (C, lines, 2N-1) periodic extension of the tap
    loop, lines = B * orth being the count of swept lines per channel."""
    return n * n <= lines * (2 * n - 1)


def parc_forward(x: Tensor4, p: ParCParams) -> Tensor4:
    """Circular correlation, depthwise as one batched circulant matmul.

    Output position i along the swept axis is
    sum_k kernel[c, k] * (x + pe)[c, (k + i) mod N] + bias[c]; dense mode
    additionally contracts over input channels.  Output shape matches the
    input except that dense mode replaces C with channels_out.

    Depthwise, y = xl @ M.T over the offset lines xl (C, B * orth, N) of
    ``_offset_input``, in the input's precision, M.T being the C-contiguous
    (C, N, N) ``_circulant`` stack of the ``_reversed`` kernel rows: matmul
    loops over channels and hands each (lines, N) @ (N, N) product, every
    line of one channel, to BLAS.  The stack is built only while it holds no
    more elements than the periodic extension the tap loop would allocate,
    N^2 <= B * orth * (2N - 1), so peak memory never exceeds the tap loop's,
    and kept as a plan of the params.  Dense mode and thin maps run the tap
    loop of ``parc_forward_via_concat``, bit for bit.
    """
    axis, n, kernel_n, bias, xl = _offset_input(x, p)
    if p.mode == "depthwise" and _circulant_fits(n, xl.shape[1]):
        yl = xl @ p.prepared("circulant", n, x.dtype_name,
                             lambda: (_circulant(_reversed(kernel_n)),))[0]
    else:
        yl = _accumulate(xl, kernel_n, p.mode)
    return _finish(yl, bias, axis, x.shape[0])


def parc_forward_via_concat(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Same operator as the paper's tap loop over a periodic extension.

    Each offset line is concatenated with its own first N-1 positions
    (length 2N-1) and the kernel slides over that extension with no
    padding.  Bit-identical to ``parc_forward`` wherever that runs the tap
    loop (dense mode, thin maps), and equal to its circulant matmul to
    roundoff.  ``parallel`` is accepted and ignored; perfbench's
    ``call_route`` still passes it.  The tap loop always runs serially.
    """
    axis, _, kernel_n, bias, xl = _offset_input(x, p)
    return _finish(_accumulate(xl, kernel_n, p.mode), bias, axis, x.shape[0])


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParCGrads:
    """Cotangents for every learnable input of the forward pass.

    d_kernel_n / d_pe_n are at the resolved sweep length; d_meta_kernel /
    d_meta_pe are pulled back through the interpolation adjoint.  d_input
    carries the input's dtype; every other field is float64, accumulated in
    float64 whatever the input precision.  Every field is bitwise the same
    whatever the channel block size; the circulant and tap-loop branches of
    ``parc_backward`` agree to roundoff.
    """

    d_input: Tensor4
    d_kernel_n: np.ndarray
    d_pe_n: np.ndarray
    d_bias: np.ndarray
    d_meta_kernel: np.ndarray
    d_meta_pe: np.ndarray


def _wrapped_diagonals(gram: np.ndarray) -> np.ndarray:
    """dK[..., k] = sum_i gram[..., i, (i + k) mod N], summed through a view of
    [gram, gram] whose element [..., i, k] sits at [..., i, i + k]."""
    twice = np.concatenate([gram, gram], axis=-1)
    *outer, row, col = twice.strides
    view = np.lib.stride_tricks.as_strided(twice, gram.shape, (*outer, row + col, col),
                                           writeable=False)
    return view.sum(axis=-2)


def _adjoint(xl, g, k, fits: bool):
    """dK (C, N) and dxl (C, lines, N) of a depthwise sweep, from float64
    offset lines xl (C, lines, N), kernel rows k (C, N) and dY lines g,
    (C, lines, N) or one (lines, N) that every channel shares.  Under the
    memory rule (``fits``) they are the Grams' wrapped diagonals and g @ M.
    Outside it two ``_correlate`` passes, reading their sources circularly,
    build no (N, N) array: dxl correlates g with the taps K[(-j) mod N], and
    dK xl with each line's own g, summed over the lines."""
    if fits:
        return _wrapped_diagonals(np.swapaxes(g, -1, -2) @ xl), g @ _circulant(k)
    c, lines, n = xl.shape
    g = np.broadcast_to(g, xl.shape)
    dxl = np.empty(xl.shape)
    _correlate(g[None], _reversed(k)[:, None], dxl[None])
    dk = np.empty((1, c * lines, 1, n))
    _correlate(xl.reshape(1, c * lines, 1, n), g.reshape(c * lines, 1, n), dk)
    return dk.reshape(c, lines, n).sum(axis=1), dxl


def parc_backward(x: Tensor4, p: ParCParams, dy: Tensor4) -> ParCGrads:
    """Analytic adjoint of the forward operator at the point (x, p).

    dY has the forward output's shape.  Every gradient is computed in
    float64 from the offset lines xl formed at the input precision, as
    ``_offset_input`` forms them.  Along one line the forward pass is
    y = xl @ M.T with the circulant M[i, l] = K[(l - i) mod N], so
    dxl = dY @ M and dK[k] = sum_i G[i, (i + k) mod N] sums the wrapped
    diagonals of the Gram matrix G = dY.T @ xl.  ``_adjoint`` forms both, as
    matmuls under the forward's memory rule N^2 <= B * orth * (2N - 1) and
    as tap loops outside it, on one ``_channel_blocks`` block of float64
    lines at a time; each block writes its share of every gradient in place.
    Dense mode is one block that calls ``_adjoint`` per output channel o,
    dY[o] shared by every input channel, and adds up the dxl shares, so no
    (C_out*N, C_in*N) matrix is ever formed.  Meta-length gradients are
    pulled back through ``interp_linear_adjoint``.
    """
    axis, n, kernel_n, pe_n, _ = _resolve(x, p)
    expect = (x.shape[0], p.channels_out) + x.shape[2:]
    if dy.shape != expect:
        raise ValueError(f"dY shape {dy.shape} does not match forward output {expect}")
    k64 = kernel_n.astype(np.float64)
    d_input = np.empty(x.shape, dtype=x.dtype)
    d_lines = _line_view(d_input, axis)
    c, b, orth, _ = d_lines.shape
    d_kernel_n, d_pe_n = np.empty(k64.shape), np.empty((c, n))
    d_bias = np.empty(p.channels_out)
    fits = _circulant_fits(n, b * orth)
    depthwise = p.mode == "depthwise"
    for blk in _channel_blocks(c, b * orth * n * 8) if depthwise else [slice(None)]:
        xl, g = _lines(x.data, axis, blk, pe_n), _lines(dy.data, axis, blk)
        if depthwise:
            d_kernel_n[blk], dxl = _adjoint(xl, g, k64[blk], fits)
        else:
            dxl = np.zeros(xl.shape)
            for o in range(p.channels_out):
                d_kernel_n[o], share = _adjoint(xl, g[o], k64[o], fits)
                dxl += share
                del share  # before the next output channel builds its own
        d_bias[blk] = g.sum(axis=(1, 2))
        d_pe_n[blk] = dxl.sum(axis=1)
        d_lines[blk] = dxl.reshape(d_lines[blk].shape)

    return ParCGrads(
        d_input=Tensor4(d_input),
        d_kernel_n=d_kernel_n,
        d_pe_n=d_pe_n,
        d_bias=d_bias,
        d_meta_kernel=interp_linear_adjoint(d_kernel_n, p.k_meta),
        d_meta_pe=interp_linear_adjoint(d_pe_n, p.meta_pe.shape[-1]),
    )
