"""Global circular correlation with a learned per-position input offset.

The operator sweeps one spatial axis (H or V) with a kernel as long as that
axis, wrapping indices modulo the axis length, after adding a position
embedding to the input.  Kernel and embedding are stored at a fixed meta
length and stretched to the runtime extent by linear interpolation, so one
parameter set serves any input size.

Every swept line is an independent length-N circular correlation, so every
row of a map whose swept axis is last is one line.  All forward routes run
one pipeline on x swept-last, (B, C, orth, N), and ``_finish`` adds the
output rows q = corr(pe, K) + bias that ``_pe_bias`` builds in float64 and
hands the result back as (B, C, H, W).  The GEMM routes (the circulant
matmul and the frequency route) take x swept-last from ``_offset_input``:
x's own array for a V sweep, one transposed copy for an H sweep, which
``_finish`` transposes back.  The tap loop reads x through its swapped view
and writes its output in x's layout through the same swap, so its
per-block extension is its only copy.  The PE rule: the PE and the bias
enter a forward only through q, as corr(x + pe, K) + bias = corr(x, K) + q,
so no route rounds x + pe; the backward adds the same PE rows to x's lines
in float64.  Only the backward and ``fast_parc``'s paired spectra past
N = 256, which sum or pair lines across batch items, lay them out
lines-last, (C, B * orth, N), with ``_lines``, a bare layout copy.

``parc_forward_via_concat`` is the paper's tap loop: one valid correlation
over the (2N-1)-long periodic extension of each line.  Along one line the
operator is also a product with the circulant M[i, l] = K[(l - i) mod N]
(``_circulant``), so in depthwise mode ``parc_forward`` runs the sweep as one
stacked matmul, agreeing with the tap loop to roundoff.  Outside the memory
rule ``_circulant_fits`` (thin maps) and in dense mode, ``parc_forward``
returns the tap loop.  Its kernel, ``_accumulate``, is the one circular tap
loop of both modes and directions, which also builds q: one
``_circular_correlate`` call, once per output channel in dense mode.  That
is, per cache-sized channel block, one extension of the lines by their
first N - 1 columns and, per L1-sized chunk of its rows, one ``np.matmul``
over a strided window view of it, so each output column is one BLAS
matrix-vector product of its window with the N taps, and no per-tap
product, circulant or spectrum is built.  ``_correlate``, the
einsum pass of the zero-padded baselines, reads nothing circularly.
``parc_backward`` runs the operator again per channel block of lines, dX
correlating dY with the reversed kernel and dK the offset input x + pe with
dY: as circulant matmuls under the memory rule and as tap loops on thin
maps, so it never holds much more than the forward.  Resolved rows, weight
spectra, output rows and forward circulant stacks are plans, cached by
``ParCParams.prepared``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._threads import run_sliced
from .tensor import Tensor4, dtype_from_name, finite_field, interp_linear_adjoint, interp_rows

_AXIS = {"H": 2, "V": 3}
DEFAULT_META_LEN = 14
# Most plans one ParCParams keeps, least recently used dropped first.  A count
# bounds the bytes: the one large plan, a circulant stack, passed the memory
# rule ``_circulant_fits``, so it is smaller than twice its call's offset lines.
_PLAN_CAP = 16
# Output bytes per channel block of the tap loops ``_circular_correlate`` and
# ``_correlate``: small enough that a block's source window and output stay in
# L2 over all taps.  The frequency route sizes its channel blocks of paired
# spectra (lengths past 256) by the same budget.
_BLOCK_BYTES = 256 * 1024
# Window bytes per row chunk of ``_circular_correlate``: a chunk of rows runs
# every output column before the next chunk starts, so the (rows, N) window
# the neighbouring columns share stays in L1.
_WINDOW_BYTES = 20 * 1024


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
    last, or back: the layout map of ``_lines``, its own inverse."""
    return arr.transpose(1, 0, 5 - axis, axis)


def _lines(arr: np.ndarray, axis: int, blk: slice = slice(None), dtype=np.float64) -> np.ndarray:
    """Channels blk of a (B, C, H, W) array as C-contiguous lines of dtype,
    (C_blk, B * orth, N): a fresh copy of ``_line_view``, never arr itself."""
    view = _line_view(arr, axis)[blk]
    out = np.empty(view.shape, dtype=dtype)
    out[...] = view
    return out.reshape(out.shape[0], -1, out.shape[-1])


def _resolve(x: Tensor4, p: ParCParams):
    """Swept axis, its length N, and the kernel, PE and bias resolved to N at
    the input's precision; an input with the wrong channel count raises."""
    if x.shape[1] != p.channels_in:
        raise ValueError(f"input carries {x.shape[1]} channels, params expect {p.channels_in}")
    axis = sweep_axis(p.orientation)
    n = x.shape[axis]
    return (axis, n) + p.resolved(n, x.dtype_name)


def _offset_input(x: Tensor4, axis: int) -> np.ndarray:
    """x swept-last, (B, C, orth, N), the layout stage of the GEMM routes,
    the circulant matmul and the frequency route: x's own array for a V
    sweep, one C-contiguous transposed copy, which the frequency route
    transforms in place, for an H sweep.  The tap loop needs no copy and
    does not call it.  It adds no PE; the name stays for perfbench's
    ``parc_spatial.offset`` span."""
    if axis == 3:
        return x.data
    return np.swapaxes(x.data, 2, 3).copy()  # a copy even where the swap is C-contiguous


def _pe_bias(p: ParCParams, n: int, dtype_name: str) -> np.ndarray:
    """Output rows q = corr(pe, K) + bias, (C_out, n), the "pe_bias" plan of
    the params: the only way the PE and the bias enter a forward route (the
    module's PE rule).  One float64 ``_accumulate`` call over the C_in PE
    lines, the tap loop of both modes (summed over the lines in dense mode),
    cast to dtype_name's precision."""
    def build():
        kernel_n, pe_n, bias = (a.astype(np.float64) for a in p.resolved(n, dtype_name))
        q = _accumulate(pe_n[None, :, None, :], kernel_n)[0, :, 0] + bias[:, None]
        return (q.astype(dtype_from_name(dtype_name)),)
    return p.prepared("pe_bias", n, dtype_name, build)[0]


def _finish(y: np.ndarray, q: np.ndarray, axis: int) -> Tensor4:
    """End of every forward route: the output rows q (C, N) of ``_pe_bias``
    added in place to every line of the swept-last (B, C, orth, N) array y,
    returned as the (B, C, H, W) Tensor4, swapped back for an H sweep: a
    copy for the GEMM routes, none for the tap loop, whose y is already the
    swapped view of a C-contiguous map."""
    y += q[:, None, :]
    return Tensor4(np.swapaxes(y, 2, 3) if axis == 2 else y)


def _channel_blocks(channels: int, channel_bytes: int) -> list:
    """Slices of max(1, _BLOCK_BYTES // channel_bytes) channels that cover
    range(channels) in order, the last one possibly shorter."""
    step = max(1, _BLOCK_BYTES // channel_bytes)
    return [slice(start, start + step) for start in range(0, channels, step)]


def _correlate(src, taps, y) -> None:
    """Write sum_(r,s) taps[c, r, s] * src[:, c, r + i, s + j] into
    y[:, c, i, j] for every channel c, (i, j) running over y's last two
    extents: the zero-padded baselines' valid correlation.  Nothing wraps:
    src must hold all h + K_h - 1 rows and w + K_w - 1 columns of the
    windows, and a shorter source raises ValueError before a window reads
    past its buffer.

    Each ``_channel_blocks`` block of y's channels is one einsum pass over a
    read-only strided view of src, (B, cb, K_h, K_w, h, w), whose element
    [b, c, r, s, i, j] is src[b, c, r + i, s + j]: all taps of a block run
    before the next block starts, so its source window and output stay in
    cache, and no product is stored.  einsum's C loop (no BLAS, no fused
    multiply-add) then multiplies each tap and adds it into the output
    element, tap after tap, as a multiply-then-add loop would, wherever the
    taps are one column (K_w = 1), the output's last axis is longer than 1
    and src and y are row-major, as ``conv1d_zeropad`` passes them.
    Otherwise, as for the 2D baseline's KxK taps, it may sum them in its own
    order, within roundoff.  Channels never mix, so the block size changes
    no output element's sequence of operations, or any bit.
    """
    for axis, name in ((2, "rows"), (3, "columns")):
        need = y.shape[axis] + taps.shape[axis - 1] - 1
        if src.shape[axis] < need:
            raise ValueError(f"source holds {src.shape[axis]} {name}, the windows need {need}")
    for blk in _channel_blocks(y.shape[1], y[:, :1].nbytes):
        part = src[:, blk]
        sb, sc, sr, ss = part.strides
        win = np.lib.stride_tricks.as_strided(
            part, part.shape[:2] + taps.shape[1:] + y.shape[2:], (sb, sc, sr, ss, sr, ss),
            writeable=False)
        np.einsum("crs,bcrshw->bchw", taps[blk], win, out=y[:, blk])


def _circular_correlate(src, taps, y) -> None:
    """Write sum_s taps[c, s] * src[b, c, l, (j + s) mod W] into y[b, c, l, j]
    for every channel c, row l and column j < w, w being y's last extent and
    W src's: the circular tap loop, one row of taps per channel.  The last
    axis wraps at most once: src must hold half the w + K - 1 window columns,
    and a shorter source raises ValueError.  src and y may be strided views,
    such as the swapped view of an H sweep's map.

    Each ``_channel_blocks`` block of y's channels copies its rows into one
    C-contiguous extension, the rows followed by the leading columns the
    windows wrap onto, the loop's only copy, and views it read-only as
    (B, cb, w, rows, K), whose element [b, c, j, l, s] is ext[b, c, l, j + s].
    The rows run in the chunks of ``_row_chunks``: one ``np.matmul`` of a
    chunk of that view with the block's taps writes y through its
    (B, cb, w, chunk, 1) transposed view, so each output column of each
    channel is one BLAS matrix-vector product of its (chunk, K) window with
    the K taps, a dot product where a channel holds one row.  A chunk runs
    all w columns before the next starts, so each column reads from L1 the
    window it shares with the column before but for one column.  That is
    the tap loop's K multiplications per output element, summed in BLAS's
    order, within roundoff of a multiply-then-add loop; no circulant or
    spectrum of the taps is built, and nothing is allocated but the
    extension.  The extension gives every window a unit-stride row even
    where src is broadcast over channels, so BLAS, not numpy's own loop,
    runs every block.  Channels never mix, and BLAS computes each row's dot
    product on its own, in an order set by the row's place in its group of
    8 that a chunk of a multiple of 16 rows keeps, so neither the block size
    nor the chunk size changes any bit.
    """
    w, w0, k = y.shape[3], src.shape[3], taps.shape[1]
    cols = w + k - 1
    if 2 * w0 < cols:
        raise ValueError(f"source holds {w0} columns, the windows need {cols}: two wraps")
    wrap = max(0, cols - w0)
    chunks = _row_chunks(src.shape[2], k * y.itemsize)
    for blk in _channel_blocks(y.shape[1], y[:, :1].nbytes):
        part = src[:, blk]
        ext = np.empty(part.shape[:3] + (w0 + wrap,), part.dtype)
        ext[..., :w0] = part
        ext[..., w0:] = part[..., :wrap]
        sb, sc, sr, ss = ext.strides
        win = np.lib.stride_tricks.as_strided(
            ext, ext.shape[:2] + (w, ext.shape[2], k), (sb, sc, ss, sr, ss), writeable=False)
        col, out = taps[blk][:, None, :, None], np.swapaxes(y[:, blk], 2, 3)[..., None]
        for rows in chunks:
            np.matmul(win[:, :, :, rows], col, out=out[:, :, :, rows])


def _row_chunks(rows: int, row_bytes: int) -> list:
    """Slices of ``_circular_correlate``'s rows, row_bytes of window a row:
    one slice where all rows fit ``_WINDOW_BYTES``, otherwise chunks of the
    most rows that fit, rounded down to a multiple of 16 and at least 16.
    The last chunk takes whatever rows remain, but never a single row: numpy
    runs a one-row window as a dot product, not a matrix-vector product, and
    its sums differ, so one left-over row joins the chunk before it."""
    if rows * row_bytes <= _WINDOW_BYTES:
        return [slice(None)]
    step = max(16, _WINDOW_BYTES // row_bytes // 16 * 16)
    starts = list(range(0, max(1, rows - 1), step)) + [rows]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def _accumulate(src, kernel_n, axis: int = 3):
    """The one circular tap loop, run by every tap-loop forward, so each
    makes the same roundings, by ``_pe_bias`` and by the backward outside
    the memory rule: output position i of each row of src (B, C_in, rows, N)
    takes kernel[k] * src[(i + k) mod N], depthwise for kernel rows (C, N),
    summed over input channels for a (C_out, C_in, N) kernel.  Returns
    (B, C_out, rows, N), the swept-last view of a (B, C_out, H, W) array
    swept along axis: for an H sweep (axis 2) src may be the swapped view of
    x, and y is written in x's layout, so ``_finish`` copies nothing.  The
    output is allocated with ``np.empty``, never like src, which the
    backward broadcasts over channels.  Depthwise it is one
    ``_circular_correlate`` call, one row of N taps per channel, which
    extends each channel block by itself and computes each output column of
    a channel as one BLAS matrix-vector product per row chunk.  Dense mode
    runs that call once per output channel o, with the C_in kernel rows of
    o, into one reused (B, C_in, rows, N) buffer, and sums the buffer over
    input channels into y[:, o], as ``_adjoint`` runs dense mode.
    """
    shape = [src.shape[0], kernel_n.shape[0], *src.shape[2:]]
    shape[axis], shape[3] = shape[3], shape[axis]
    y = np.swapaxes(np.empty(shape, src.dtype), axis, 3)
    if kernel_n.ndim == 2:
        run_sliced(_circular_correlate, src, kernel_n, y)
        return y
    share = np.empty(src.shape, src.dtype)
    for o, rows in enumerate(kernel_n):
        run_sliced(_circular_correlate, src, rows, share)
        np.sum(share, axis=1, out=y[:, o])
    return y


def _reversed(k: np.ndarray) -> np.ndarray:
    """Kernel rows k (..., N) read backwards mod N, k[..., (-j) mod N]; np.take
    keeps them C-contiguous whatever the layout of k."""
    return np.take(k, -np.arange(k.shape[-1]) % k.shape[-1], axis=-1)


def _circulant(k: np.ndarray) -> np.ndarray:
    """Circulant stack M[..., i, l] = k[..., (l - i) mod N] of kernel rows
    k (..., N): along one line the forward is y = xl @ M.T, M.T being the
    stack of the ``_reversed`` rows, and the input adjoint is dY @ M.

    The stack is one C-contiguous copy of a read-only view of the doubled
    rows [k, k], element [..., i, l] at [..., N + l - i] (strides -s and s),
    so every (N, N) slice has a unit-stride row and ``matmul`` hands it to
    BLAS."""
    n = k.shape[-1]
    twice = np.concatenate([k, k], axis=-1)
    *outer, step = twice.strides
    view = np.lib.stride_tricks.as_strided(twice[..., n:], k.shape + (n,),
                                           (*outer, -step, step), writeable=False)
    return view.copy()


def _circulant_fits(n: int, lines: int) -> bool:
    """The memory rule of both circulant branches, lines = B * orth being
    the swept lines per channel: N^2 <= lines * (2N - 1) < 2 * lines * N, so
    a (C, N, N) stack holds fewer elements than twice the (C, lines, N)
    offset lines of its call."""
    return n * n <= lines * (2 * n - 1)


def parc_forward(x: Tensor4, p: ParCParams) -> Tensor4:
    """Circular correlation, depthwise as one batched circulant matmul.

    Output position i along the swept axis is
    sum_k kernel[c, k] * (x + pe)[c, (k + i) mod N] + bias[c]; dense mode
    additionally contracts over input channels.  Output shape matches the
    input except that dense mode replaces C with channels_out.

    Depthwise, y = src @ M.T over the swept-last array src of
    ``_offset_input`` (x itself on a V sweep), M.T being the C-contiguous
    (C, N, N) ``_circulant`` stack of the ``_reversed`` kernel rows: matmul
    broadcasts it over the batch and hands each (orth, N) @ (N, N) product
    to BLAS.  The stack is built only under the memory rule
    ``_circulant_fits``, which bounds it by twice the offset lines, and kept
    as a plan of the params.  Dense mode and thin maps return
    ``parc_forward_via_concat``, the tap loop.
    """
    axis = sweep_axis(p.orientation)
    if p.mode == "dense" or not _circulant_fits(x.shape[axis], x.shape[0] * x.shape[5 - axis]):
        return parc_forward_via_concat(x, p)
    n, kernel_n = _resolve(x, p)[1:3]
    q = _pe_bias(p, n, x.dtype_name)
    y = _offset_input(x, axis) @ p.prepared("circulant", n, x.dtype_name,
                                            lambda: (_circulant(_reversed(kernel_n)),))[0]
    return _finish(y, q, axis)


def parc_forward_via_concat(x: Tensor4, p: ParCParams, parallel: bool = False) -> Tensor4:
    """Same operator as the paper's tap loop over a periodic extension.

    Each line of x, read through its swapped view with the swept axis
    last, is concatenated with its own first N-1 positions (length 2N-1)
    and the kernel slides over that extension with no padding: per channel
    block, ``_circular_correlate`` builds the extension, the only copy of x
    (one per output channel in dense mode), and computes each output column
    as one BLAS matrix-vector product per chunk of the block's window rows,
    writing the output in x's (B, C, H, W) layout, so ``_finish`` copies
    nothing.  ``parc_forward`` returns it in dense mode and on thin maps,
    and its circulant matmul equals it to roundoff.  ``parallel`` is
    accepted and ignored; perfbench's ``call_route`` still passes it.  The
    tap loop always runs serially.
    """
    axis, n, kernel_n = _resolve(x, p)[:3]
    q = _pe_bias(p, n, x.dtype_name)
    return _finish(_accumulate(np.swapaxes(x.data, axis, 3), kernel_n, axis), q, axis)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParCGrads:
    """Cotangents for every learnable input of the forward pass.

    d_kernel_n / d_pe_n are at the resolved sweep length; d_meta_kernel /
    d_meta_pe are pulled back through the interpolation adjoint.  d_input
    carries the input's dtype; every other field is float64, accumulated in
    float64 whatever the input precision, for the forward the routes compute
    (the module's PE rule).  Every field is bitwise the same whatever the
    channel block size; the circulant and tap-loop branches agree to roundoff.
    """

    d_input: Tensor4
    d_kernel_n: np.ndarray
    d_pe_n: np.ndarray
    d_bias: np.ndarray
    d_meta_kernel: np.ndarray
    d_meta_pe: np.ndarray


def _wrapped_diagonals(g: np.ndarray, xl: np.ndarray) -> np.ndarray:
    """dK[..., k] = sum_i G[..., i, (i + k) mod N] of the Gram G = g.T @ xl,
    g and xl (..., lines, N): G is written straight into the left half of a
    (..., N, 2N) buffer and copied into its right half, and the sum runs
    through a view of [G, G] whose element [..., i, k] sits at [..., i, i + k]."""
    n = xl.shape[-1]
    twice = np.empty(np.broadcast_shapes(g.shape[:-2], xl.shape[:-2]) + (n, 2 * n),
                     np.result_type(g, xl))
    np.matmul(np.swapaxes(g, -1, -2), xl, out=twice[..., :n])
    twice[..., n:] = twice[..., :n]
    *outer, row, col = twice.strides
    view = np.lib.stride_tricks.as_strided(twice, twice.shape[:-1] + (n,),
                                           (*outer, row + col, col), writeable=False)
    return view.sum(axis=-2)


def _adjoint(xl, g, k):
    """dK and dxl (C_in, lines, N) of a sweep, from float64 offset lines xl
    (C_in, lines, N), kernel k and dY lines g.  For kernel rows k (C, N), a
    depthwise sweep, g is (C, lines, N) or one (lines, N) that every channel
    shares, and dK is (C, N).  Under the memory rule ``_circulant_fits`` they
    are the Grams' wrapped diagonals and g @ M.  Outside it two
    ``_accumulate`` passes build no (N, N) array: dxl correlates g with the
    taps K[(-j) mod N], and dK xl with each line's own g, summed over the
    lines.  A dense kernel k (C_out, C_in, N) with g (C_out, lines, N) runs
    the depthwise adjoint once per output channel o, dY[o] shared by every
    input channel, and adds up the dxl shares, so no (C_out*N, C_in*N)
    matrix is ever formed."""
    if k.ndim == 3:
        dk, dxl = np.empty(k.shape), np.zeros(xl.shape)
        for o in range(k.shape[0]):
            dk[o], share = _adjoint(xl, g[o], k[o])
            dxl += share
            del share  # before the next output channel builds its own
        return dk, dxl
    c, lines, n = xl.shape
    if _circulant_fits(n, lines):
        return _wrapped_diagonals(g, xl), g @ _circulant(k)
    g = np.broadcast_to(g, xl.shape)
    dxl = _accumulate(g[None], _reversed(k))[0]
    dk = _accumulate(xl.reshape(1, c * lines, 1, n), g.reshape(c * lines, n))
    return dk.reshape(c, lines, n).sum(axis=1), dxl


def parc_backward(x: Tensor4, p: ParCParams, dy: Tensor4) -> ParCGrads:
    """Analytic adjoint of the forward operator at the point (x, p).

    dY has the forward output's shape.  Every gradient is computed in
    float64 from the offset lines xl = x + pe, the PE added to ``_lines``'
    copy of x in float64 (the module's PE rule).  Along one line the forward
    is y = xl @ M.T with the circulant M[i, l] = K[(l - i) mod N], so
    dxl = dY @ M and dK[k] = sum_i G[i, (i + k) mod N] sums the wrapped
    diagonals of the Gram matrix G = dY.T @ xl.  ``_adjoint`` forms both, as
    matmuls under the forward's memory rule and as tap loops outside it, on
    one ``_channel_blocks`` block of float64 lines at a time, dense mode
    being one block; each block writes its share of every gradient in place.
    Meta-length gradients are pulled back through ``interp_linear_adjoint``.
    """
    axis, n, kernel_n, pe_n, _ = _resolve(x, p)
    expect = (x.shape[0], p.channels_out) + x.shape[2:]
    if dy.shape != expect:
        raise ValueError(f"dY shape {dy.shape} does not match forward output {expect}")
    k64, pe64 = kernel_n.astype(np.float64), pe_n.astype(np.float64)
    d_input = np.empty(x.shape, dtype=x.dtype)
    d_lines = _line_view(d_input, axis)
    c, b, orth, _ = d_lines.shape
    d_kernel_n, d_pe_n = np.empty(k64.shape), np.empty((c, n))
    d_bias = np.empty(p.channels_out)
    for blk in _channel_blocks(c, b * orth * n * 8) if p.mode == "depthwise" else [slice(None)]:
        xl, g = _lines(x.data, axis, blk), _lines(dy.data, axis, blk)
        xl += pe64[blk, None, :]
        d_kernel_n[blk], dxl = _adjoint(xl, g, k64[blk])
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
