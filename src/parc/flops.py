"""Closed-form multiplication counts for every benchmarked operator.

Counts are exact integers per forward pass of one batch item; additions and
memory traffic are deliberately ignored.  The circular operators assume the
usual split of channels into a height-swept half and a width-swept half,
hence the even-channel requirement.  Self-attention is available only as an
asymptotic order because no constant-level recipe is modeled.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

from .tensor import check_count


@dataclass(frozen=True)
class FlopsReport:
    op: str
    dims: dict
    multiplications: int
    asymptotic: bool = False


def _positive(**dims):
    for name, v in dims.items():
        check_count(name, v, 1)


def _even_channels(c: int):
    if c % 2:
        raise ValueError(f"channel count must be even to split between H and V sweeps, got {c}")


def flops_dwconv2d(c: int, h: int, w: int, k_h: int, k_w: int) -> int:
    """Depthwise 2D convolution: one kernel tap per output element per tap."""
    _positive(c=c, h=h, w=w, k_h=k_h, k_w=k_w)
    return c * h * w * k_h * k_w


def flops_conv2d_dense(c_in: int, c_out: int, h: int, w: int, k_h: int, k_w: int) -> int:
    """Dense 2D convolution: the depthwise count times the output channels."""
    _positive(c_in=c_in, c_out=c_out, h=h, w=w, k_h=k_h, k_w=k_w)
    return c_in * c_out * h * w * k_h * k_w


def flops_parc(c: int, h: int, w: int) -> int:
    """Spatial circular correlation, H-swept and V-swept halves: C*H*W*(H+W)/2."""
    _positive(c=c, h=h, w=w)
    _even_channels(c)
    return c * h * w * (h + w) // 2


def ceil_log2(n: int) -> int:
    """Smallest L with 2**L >= n; the stage count the butterfly model charges."""
    _positive(n=n)
    return (n - 1).bit_length()


def flops_fast_parc(c: int, h: int, w: int) -> int:
    """Frequency-domain route: butterfly stages both ways, kernel transforms,
    and the per-bin pointwise multiply.

    2*C*H*W*(L_H + L_W) + C*H*L_H + C*W*L_W + 4*C*H*W with L_N = ceil(log2 N).

    The model charges ceil(log2 N) radix-2 stages whatever plan the engine
    runs: a length up to 256 runs the real half-spectrum table, about
    2*N*(N + 2) multiplications per line for the forward and inverse
    together, about twice the N^2 of the circulant matmul, and wins on BLAS
    efficiency, as a few large GEMMs; a longer length runs complex
    four-step stages on pairs of lines, and a Bluestein length two
    power-of-two transforms of length m >= 2N - 1 (m=1024 at N=257).  On a
    50x83 map it predicts 0.454x the spatial multiplications; the measured
    forward time on a 2-vCPU host is 0.28-0.32x the tap loop's time (two
    traced perfbench ``train_det`` runs; 0.50x in one run with lines paired
    at every length).
    """
    _positive(c=c, h=h, w=w)
    _even_channels(c)
    lh, lw = ceil_log2(h), ceil_log2(w)
    return 2 * c * h * w * (lh + lw) + c * h * lh + c * w * lw + 4 * c * h * w


def flops_self_attention_order(c: int, h: int, w: int) -> FlopsReport:
    """Asymptotic order O(C*H^2*W^2 + C^2*H*W); no exact constants modeled."""
    _positive(c=c, h=h, w=w)
    return FlopsReport(
        op="self_attention_asymptotic",
        dims={"C": c, "H": h, "W": w},
        multiplications=c * h * h * w * w + c * c * h * w,
        asymptotic=True,
    )


# ---------------------------------------------------------------------------
# Named operator kinds, as spelled on the bench/flops command lines.
# "dwK" means a depthwise KxK layer, e.g. dw3, dw7.
# ---------------------------------------------------------------------------


def dw_taps(op: str) -> int | None:
    """K of a "dw<K>" op name, or None when op names another kind."""
    return int(op[2:]) if op.startswith("dw") and op[2:].isdigit() else None


def op_mul_count(op: str, channels: int, resolution: int) -> int:
    """Multiplication count of a named op at a square resolution (odd K for dw<K>)."""
    if (k := dw_taps(op)) is not None and k % 2:
        return flops_dwconv2d(channels, resolution, resolution, k, k)
    if op in ("parc", "circ"):  # the circulant matmul does the tap loop's multiplications
        return flops_parc(channels, resolution, resolution)
    if op == "fastparc":
        return flops_fast_parc(channels, resolution, resolution)
    raise ValueError(f"unknown op {op!r}; expected dw<K> for odd K (e.g. dw3, dw7), "
                     "parc, circ or fastparc")


def complexity_curve(op: str, channels: int, resolutions) -> list[tuple[int, int]]:
    """(resolution, mul_count) series for one op at square resolutions."""
    return [(r, op_mul_count(op, channels, r)) for r in resolutions]


def write_curves_csv(dest, ops, channels: int, resolutions) -> None:
    """Emit one row per (op, resolution) with header op,channels,resolution,mul_count.

    dest is a path or an open text stream.  Every row is computed before
    anything is written, so a bad op or channel count raises ValueError and
    leaves no file (and no partial table) behind.
    """
    rows = [(op, channels, r, count)
            for op in ops for r, count in complexity_curve(op, channels, resolutions)]
    is_stream = hasattr(dest, "write")
    with contextlib.nullcontext(dest) if is_stream else open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["op", "channels", "resolution", "mul_count"])
        writer.writerows(rows)


def format_mega(count: int) -> str:
    """Render a count in millions at three significant figures (e.g. 8.49M,
    59.0M, 174M); keeps two decimals below one million for readability."""
    v = count / 1e6
    if v < 10:
        return f"{v:.2f}M"
    if v < 100:
        return f"{v:.1f}M"
    return f"{v:.0f}M"
