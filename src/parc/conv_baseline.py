"""Zero-padded sliding-window convolutions used as local-operator baselines.

These are correlation-convention (no kernel flip), per-channel operators:
the 1D form slides along H or V, the 2D form is the familiar depthwise KxK
layer.  They exist to contrast local receptive fields with the global
circular operators and to feed the latency benchmark.  A zero-padded
correlation is a valid correlation over an input extended by zeros, so
they run ``parc_spatial._correlate``, a channel-blocked einsum tap loop over
a source that needs no wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parc_spatial import _correlate, sweep_axis
from .tensor import Tensor4, check_count, finite_field


@dataclass(frozen=True)
class ZeroPadConvParams:
    """Per-channel taps, symmetric zero padding, and the swept orientation.

    kernel: (C, K) with orientation "H" or "V", (C, K, K) with "2D".
    pad: zeros added on both ends of each swept axis, an integer >= 0;
    anything else raises ValueError.
    """

    kernel: np.ndarray
    pad: int
    orientation: str = "H"

    def __post_init__(self):
        k = finite_field(self, "kernel")
        if self.orientation not in ("H", "V", "2D"):
            raise ValueError(f"orientation must be 'H', 'V', or '2D', got {self.orientation!r}")
        want = 3 if self.orientation == "2D" else 2
        if k.ndim != want or min(k.shape) < 1:
            raise ValueError(f"orientation {self.orientation} needs a rank-{want} kernel")
        if k.ndim == 3 and k.shape[1] != k.shape[2]:
            raise ValueError("2D kernels must be square")
        check_count("pad", self.pad, 0)

    @property
    def channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def taps(self) -> int:
        return self.kernel.shape[1]


def _check_channels(x: Tensor4, p: ZeroPadConvParams) -> None:
    if x.shape[1] != p.channels:
        raise ValueError(f"input carries {x.shape[1]} channels, kernel {p.channels}")


def _correlate_zeropad(x: np.ndarray, kernel: np.ndarray, pad: tuple) -> np.ndarray:
    """Per-channel correlation of a (C, K_h, K_w) kernel over x zero padded
    by pad = (pad_h, pad_w), run by the channel-blocked tap loop ``_correlate``."""
    xpad = np.pad(x, [(0, 0), (0, 0), (pad[0], pad[0]), (pad[1], pad[1])])
    _, k_h, k_w = kernel.shape
    y = np.empty(x.shape[:2] + (xpad.shape[2] - k_h + 1, xpad.shape[3] - k_w + 1), dtype=x.dtype)
    _correlate(xpad, kernel.astype(x.dtype), y)
    return y


def conv1d_zeropad(x: Tensor4, p: ZeroPadConvParams) -> Tensor4:
    """Per-channel 1D correlation along the configured axis with zero padding.

    Output position i along the swept axis reads input positions
    i - pad .. i - pad + K - 1, out-of-range taps contributing zero, so the
    swept extent becomes N - K + 2*pad + 1 (input-sized when pad=(K-1)/2).
    The other three axes pass through unchanged.
    """
    if p.orientation == "2D":
        raise ValueError("conv1d_zeropad needs orientation 'H' or 'V'")
    _check_channels(x, p)
    axis = sweep_axis(p.orientation)
    k, pad, n = p.taps, p.pad, x.shape[axis]
    if n - k + 2 * pad + 1 < 1:
        raise ValueError(f"kernel of {k} taps with pad {pad} leaves no output on extent {n}")
    # the swept axis at position 2, where the taps are one column
    y = _correlate_zeropad(np.swapaxes(x.data, 2, axis), p.kernel[:, :, None], (pad, 0))
    return Tensor4(np.swapaxes(y, 2, axis))


def dwconv2d_zeropad(x: Tensor4, p: ZeroPadConvParams) -> Tensor4:
    """Depthwise same-size KxK correlation over (H, W), zero padded.

    Requires orientation "2D", odd K, and pad = (K - 1) / 2, the only
    configuration the benchmark table exercises.
    """
    if p.orientation != "2D":
        raise ValueError("dwconv2d_zeropad needs orientation '2D'")
    _check_channels(x, p)
    k, pad = p.taps, p.pad
    if k % 2 == 0 or pad != (k - 1) // 2:
        raise ValueError(f"same-size depthwise conv needs odd K and pad (K-1)/2, got K={k} pad={pad}")
    return Tensor4(_correlate_zeropad(x.data, p.kernel, (pad, pad)))
