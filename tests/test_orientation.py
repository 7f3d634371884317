"""An H sweep and a V sweep are one operator on transposed maps.

Every forward route computes on x laid out with its swept axis last and adds
the PE and bias as output rows afterwards; the backward works on x's lines,
swept axis last, with the PE added in float64.  So a V sweep of x must
equal, bit for bit, the H sweep of x with H and W swapped, transposed back,
and must not cost more memory than that H sweep.
"""

import tracemalloc

import numpy as np
import pytest

from parc.fast_parc import fast_parc_forward
from parc.parc_spatial import (
    ParCParams,
    parc_backward,
    parc_forward,
    parc_forward_via_concat,
    random_params,
)
from parc.tensor import Tensor4

# 3x131 sweeps a V map along Bluestein 131, which runs the real table, and
# 3x263 along Bluestein 263, whose lines pair across batch items with orth 3
EXTENTS = [(1, 5), (7, 13), (50, 83), (3, 131), (3, 263)]
DTYPES = [np.float32, np.float64]
# (route, keywords, mode); the frequency route is depthwise only.  The two
# routes that still accept parallel=True (and ignore it) run with it too.
ROUTES = {
    f"{fn.__name__}{'.parallel' if kw else ''}.{mode}": (fn, kw, mode)
    for fn, kw, modes in ((parc_forward, {}, ("depthwise", "dense")),
                          (parc_forward_via_concat, {}, ("depthwise", "dense")),
                          (parc_forward_via_concat, {"parallel": True}, ("depthwise", "dense")),
                          (fast_parc_forward, {}, ("depthwise",)),
                          (fast_parc_forward, {"parallel": True}, ("depthwise",)))
    for mode in modes
}


def _t(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(a, 2, 3))


def _pair(mode, extent, dtype, seed=0):
    """V params and input, and the H params with the same fields."""
    rng = np.random.default_rng(seed)
    p_v = random_params(rng, 3, orientation="V", mode=mode, channels_out=2,
                        kernel_scale=1.0 / extent[1])
    p_h = ParCParams(mode, "H", p_v.meta_kernel, p_v.meta_pe, p_v.bias)
    x = rng.standard_normal((2, 3) + extent).astype(dtype)
    return p_v, p_h, x, rng


@pytest.mark.parametrize("extent", EXTENTS, ids=lambda e: f"{e[0]}x{e[1]}")
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_v_sweep_is_the_h_sweep_of_the_transposed_map(route, extent, dtype):
    fn, kw, mode = ROUTES[route]
    p_v, p_h, x, _ = _pair(mode, extent, dtype)
    y_v = fn(Tensor4(x), p_v, **kw).data
    y_h = fn(Tensor4(_t(x)), p_h, **kw).data
    assert y_v.dtype == dtype
    assert y_v.tobytes() == _t(y_h).tobytes()
    if kw:
        assert y_v.tobytes() == fn(Tensor4(x), p_v).data.tobytes()


@pytest.mark.parametrize("extent", EXTENTS, ids=lambda e: f"{e[0]}x{e[1]}")
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("mode", ["depthwise", "dense"])
def test_v_gradients_are_the_h_gradients_of_the_transposed_map(mode, extent, dtype):
    p_v, p_h, x, rng = _pair(mode, extent, dtype)
    dy = rng.standard_normal((2, p_v.channels_out) + extent).astype(dtype)
    g_v = parc_backward(Tensor4(x), p_v, Tensor4(dy))
    g_h = parc_backward(Tensor4(_t(x)), p_h, Tensor4(_t(dy)))
    assert g_v.d_input.data.tobytes() == _t(g_h.d_input.data).tobytes()
    for name in ("d_kernel_n", "d_pe_n", "d_bias", "d_meta_kernel", "d_meta_pe"):
        assert getattr(g_v, name).tobytes() == getattr(g_h, name).tobytes(), name


def _peak(route, x, p) -> int:
    route(x, p)  # resolve parameters, spectra and plans outside the measurement
    tracemalloc.start()
    try:
        route(x, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route", [parc_forward_via_concat, fast_parc_forward],
                         ids=["parc_forward_via_concat", "fast_parc_forward"])
def test_v_sweep_peak_memory_matches_the_h_sweep(route):
    """A V sweep reads x in place, its swept axis already last, where an H
    sweep makes one transposed copy, so a V sweep holds no second copy of
    the map."""
    rng = np.random.default_rng(5)
    p_v = random_params(rng, 16, orientation="V")
    p_h = ParCParams("depthwise", "H", p_v.meta_kernel, p_v.meta_pe, p_v.bias)
    x = rng.standard_normal((1, 16, 96, 96)).astype(np.float32)
    peak_v = _peak(route, Tensor4(x), p_v)
    peak_h = _peak(route, Tensor4(_t(x)), p_h)
    assert peak_v <= 1.05 * peak_h, f"V {peak_v / 2**20:.2f} MiB, H {peak_h / 2**20:.2f} MiB"
