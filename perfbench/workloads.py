"""Seeded workloads, requests and output checks for the parckit benchmark.

Every input is f32 and every request covers both halves of the H/V channel
split: the first C/2 channels are swept along H, the rest along V.  A spatial
request goes through ``parc_forward_via_concat`` (the route ``parc bench``
times), a frequency request through ``fast_parc_forward``.  Why each workload
exists:

- ``pyramid224``: batch 1, C=96 at 28, 56, 112 and 224 with fixed params, so
  the caches stay warm.  Every length is 7*2^k, so large-N arithmetic
  dominates: the radix-7 einsum stage and the O(N^2) tap loop.
- ``pow2_b8``: batch 8, C=64 at 32 and 64, the stage sizes of a 256-px input.
  Pure radix-2 lengths, so the radix-7 einsum never runs, and many short
  lines per channel make Python dispatch dominate.
- ``train_det``: batch 2, C=64 on a 50x83 map, the stride-16 map of an
  unpadded 800x1333 detection frame.  Each request runs forward, then
  ``parc_backward``, then a meta-kernel update that builds new ``ParCParams``,
  so the per-params caches miss on every call.  50 is radix-5 and 83 is prime
  (Bluestein).

Every workload also times one ``metaformer_block_forward`` on its first map,
so that every end-to-end metric is measured on every workload.

Library functions are looked up on their module at each call, never bound
once, so that the traced run's patches see every call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from parc import blocks, conv_baseline, fast_parc, flops, parc_spatial
from parc.tensor import Tensor4

# `parc equiv` accepts an f32 route pair when max|a - b| / max(1, max|a|)
# stays at or below this limit.
F32_LIMIT = 1e-5
# Largest meta-kernel change per train step, as a share of the kernel scale.
TRAIN_STEP = 0.01

ROUTES = {
    "spatial": (parc_spatial, "parc_forward_via_concat"),
    "freq": (fast_parc, "fast_parc_forward"),
}
OTHER_ROUTE = {"spatial": "freq", "freq": "spatial"}


@dataclass(frozen=True)
class Spec:
    batch: int
    channels: int
    maps: tuple  # (height, width) per size, in request order
    train: bool


SPECS = {
    "pyramid224": Spec(1, 96, ((28, 28), (56, 56), (112, 112), (224, 224)), False),
    "pow2_b8": Spec(8, 64, ((32, 32), (64, 64)), False),
    "train_det": Spec(2, 64, ((50, 83),), True),
}


@dataclass
class Case:
    """One map size: the two input halves and the params that sweep them."""

    h: int
    w: int
    xs: tuple  # (H half, V half) as Tensor4
    params: list  # [H params, V params]; train requests replace them
    targets: tuple | None  # per-half regression targets on train workloads

    def sweep(self, half: int) -> int:
        return self.h if half == 0 else self.w


@dataclass
class Workload:
    name: str
    spec: Spec
    cases: list
    block_x: Tensor4
    block_p: blocks.MetaFormerBlockParams
    block_ref: np.ndarray | None = None  # set by the caller, outside set-up time


@dataclass
class Output:
    """What one route request produced for one case."""

    case: Case
    ys: tuple  # route outputs per half
    used: tuple  # params each half ran with
    grads: tuple | None  # ParCGrads per half, train workloads only
    fwd_s: float  # time in the two route calls


def generate(name: str, seed: int) -> Workload:
    """Inputs and params of a workload; the same seed gives the same arrays."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    half = spec.channels // 2
    cases = []
    for h, w in spec.maps:
        x = rng.standard_normal((spec.batch, spec.channels, h, w)).astype(np.float32)
        xs = (Tensor4(np.ascontiguousarray(x[:, :half])),
              Tensor4(np.ascontiguousarray(x[:, half:])))
        params = [parc_spatial.random_params(rng, half, orientation="H", kernel_scale=1.0 / h),
                  parc_spatial.random_params(rng, half, orientation="V", kernel_scale=1.0 / w)]
        targets = None
        if spec.train:
            targets = tuple((0.1 * rng.standard_normal(t.shape)).astype(np.float32) for t in xs)
        cases.append(Case(h, w, xs, params, targets))
    bh, bw = spec.maps[0]
    block_x = Tensor4(rng.standard_normal((spec.batch, spec.channels, bh, bw)).astype(np.float32))
    block_p = blocks.random_metaformer(rng, spec.channels, kernel_scale=1.0 / max(bh, bw))
    return Workload(name, spec, cases, block_x, block_p)


def call_route(route: str, x: Tensor4, p, parallel: bool = False) -> Tensor4:
    mod, attr = ROUTES[route]
    return getattr(mod, attr)(x, p, parallel=parallel)


def _train_step(case: Case, half: int, p, g):
    d = g.d_meta_kernel
    step = TRAIN_STEP / case.sweep(half) / max(float(np.abs(d).max()), 1e-30)
    return parc_spatial.ParCParams(p.mode, p.orientation, p.meta_kernel - step * d,
                                   p.meta_pe, p.bias)


def route_request(wl: Workload, route: str) -> list:
    """Run the route over every case and both halves; train steps included."""
    outs = []
    for case in wl.cases:
        used = tuple(case.params)
        ys, grads, fwd = [], [], 0.0
        for half, (x, p) in enumerate(zip(case.xs, used)):
            t0 = time.perf_counter()
            y = call_route(route, x, p)
            fwd += time.perf_counter() - t0
            ys.append(y)
            if case.targets is not None:
                g = parc_spatial.parc_backward(x, p, Tensor4(y.data - case.targets[half]))
                grads.append(g)
                case.params[half] = _train_step(case, half, p, g)
        outs.append(Output(case, tuple(ys), used, tuple(grads) or None, fwd))
    return outs


def block_request(wl: Workload) -> Tensor4:
    return blocks.metaformer_block_forward(wl.block_x, wl.block_p)


def cold_calls(wl: Workload) -> dict:
    """First call of every (route, size) and of the block, without train steps."""
    outs = {route: [tuple(call_route(route, x, p) for x, p in zip(c.xs, c.params))
                    for c in wl.cases]
            for route in ROUTES}
    outs["block"] = block_request(wl)
    return outs


def drift_cases(wl: Workload, seed: int) -> list:
    """Full-channel inputs and 7x7 depthwise kernels, one per map size."""
    rng = np.random.default_rng([seed, 7])
    return [(Tensor4(np.concatenate([x.data for x in c.xs], axis=1)),
             conv_baseline.ZeroPadConvParams(
                 rng.uniform(-1, 1, (wl.spec.channels, 7, 7)) / 49, pad=3, orientation="2D"))
            for c in wl.cases]


def drift_request(cases: list) -> None:
    for x, p in cases:
        conv_baseline.dwconv2d_zeropad(x, p)


def speedup(wl: Workload, route: str, reps: int = 3) -> float:
    """Serial over threaded (PARC_THREADS workers) time on the largest map."""
    case = wl.cases[-1]
    times = {False: [], True: []}
    for _ in range(reps):
        for parallel in (False, True):
            t0 = time.perf_counter()
            for x, p in zip(case.xs, case.params):
                call_route(route, x, p, parallel=parallel)
            times[parallel].append(time.perf_counter() - t0)
    return float(np.median(times[False]) / np.median(times[True]))


def model_muls(wl: Workload, route: str) -> list:
    """Multiplications of one route request per case, from the flops model."""
    count = flops.flops_parc if route == "spatial" else flops.flops_fast_parc
    return [wl.spec.batch * count(wl.spec.channels, c.h, c.w) for c in wl.cases]


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| relative to max(1, max|a|), as `parc equiv` measures it."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(a).max()))


class Checker:
    """Counts every check and every failure; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    def close(self, a, b, what: str) -> None:
        err = rel_err(a, b)
        self.expect(err <= F32_LIMIT, f"{what}: rel err {err:.3e} > {F32_LIMIT:.0e}")


def check_routes_agree(chk: Checker, wl: Workload, spatial: list, freq: list) -> None:
    """Spatial and frequency outputs of one (case, half) must agree."""
    for c, ys, yf in zip(wl.cases, spatial, freq):
        for half, (a, b) in enumerate(zip(ys, yf)):
            chk.close(a.data, b.data, f"{wl.name} {c.h}x{c.w} half {half}: spatial vs freq")


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def _fresh(p):
    return parc_spatial.ParCParams(p.mode, p.orientation, p.meta_kernel.copy(),
                                   p.meta_pe.copy(), p.bias.copy())


def check_train(chk: Checker, wl: Workload, route: str, outs: list) -> None:
    """Re-run each half on a freshly built params copy with both routes, and
    check the backward pass through its adjoint identities.

    A cache that served the previous step's params shows as a mismatch with
    the fresh copy.  y - bias is linear in both the resolved kernel K and the
    offset input xp, so <dy, y - bias> must equal <dK, K> and <dxp, xp>.
    """
    for out in outs:
        c = out.case
        for half, (x, y, p, g) in enumerate(zip(c.xs, out.ys, out.used, out.grads)):
            where = f"{wl.name} {c.h}x{c.w} half {half} ({route})"
            q = _fresh(p)
            chk.close(y.data, call_route(route, x, q).data, f"{where}: vs fresh params")
            chk.close(y.data, call_route(OTHER_ROUTE[route], x, q).data,
                      f"{where}: vs {OTHER_ROUTE[route]} route")
            kernel_n, pe_n, bias = q.resolved(c.sweep(half), "f32")
            dy = y.data.astype(np.float64) - c.targets[half]
            lin = y.data.astype(np.float64) - bias.astype(np.float64)[None, :, None, None]
            pe = pe_n[None, :, :, None] if half == 0 else pe_n[None, :, None, :]
            xp = x.data.astype(np.float64) + pe
            dxp = g.d_input.data.astype(np.float64)
            # Plain numpy reductions: BLAS dot products would wake BLAS
            # worker threads that keep spinning through the next request.
            lhs = float(np.sum(dy * lin))
            gaps = (abs(lhs - float(np.sum(g.d_kernel_n * kernel_n))),
                    abs(lhs - float(np.sum(dxp * xp))))
            scale = max(_norm(dy) * _norm(lin), _norm(dxp) * _norm(xp), 1e-30)
            chk.expect(max(gaps) <= F32_LIMIT * scale,
                       f"{where}: adjoint gap {max(gaps) / scale:.3e} > {F32_LIMIT:.0e}")


def block_reference(wl: Workload) -> np.ndarray:
    """The block recomputed in f64 with the frequency route as token mixer."""
    p = wl.block_p
    x = wl.block_x.data.astype(np.float64)
    half = p.channels // 2
    f = fast_parc.fast_parc_forward

    def sweep2(part, first, second):
        return f(f(Tensor4(np.ascontiguousarray(part)), first), second).data

    u = x + np.concatenate([sweep2(x[:, :half], p.first_h, p.first_v),
                            sweep2(x[:, half:], p.second_v, p.second_h)], axis=1)
    hid = np.tanh(np.einsum("dc,bchw->bdhw", p.mlp_w1, u) + p.mlp_b1[None, :, None, None])
    m = np.einsum("cd,bdhw->bchw", p.mlp_w2, hid) + p.mlp_b2[None, :, None, None]
    a = p.attention
    logits = np.maximum(m.mean(axis=(2, 3)) @ a.w1.T + a.b1, 0.0) @ a.w2.T + a.b2
    return u + m / (1.0 + np.exp(-logits))[:, :, None, None]


def check_block(chk: Checker, wl: Workload, y: Tensor4, ref: np.ndarray) -> None:
    chk.close(ref, y.data, f"{wl.name} block vs f64 frequency-route reference")


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


def run_round(wl: Workload, chk: Checker, tracer=None, rnd: int = 0, drift=None):
    """One request of each kind, timed, then their output checks (untimed).

    With a tracer, its patches are installed around the requests only, and
    the drift-control convolutions run after them.  Returns the latency in
    seconds per request kind and the forward seconds per case per route.
    """
    lat, outs = {}, {}

    def timed(kind, fn, *args):
        if tracer is not None:
            tracer.request = (rnd, kind)
        t0 = time.perf_counter()
        out = fn(*args)
        lat[kind] = time.perf_counter() - t0
        return out

    with tracer.active() if tracer is not None else nullcontext():
        for route in ROUTES:
            outs[route] = timed(route, route_request, wl, route)
        y_block = timed("block", block_request, wl)
        if drift:
            tracer.request = (rnd, "drift")
            drift_request(drift)
    if wl.spec.train:
        for route in ROUTES:
            check_train(chk, wl, route, outs[route])
    else:
        check_routes_agree(chk, wl, [o.ys for o in outs["spatial"]], [o.ys for o in outs["freq"]])
    check_block(chk, wl, y_block, wl.block_ref)
    return lat, {route: [o.fwd_s for o in outs[route]] for route in ROUTES}


def model_report(wl: Workload, fwd: dict) -> list:
    """Flops-model ratio freq/spatial next to the measured one, per map size.

    fwd maps each route to per-case lists of forward seconds.  A size is
    flagged when the model and the clock order the two routes differently.
    """
    lines = []
    muls = {route: model_muls(wl, route) for route in ROUTES}
    for i, c in enumerate(wl.cases):
        model = muls["freq"][i] / muls["spatial"][i]
        measured = statistics.median(fwd["freq"][i]) / statistics.median(fwd["spatial"][i])
        flag = "  DISAGREE" if (model < 1) != (measured < 1) else ""
        lines.append(f"model {wl.name} {c.h}x{c.w}: freq/spatial muls {model:.3f}, "
                     f"measured time {measured:.3f}{flag}")
    return lines
