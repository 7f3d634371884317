"""Acceptance gate: one test per top-level deliverable contract.

Each test prints a summary line; `pytest -v` gives the pass/fail verdict per
criterion.  Dataset-scale accuracy studies (ImageNet-style training runs)
are outside this library's scope by design and have no test here; the
operator-level oracles, transform identities, and gradient checks below are
the stand-in coverage.

Criteria covered:
  1. frequency route vs spatial route agreement at 64-bit and 32-bit
  2. multiplication-count table reproduced exactly
  3. transform identities (periodic sums, reversal, shift, correlation
     symmetry, spectral form of circular correlation) plus fft vs the naive DFT
  4. spatial routes vs a brute-force modulo-loop oracle, all tiny shapes
  5. analytic backward vs central finite differences, six gradient outputs
  6. receptive-field support patterns (cruciform / full plane / local box)
  7. latency crossover of the frequency route on this host
"""

import time

import numpy as np
import pytest

from parc.bench import BenchConfig, crossover, run_bench
from parc.blocks import (
    ChannelAttentionParams,
    ConvNetMixerParams,
    MetaFormerBlockParams,
    convnet_mixer_forward,
    metaformer_block_forward,
    perturbation_support,
    random_metaformer,
)
from parc.conv_baseline import ZeroPadConvParams, dwconv2d_zeropad
from parc.fast_parc import Spectrum, dft_naive, fast_parc_forward, fft, ifft
from parc.flops import format_mega, op_mul_count
from parc.parc_spatial import (
    ParCParams,
    parc_backward,
    parc_forward,
    parc_forward_via_concat,
    random_params,
)
from parc.tensor import Tensor4, interp_linear, interp_linear_adjoint


# -------------------------------------------------------------------------
# criterion 1: route equivalence
# -------------------------------------------------------------------------

def test_frequency_and_spatial_routes_agree():
    """f64 max-abs <= 1e-10 and f32 mean-abs inside [1e-8, 1e-6], C=96."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    report = []
    for idx, n in enumerate((7, 14, 28, 56)):
        orientation = "H" if idx % 2 == 0 else "V"
        p = random_params(rng, 96, orientation=orientation, kernel_scale=2.0 / n)
        base = rng.standard_normal((1, 96, n, n))

        x64 = Tensor4(base)
        d64 = np.abs(fast_parc_forward(x64, p).data - parc_forward(x64, p).data)
        assert d64.max() <= 1e-10, f"n={n}: 64-bit max-abs {d64.max():.3e}"

        x32 = Tensor4(base.astype(np.float32))
        d32 = np.abs(fast_parc_forward(x32, p).data.astype(np.float64)
                     - parc_forward(x32, p).data.astype(np.float64))
        mean32 = d32.mean()
        assert 1e-8 <= mean32 <= 1e-6, f"n={n}: 32-bit mean-abs {mean32:.3e}"
        report.append(f"n={n} f64max={d64.max():.1e} f32mean={mean32:.1e}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f}s"
    print(f"route equivalence PASS ({'; '.join(report)}; {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# criterion 2: multiplication-count table
# -------------------------------------------------------------------------

# frozen by hand from the closed-form models before implementation:
# dw: 96*n^2*K^2, parc: 96*n^3, fast: 96*(4*n^2*L + 2*n*L + 4*n^2), L=ceil(log2 n)
REFERENCE_TABLE = {
    ("dw3", 28): (677_376, "0.68M"),
    ("dw7", 28): (3_687_936, "3.69M"),
    ("parc", 28): (2_107_392, "2.11M"),
    ("fastparc", 28): (1_833_216, "1.83M"),
    ("dw3", 56): (2_709_504, "2.70M"),
    ("dw7", 56): (14_751_744, "14.8M"),
    ("parc", 56): (16_859_136, "16.9M"),
    ("fastparc", 56): (8_494_080, "8.49M"),
    ("dw3", 112): (10_838_016, "10.8M"),
    ("dw7", 112): (59_006_976, "59.0M"),
    ("parc", 112): (134_873_088, "134M"),
    ("fastparc", 112): (38_685_696, "38.7M"),
    ("dw3", 224): (43_352_064, "43.4M"),
    ("dw7", 224): (236_027_904, "236M"),
    ("parc", 224): (1_078_984_704, "1079M"),
    ("fastparc", 224): (173_752_320, "174M"),
}

# Two display cells in the reference were written with the fraction cut off
# instead of rounded; the underlying integers are not in dispute.  Exact
# integers are asserted for all 16; renderings for the other 14.
TRUNCATED_CELLS = {("dw3", 56), ("parc", 112)}


def test_multiplication_counts_reproduce_reference_table():
    for (op, n), (count, display) in sorted(REFERENCE_TABLE.items()):
        got = op_mul_count(op, 96, n)
        assert got == count, f"{op}@{n}: {got} != {count}"
        if (op, n) in TRUNCATED_CELLS:
            # cut-off rendering: drop the digit below the displayed precision
            if display.endswith("0M") and "." in display:
                assert format_mega(count) == f"{float(display[:-1]) + 0.01:.2f}M"
            else:
                assert format_mega(count) == f"{int(display[:-1]) + 1}M"
        else:
            assert format_mega(count) == display, \
                f"{op}@{n}: {format_mega(count)} != {display}"
    print(f"multiplication table PASS (16/16 integers exact; "
          f"{16 - len(TRUNCATED_CELLS)} renderings match, "
          f"{len(TRUNCATED_CELLS)} reference cells are truncation artifacts)")


# -------------------------------------------------------------------------
# criterion 3: transform identities
# -------------------------------------------------------------------------

def test_transform_identities_hold():
    """Five circular/DFT identities, N in 1..16 x 50 draws, 1e-10 relative;
    then the fft engine against the naive DFT for N in 1..128."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    rel = lambda a, b: np.abs(a - b).max() / max(1.0, np.abs(b).max())

    for n in range(1, 17):
        for _ in range(50):
            x = rng.standard_normal(n)
            w = rng.standard_normal(n)
            m = int(rng.integers(0, n))
            k = np.arange(n)

            # equal sums over any N consecutive samples of the periodic extension
            window = x[(m + k) % n].sum()
            assert abs(window - x.sum()) <= 1e-10 * max(1.0, abs(x.sum()))

            # index reversal conjugates the spectrum of a real sequence
            spec = dft_naive(x).bins
            rev = dft_naive(x[(-k) % n]).bins
            assert rel(rev, np.conj(spec)) <= 1e-10

            # circular delay twists each bin by a unit phasor
            delayed = dft_naive(np.roll(x, m)).bins
            twist = np.exp(-2j * np.pi * k * m / n)
            assert rel(delayed, twist * spec) <= 1e-10

            # correlation reads the same from either operand's viewpoint
            lhs = (w * x[(k + m) % n]).sum()
            rhs = (x * w[(k - m) % n]).sum()
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

            # spatial circular correlation == inverse of X * conj(W)
            spatial = np.array([(w * x[(k + s) % n]).sum() for s in range(n)])
            spectral = ifft(Spectrum(spec * np.conj(dft_naive(w).bins), n=n, full=True))
            assert rel(spectral.real, spatial) <= 1e-10

    for n in range(1, 129):
        x = rng.standard_normal(n)
        want = dft_naive(x).bins
        got = fft(x).bins
        assert rel(got, want[: n // 2 + 1]) <= 1e-10, f"fft vs naive DFT at n={n}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"identity sweep took {elapsed:.1f}s"
    print(f"transform identities PASS (16x50 draws x 5 identities, "
          f"fft==naive for N<=128; {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# criterion 4: brute-force spatial oracle
# -------------------------------------------------------------------------

def _oracle(x, p):
    """Scalar modulo-loop reference; shares no code with the library routes."""
    batch, c_in, height, width = x.shape
    n = height if p.orientation == "H" else width
    flat = p.meta_kernel.reshape(-1, p.meta_kernel.shape[-1])
    kernel = np.stack([interp_linear(r, n) for r in flat]).reshape(p.meta_kernel.shape[:-1] + (n,))
    pe = np.stack([interp_linear(r, n) for r in p.meta_pe])
    y = np.zeros((batch, p.channels_out, height, width))
    for b in range(batch):
        for o in range(p.channels_out):
            for i in range(height):
                for j in range(width):
                    pos = i if p.orientation == "H" else j
                    acc = 0.0
                    for k in range(n):
                        src = (k + pos) % n
                        ii, jj = (src, j) if p.orientation == "H" else (i, src)
                        if p.mode == "depthwise":
                            acc += kernel[o, k] * (x[b, o, ii, jj] + pe[o, src])
                        else:
                            for ci in range(c_in):
                                acc += kernel[o, ci, k] * (x[b, ci, ii, jj] + pe[ci, src])
                    y[b, o, i, j] = acc + p.bias[o]
    return y


def test_spatial_routes_match_brute_force_oracle():
    rng = np.random.default_rng(4)
    cases = 0
    for orientation in ("H", "V"):
        for mode in ("depthwise", "dense"):
            for batch in (1, 2):
                for c_in in (1, 2):
                    for n in range(1, 9):
                        for orth in (1, 3):
                            c_out = c_in if mode == "depthwise" else (2 if c_in == 1 else 1)
                            p = random_params(rng, c_in, orientation=orientation,
                                              mode=mode, channels_out=c_out, k_meta=4)
                            shape = (batch, c_in, n, orth) if orientation == "H" \
                                else (batch, c_in, orth, n)
                            x = Tensor4(rng.standard_normal(shape))
                            want = _oracle(x.data, p)
                            for fwd in (parc_forward, parc_forward_via_concat):
                                got = fwd(x, p).data
                                assert np.abs(got - want).max() <= 1e-12, \
                                    f"{fwd.__name__} {mode}/{orientation} n={n}"
                            cases += 1
    print(f"spatial oracle PASS ({cases} configurations x 2 routes, <=1e-12)")


# -------------------------------------------------------------------------
# criterion 5: gradients vs finite differences
# -------------------------------------------------------------------------

def _loss_and_grads(x, p, dy):
    y = parc_forward(Tensor4(x), p).data
    return (dy * y).sum(), parc_backward(Tensor4(x), p, Tensor4(dy))


def _fd(f, arr, step=1e-5):
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        up = f()
        flat[idx] = keep - step
        down = f()
        flat[idx] = keep
        g.reshape(-1)[idx] = (up - down) / (2 * step)
    return g


def _rel_err(analytic, numeric):
    return np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    instances = 0
    for case in range(24):
        orientation = ("H", "V")[case % 2]
        mode = ("depthwise", "dense")[(case // 2) % 2]
        c_in = int(rng.integers(1, 4))
        c_out = c_in if mode == "depthwise" else int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        orth = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 3))
        # every fourth instance resolves meta vectors at their native length,
        # making the length-N kernel/PE gradients directly FD-checkable
        k_meta = n if case % 4 == 0 else int(rng.integers(2, 6))
        p = random_params(rng, c_in, orientation=orientation, mode=mode,
                          channels_out=c_out, k_meta=k_meta)
        shape = (batch, c_in, n, orth) if orientation == "H" else (batch, c_in, orth, n)
        x = rng.standard_normal(shape)
        out_shape = (batch, c_out) + shape[2:]
        dy = rng.standard_normal(out_shape)

        _, grads = _loss_and_grads(x, p, dy)

        checks = {
            "input": (x, grads.d_input.data),
            "meta_kernel": (p.meta_kernel, grads.d_meta_kernel),
            "meta_pe": (p.meta_pe, grads.d_meta_pe),
            "bias": (p.bias, grads.d_bias),
        }
        if k_meta == n:
            # native length: resolved == meta, so the N-length grads are FD-able
            assert np.allclose(grads.d_kernel_n, grads.d_meta_kernel, atol=1e-12)
            assert np.allclose(grads.d_pe_n, grads.d_meta_pe, atol=1e-12)
        for name, (arr, analytic) in checks.items():
            p._plans.clear()

            def loss():
                p._plans.clear()
                return (dy * parc_forward(Tensor4(x), p).data).sum()

            numeric = _fd(loss, arr)
            err = _rel_err(analytic, numeric)
            worst = max(worst, err)
            assert err <= 1e-6, f"case {case} {name}: rel err {err:.2e}"
        # chain consistency ties the resolved-length grads to the meta grads
        for meta, full in ((grads.d_meta_kernel, grads.d_kernel_n),
                           (grads.d_meta_pe, grads.d_pe_n)):
            flat_meta = meta.reshape(-1, meta.shape[-1])
            flat_full = full.reshape(-1, full.shape[-1])
            for row_m, row_f in zip(flat_meta, flat_full):
                back = interp_linear_adjoint(row_f, row_m.shape[0])
                assert np.abs(back - row_m).max() <= 1e-10
        instances += 1
    assert instances >= 20
    print(f"gradient check PASS ({instances} instances, worst rel err {worst:.2e})")


# -------------------------------------------------------------------------
# criterion 6: receptive-field support
# -------------------------------------------------------------------------

def test_receptive_field_support_patterns():
    rng = np.random.default_rng(6)
    n = 7
    ci, cj = 3, 2

    # (a) grouped mixer: own-channel column for the H half, row for the V half
    half = 2
    mixer = ConvNetMixerParams(
        ParCParams("depthwise", "H", rng.uniform(0.2, 1.2, (half, n)),
                   np.zeros((half, n)), np.zeros(half)),
        ParCParams("depthwise", "V", rng.uniform(0.2, 1.2, (half, n)),
                   np.zeros((half, n)), np.zeros(half)),
    )
    x = Tensor4(rng.standard_normal((1, 4, n, n)))
    run = lambda t: convnet_mixer_forward(t, mixer)
    mask = perturbation_support(run, x, 0, ci, cj)
    want = np.zeros((4, n, n), bool)
    want[0, :, cj] = True
    assert np.array_equal(mask, want), "H-half support is not exactly one column"
    mask = perturbation_support(run, x, 2, ci, cj)
    want = np.zeros((4, n, n), bool)
    want[2, ci, :] = True
    assert np.array_equal(mask, want), "V-half support is not exactly one row"

    # (b) metaformer block: one bump reaches every output position and channel
    block = random_metaformer(rng, 4, kernel_scale=0.5, pe_scale=0.1)
    x = Tensor4(rng.standard_normal((1, 4, n, n)))
    mask = perturbation_support(lambda t: metaformer_block_forward(t, block), x, 1, ci, cj)
    assert mask.all(), "metaformer support must cover the full plane"

    # (c) zero-padded baselines: exactly the (K-1)/2 box around the bump
    for k in (3, 5, 7):
        pad = (k - 1) // 2
        p = ZeroPadConvParams(rng.uniform(0.2, 1.2, (2, k, k)), pad=pad, orientation="2D")
        x = Tensor4(rng.standard_normal((1, 2, n, n)))
        mask = perturbation_support(lambda t: dwconv2d_zeropad(t, p), x, 1, ci, cj)
        want = np.zeros((2, n, n), bool)
        want[1, max(0, ci - pad):ci + pad + 1, max(0, cj - pad):cj + pad + 1] = True
        assert np.array_equal(mask, want), f"K={k} support is not the (K-1)/2 box"

    print("receptive-field contracts PASS (cruciform / full plane / local box)")


# -------------------------------------------------------------------------
# criterion 7: latency crossover on this host
# -------------------------------------------------------------------------

def test_frequency_route_overtakes_spatial_route():
    """Absolute latencies are host-specific; only the ordering is asserted."""
    t0 = time.perf_counter()
    cfg = BenchConfig(ops=("parc", "fastparc"), resolutions=(28, 56, 112, 224),
                      warmup=2, iters=5, precision="f32", seed=0, parallel=False)
    table = run_bench(cfg)
    elapsed = time.perf_counter() - t0

    n_cross = crossover(table, "fastparc", "parc")
    assert n_cross is not None and n_cross <= 112, \
        f"frequency route never wins by 112 (crossover: {n_cross})"
    mean = {(r.op, r.resolution): r.latency_ms_mean for r in table}
    assert mean[("fastparc", 224)] < mean[("parc", 224)], \
        "frequency route must be strictly faster at 224"
    assert elapsed < 300.0, f"bench took {elapsed:.1f}s"
    ratio = mean[("parc", 224)] / mean[("fastparc", 224)]
    print(f"latency crossover PASS (first win at {n_cross}, "
          f"{ratio:.2f}x faster at 224; {elapsed:.1f}s)")
