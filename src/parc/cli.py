"""Command-line front end: equivalence checks, FLOPs tables, benchmarks,
block demos, and fixture generation.

Exit codes: 0 on success, 1 when a verification (equiv) fails, 2 on usage
errors, 3 when an --out file cannot be written.
"""

from __future__ import annotations

import hashlib
import sys

import click
import numpy as np

from . import bench as bench_mod
from . import blocks as blocks_mod
from .fast_parc import fast_parc_forward
from .flops import write_curves_csv
from .parc_spatial import (_lines, _resolve, parc_backward, parc_forward, parc_forward_via_concat,
                           random_params)
from .rng import Xoshiro256
from .tensor import DTYPE_NAMES, Tensor4, dtype_from_name, write_fixture


# parc bench and parc flops take their defaults from the benchmark protocol.
_PROTOCOL = bench_mod.BenchConfig
_OPS, _RESOLUTIONS = ",".join(_PROTOCOL.ops), ",".join(map(str, _PROTOCOL.resolutions))


class _OutputError(click.ClickException):
    """An --out file that cannot be written: one line on stderr, exit code 3."""
    exit_code = 3


def _split(text: str, label: str) -> list[str]:
    """The stripped, non-empty entries of a comma list; none is a usage error."""
    values = [s.strip() for s in text.split(",") if s.strip()]
    if not values:
        raise click.UsageError(f"{label} must name at least one entry, got {text!r}")
    return values


def _parse_ints(text: str, label: str) -> list[int]:
    try:
        values = [int(s) for s in _split(text, label)]
    except ValueError:
        raise click.UsageError(f"{label} must be comma-separated integers, got {text!r}")
    if any(v < 1 for v in values):
        raise click.UsageError(f"{label} entries must be >= 1, got {text!r}")
    return values


@click.group()
def main():
    """Circular-convolution operator toolkit."""


def _adjoint_gap(x: Tensor4, p, y: Tensor4) -> float:
    """Worst gap in parc_backward's adjoint identities at (x, p), relative to
    the larger norm product.

    y - bias is linear in both the resolved kernel K and the offset lines
    xl, so for any cotangent dy, <dy, y - bias> must equal <dK, K> and
    <dxl, xl>, dxl being d_input as lines.  dy = y - bias makes the left
    side a squared norm, so a relative error in dK or dxl shows at about its
    own size; a random dy would dilute it by the square root of the output
    size.
    """
    axis, _, kernel_n, pe_n, bias = _resolve(x, p)
    dy = y.data - bias[None, :, None, None]
    g = parc_backward(x, p, Tensor4(dy))
    lin = dy.astype(np.float64)
    xl = _lines(x.data, axis, pe_n=pe_n)
    d_in = _lines(g.d_input.data, axis)
    lhs = np.vdot(lin, lin)
    gaps = (abs(lhs - np.vdot(g.d_kernel_n, kernel_n.astype(np.float64))),
            abs(lhs - np.vdot(d_in, xl)))
    scale = max(lhs, np.linalg.norm(d_in) * np.linalg.norm(xl), 1e-300)
    return float(max(gaps) / scale)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--precision", default="f64", type=click.Choice(list(DTYPE_NAMES)), show_default=True)
@click.option("--resolutions", default="7,14,28,56", show_default=True)
@click.option("--channels", default=96, show_default=True)
@click.option("--batch", default=1, show_default=True)
def equiv(seed, precision, resolutions, channels, batch):
    """Cross-check the three operator implementations pairwise, and the
    backward pass by its adjoint identities.

    Rows are labelled by computation: ``circulant`` is ``parc_forward``, one
    batched circulant matmul on these square depthwise maps,
    ``periodic-ext`` is ``parc_forward_via_concat``, the tap loop over the
    periodic extension, and ``frequency`` is ``fast_parc_forward``.

    Passes when, at every resolution, the worst pairwise max-abs error
    relative to the output scale, and the worst adjoint gap of
    ``parc_backward`` relative to its norm products, stay below 1e-10 (f64)
    or 1e-5 (f32).
    """
    res_list = _parse_ints(resolutions, "--resolutions")
    dtype = dtype_from_name(precision)
    limit = 1e-10 if dtype == np.float64 else 1e-5
    rng = np.random.default_rng(seed)
    failed = False

    def verdict(rel):
        nonlocal failed
        ok = rel <= limit  # false for NaN as well
        failed |= not ok
        return "ok" if ok else f"FAIL (rel {rel:.3e} > {limit:.0e})"

    for idx, n in enumerate(res_list):
        orientation = "H" if idx % 2 == 0 else "V"
        try:
            p = random_params(rng, channels, orientation=orientation, kernel_scale=1.0 / n)
            x = Tensor4(rng.standard_normal((batch, channels, n, n)).astype(dtype))
            outs = {
                "circulant": parc_forward(x, p),
                "periodic-ext": parc_forward_via_concat(x, p),
                "frequency": fast_parc_forward(x, p),
            }
            gap = _adjoint_gap(x, p, outs["circulant"])
        except ValueError as e:
            raise click.UsageError(str(e))
        scale = max(1.0, float(np.abs(outs["circulant"].data).max()))
        names = list(outs)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                diff = np.abs(outs[names[a]].data.astype(np.float64)
                              - outs[names[b]].data.astype(np.float64))
                max_abs = float(diff.max())
                mean_abs = float(diff.mean())
                rel = max_abs / scale
                click.echo(
                    f"res {n:>4} {orientation} {names[a]:>12} vs {names[b]:<12} "
                    f"max-abs {max_abs:.3e} mean-abs {mean_abs:.3e} {verdict(rel)}"
                )
        click.echo(f"res {n:>4} {orientation} {'backward':>12} adjoint gap {gap:.3e} "
                   f"{verdict(gap)}")
    if failed:
        sys.exit(1)
    click.echo(f"all pairs within {limit:.0e} (relative to output scale), "
               f"adjoint gaps too")


@main.command("flops")
@click.option("--ops", default=_OPS, show_default=True)
@click.option("--channels", default=_PROTOCOL.channels, show_default=True)
@click.option("--resolutions", default=_RESOLUTIONS, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="CSV path; stdout when omitted.")
def flops_cmd(ops, channels, resolutions, out):
    """Emit mul-count curves as CSV (op,channels,resolution,mul_count)."""
    res_list = _parse_ints(resolutions, "--resolutions")
    try:
        write_curves_csv(out or sys.stdout, _split(ops, "--ops"), channels, res_list)
    except ValueError as e:
        raise click.UsageError(str(e))
    except OSError as e:
        raise _OutputError(f"cannot write {out or 'stdout'}: {e}")
    if out:
        click.echo(f"wrote {out}")


@main.command("bench")
@click.option("--channels", default=_PROTOCOL.channels, show_default=True)
@click.option("--batch", default=_PROTOCOL.batch, show_default=True)
@click.option("--resolutions", default=_RESOLUTIONS, show_default=True)
@click.option("--ops", default=_OPS, show_default=True)
@click.option("--warmup", default=_PROTOCOL.warmup, show_default=True)
@click.option("--iters", default=_PROTOCOL.iters, show_default=True)
@click.option("--precision", default=_PROTOCOL.precision, type=click.Choice(list(DTYPE_NAMES)),
              show_default=True)
@click.option("--seed", default=_PROTOCOL.seed, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--md", is_flag=True, help="Also print a markdown table.")
def bench_cmd(channels, batch, resolutions, ops, warmup, iters, precision, seed, out, md):
    """Time each op at each resolution; latency is host-specific by nature."""
    try:
        cfg = bench_mod.BenchConfig(
            batch=batch, channels=channels,
            resolutions=tuple(_parse_ints(resolutions, "--resolutions")),
            ops=tuple(_split(ops, "--ops")),
            warmup=warmup, iters=iters, precision=precision, seed=seed,
        )

        def progress(rec):
            click.echo(f"{rec.op:>9} @{rec.resolution:<4} "
                       f"{rec.latency_ms_mean:9.3f} ms ± {rec.latency_ms_std:.3f}")

        table = bench_mod.run_bench(cfg, progress=progress)
    except ValueError as e:
        raise click.UsageError(str(e))
    if out is not None:
        try:
            bench_mod.write_csv(table, out)
        except OSError as e:
            raise _OutputError(f"cannot write {out}: {e}")
        click.echo(f"wrote {out}")
    if md:
        click.echo(bench_mod.to_markdown(table))
    present = {r.op for r in table}
    if {"parc", "fastparc"} <= present and len(cfg.resolutions) >= 2:
        n = bench_mod.crossover(table, "fastparc", "parc")
        click.echo(f"crossover (frequency beats spatial): "
                   f"{'none observed' if n is None else n}")


def _xoshiro_tensor(shape, seed, precision) -> Tensor4:
    gen = Xoshiro256(seed)
    count = int(np.prod(shape))
    data = gen.fill_signed(count).reshape(shape)
    return Tensor4(data.astype(dtype_from_name(precision)))


@main.command("demo-block")
@click.option("--block", type=click.Choice(["metaformer", "convnet"]), required=True)
@click.option("--shape", default="1,8,14,14", show_default=True, help="B,C,H,W")
@click.option("--seed", default=0, show_default=True)
def demo_block(block, shape, seed):
    """Run one block forward and report its receptive-field footprint."""
    dims = _parse_ints(shape, "--shape")
    if len(dims) != 4:
        raise click.UsageError(f"--shape must be B,C,H,W, got {shape!r}")
    b, c, h, w = dims
    x = _xoshiro_tensor((b, c, h, w), seed, "f64")
    rng = np.random.default_rng(seed + 1)
    try:
        if block == "metaformer":
            params = blocks_mod.random_metaformer(rng, c, hidden=2 * c, kernel_scale=0.5)
            fn = lambda t: blocks_mod.metaformer_block_forward(t, params)
        else:
            params = blocks_mod.random_convnet_mixer(rng, c, kernel_scale=0.5)
            fn = lambda t: blocks_mod.convnet_mixer_forward(t, params)
        y = fn(x)
    except ValueError as e:
        raise click.UsageError(str(e))
    digest = hashlib.sha256(y.data.tobytes()).hexdigest()
    click.echo(f"block {block} shape {tuple(y.shape)} checksum sha256:{digest[:16]}")
    click.echo(f"output mean {y.data.mean():+.6f} std {y.data.std():.6f}")

    ci, cj = h // 2, w // 2
    half = c // 2
    if block == "convnet":
        # Depthwise halves never mix channels, so probe each group separately.
        col, row = np.arange(w) == cj, (np.arange(h) == ci)[:, None]
        ok = True
        for ch, line, where in ((0, col, f"column {cj}"), (half, row, f"row {ci}")):
            mask = blocks_mod.perturbation_support(fn, x, channel=ch, i=ci, j=cj)
            untouched = not np.delete(mask, ch, axis=0).any()
            ok = ok and (mask[ch] == line).all() and untouched
            click.echo(f"bumped (ch {ch}, {ci}, {cj}): {mask[ch].sum()}/{h * w} positions "
                       f"moved in channel {ch} ({where}), other channels untouched: "
                       f"{untouched}")
        shape_desc = "cruciform (own-channel column / row only)"
    else:
        mask = blocks_mod.perturbation_support(fn, x, channel=0, i=ci, j=cj)
        frac = mask.sum() / mask.size
        click.echo(f"bumped (ch 0, {ci}, {cj}): {frac:.1%} of all outputs moved")
        ok = bool(mask.all())
        shape_desc = "full plane across every channel"
    click.echo(f"footprint {shape_desc}: {'confirmed' if ok else 'NOT as expected'}")


@main.command("gen-fixture")
@click.option("--shape", required=True, help="B,C,H,W")
@click.option("--seed", default=0, show_default=True)
@click.option("--precision", default="f64", type=click.Choice(list(DTYPE_NAMES)), show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
def gen_fixture(shape, seed, precision, out):
    """Write a seeded pseudorandom tensor as a PARC1 fixture.

    Values come from xoshiro256** seeded through splitmix64, mapped to
    [-1, 1); the same flags always produce byte-identical files.
    """
    dims = _parse_ints(shape, "--shape")
    if len(dims) != 4:
        raise click.UsageError(f"--shape must be B,C,H,W, got {shape!r}")
    t = _xoshiro_tensor(tuple(dims), seed, precision)
    try:
        write_fixture(out, t)
    except OSError as e:
        raise _OutputError(f"cannot write {out}: {e}")
    click.echo(f"wrote {out} ({t.dtype_name}, shape {t.shape})")


if __name__ == "__main__":
    main()
