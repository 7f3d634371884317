"""Single-operator latency harness with CSV/markdown reporting.

Each (op, resolution) pair gets one random input allocated up front,
``warmup`` untimed calls (200 by default), then ``iters`` individually timed
calls on a monotonic clock.
Reported spread is the population standard deviation.  The circular ops time
the composite used in real blocks, ``blocks.split_sweep``: the channel split,
half the channels swept along H, half along V, and the concatenation of the
two halves ("parc" runs the periodic-extension spatial route, "fastparc" the
frequency route), so their mul_count matches the model in ``flops``.
"""

from __future__ import annotations

import csv
import platform
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .blocks import random_convnet_mixer, split_sweep
from .conv_baseline import ZeroPadConvParams, dwconv2d_zeropad
from .fast_parc import fast_parc_forward
from .flops import dw_taps, format_mega, op_mul_count
from .parc_spatial import parc_forward_via_concat
from .tensor import Tensor4, dtype_from_name


@dataclass
class BenchConfig:
    """One benchmark protocol; the class defaults are the CLI defaults.

    ``parallel`` is kept for callers that still pass it, and ignored: every
    route runs serially.
    """

    batch: int = 1
    channels: int = 96
    resolutions: tuple = (28, 56, 112, 224)
    ops: tuple = ("dw3", "dw7", "parc", "fastparc")
    warmup: int = 200
    iters: int = 100
    precision: str = "f32"
    seed: int = 0
    parallel: bool = False

    def __post_init__(self):
        if self.warmup < 1 or self.iters < 1:
            raise ValueError("warmup and iters must be >= 1")
        for name in ("ops", "resolutions"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {list(values)}")
        dtype_from_name(self.precision)


@dataclass(frozen=True)
class BenchRecord:
    op: str
    resolution: int
    batch: int
    channels: int
    precision: str
    mul_count: int
    latency_ms_mean: float
    latency_ms_std: float
    iters: int
    host: str


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def host_descriptor() -> str:
    return f"{platform.node() or 'unknown'}/{platform.system()}-{platform.machine()}"


def _make_runner(op: str, cfg: BenchConfig, resolution: int):
    """Closure executing one forward pass; inputs pre-allocated, untimed.

    Op names were already checked by ``op_mul_count`` in ``run_bench``.
    """
    n = resolution
    rng = np.random.default_rng(cfg.seed * 1_000_003 + n)
    x = Tensor4(rng.standard_normal((cfg.batch, cfg.channels, n, n))
                .astype(dtype_from_name(cfg.precision)))
    if (k := dw_taps(op)) is not None:
        p = ZeroPadConvParams(rng.uniform(-1, 1, (cfg.channels, k, k)) / (k * k),
                              pad=(k - 1) // 2, orientation="2D")
        return lambda: dwconv2d_zeropad(x, p)
    route = {"parc": parc_forward_via_concat, "fastparc": fast_parc_forward}[op]
    mixer = random_convnet_mixer(rng, cfg.channels, kernel_scale=1.0 / n)
    return lambda: split_sweep(x, mixer.parc_h, mixer.parc_v, route)


def run_bench(cfg: BenchConfig, progress=None) -> list[BenchRecord]:
    """Time every (op, resolution) pair in cfg; see the module docstring.

    progress, when given, is called with each finished BenchRecord.
    """
    host = host_descriptor()
    # Counting every pair first fails on bad names before any allocation or timing.
    counts = {(op, n): op_mul_count(op, cfg.channels, n) for op in cfg.ops for n in cfg.resolutions}
    table = []
    for (op, n), mul_count in counts.items():
        run = _make_runner(op, cfg, n)
        for _ in range(cfg.warmup):
            run()
        samples = np.empty(cfg.iters)
        for i in range(cfg.iters):
            t0 = time.perf_counter()
            run()
            samples[i] = (time.perf_counter() - t0) * 1e3
        rec = BenchRecord(
            op=op, resolution=n, batch=cfg.batch, channels=cfg.channels,
            precision=cfg.precision, mul_count=mul_count,
            latency_ms_mean=float(samples.mean()), latency_ms_std=float(samples.std()),
            iters=cfg.iters, host=host,
        )
        table.append(rec)
        if progress is not None:
            progress(rec)
    return table


def crossover(table: list[BenchRecord], op_a: str, op_b: str):
    """Smallest shared resolution where op_a's mean is strictly below op_b's.

    Returns None when op_a never wins; raises when fewer than two shared
    resolutions exist to compare.
    """
    mean_a = {r.resolution: r.latency_ms_mean for r in table if r.op == op_a}
    mean_b = {r.resolution: r.latency_ms_mean for r in table if r.op == op_b}
    shared = sorted(set(mean_a) & set(mean_b))
    if len(shared) < 2:
        raise ValueError(f"need {op_a!r} and {op_b!r} at >= 2 shared resolutions, have {len(shared)}")
    for n in shared:
        if mean_a[n] < mean_b[n]:
            return n
    return None


def write_csv(table: list[BenchRecord], path) -> None:
    """One row per record in BenchRecord field order; floats as %.6f."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in table:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in astuple(r)])


def to_markdown(table: list[BenchRecord]) -> str:
    lines = [
        "| op | resolution | mul_count | latency (ms) |",
        "| --- | --- | --- | --- |",
    ]
    for r in table:
        lines.append(
            f"| {r.op} | {r.resolution} | {format_mega(r.mul_count)} "
            f"| {r.latency_ms_mean:.3f} ± {r.latency_ms_std:.3f} |"
        )
    return "\n".join(lines) + "\n"
