"""Closed-loop benchmark of parckit's public routes.

Run from the repository root:

    python3 perfbench/run.py --workload pyramid224 --seed 1 --seconds 30 --trace 0

One client sends the next request only after the last one returns.  A round
is one spatial request, one frequency request and one block request; rounds
repeat until --seconds have passed, and every output is checked (untimed)
against the other route or an f64 reference.  The library runs serially
except in the threading probe of the traced run, which uses PARC_THREADS =
nproc workers; BLAS thread counts are capped at nproc.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Failed checks divided by attempted checks is the
fail_frac the report prints.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates traced and untraced rounds and reports
the per-layer metrics (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pyramid224", "pow2_b8", "train_det")
# set-up runs per result: this process plus fresh interpreters
SETUP_SAMPLES = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s",
    "spatial_ms_mean": "ms",
    "freq_ms_mean": "ms",
    "block_ms_mean": "ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def timed_setup(name: str, seed: int):
    """Import, generate the workload, and make the first cold call of every
    (route, size) and of the block.  Returns (workload, seconds, outputs)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.generate(name, seed)
    cold = workloads.cold_calls(wl)
    return wl, time.perf_counter() - t0, cold


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def latency_summary(samples) -> str:
    """Mean, median and the highest listed percentile with at least ten
    samples beyond it, in ms, with the sample count."""
    n = len(samples)
    text = (f"mean {statistics.fmean(samples) * 1e3:.3f} ms, "
            f"p50 {statistics.median(samples) * 1e3:.3f} ms")
    fit = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if fit:
        p = fit[-1]
        value = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
        text += f", p{p:g} {value * 1e3:.3f} ms"
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text} (n={n})"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    env_vars = ("PARC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in env_vars},
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "parc" / "__init__.py").is_file():
        print(f"perfbench: no parc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    os.environ["PARC_THREADS"] = str(nproc)

    if args.setup_only:
        _, setup_s, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    setups = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.active():
            wl, _, cold = timed_setup(args.workload, args.seed)
    else:
        setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        wl, setup_s, cold = timed_setup(args.workload, args.seed)
        setups.append(setup_s)
    import workloads

    chk = workloads.Checker()
    workloads.check_routes_agree(chk, wl, cold["spatial"], cold["freq"])
    wl.block_ref = workloads.block_reference(wl)
    workloads.check_block(chk, wl, cold["block"], wl.block_ref)
    drift = workloads.drift_cases(wl, args.seed) if args.trace and wl.name == "pyramid224" else None

    lat = {"spatial": [], "freq": [], "block": []}
    fwd = {route: [[] for _ in wl.cases] for route in workloads.ROUTES}
    round_s = {True: [], False: []}  # traced?, per-round request seconds
    t_end = time.perf_counter() + args.seconds
    rnd = 0
    while rnd < 2 or time.perf_counter() < t_end:
        traced = bool(args.trace) and rnd % 2 == 1
        r_lat, r_fwd = workloads.run_round(wl, chk, tracer if traced else None, rnd,
                                           drift if traced else None)
        round_s[traced].append(sum(r_lat.values()))
        if not traced:
            for kind, v in r_lat.items():
                lat[kind].append(v)
            for route, per_case in r_fwd.items():
                for i, v in enumerate(per_case):
                    fwd[route][i].append(v)
        rnd += 1

    print("env " + json.dumps(environment(args.seed, nproc), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} rounds {rnd} (closed loop, 1 client)")
    for line in workloads.model_report(wl, fwd):
        print(line)

    if args.trace:
        problems = tracer.self_check(wl.name, {n for c in wl.cases for n in (c.h, c.w)})
        chk.attempted += 1
        if problems:
            chk.failed += 1
            chk.notes.extend(problems)
        metrics = tracer.layer_metrics()
        metrics["threads.speedup.spatial"] = workloads.speedup(wl, "spatial")
        metrics["threads.speedup.freq"] = workloads.speedup(wl, "freq")
        for route in workloads.ROUTES:
            muls = sum(workloads.model_muls(wl, route))
            secs = sum(statistics.median(v) for v in fwd[route])
            metrics[f"flops.{route}.mul_per_ns"] = muls / (secs * 1e9)
        metrics["trace.overhead_frac"] = (statistics.median(round_s[True])
                                          / statistics.median(round_s[False]) - 1.0)
        units = tracing.UNITS
    else:
        for kind in ("spatial", "freq", "block"):
            print(f"{kind} request latency: {latency_summary(lat[kind])}")
        metrics = {
            "setup_s": statistics.median(setups),
            **{f"{kind}_ms_mean": statistics.fmean(lat[kind]) * 1e3
               for kind in ("spatial", "freq", "block")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    for note in chk.notes:
        print(f"FAIL {note}")
    print(f"fail_frac {chk.failed / chk.attempted} ({chk.failed} of {chk.attempted} checks)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
