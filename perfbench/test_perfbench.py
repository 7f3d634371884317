"""Tests for the benchmark's own code: seeded generators, the output checks,
the trace patches, and the metric names against BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from parc import blocks, fast_parc, parc_spatial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _arrays(wl):
    for c in wl.cases:
        yield from (x.data for x in c.xs)
        for p in c.params:
            yield from (p.meta_kernel, p.meta_pe, p.bias)
        yield from c.targets or ()
    yield from (wl.block_x.data, wl.block_p.mlp_w1, wl.block_p.first_h.meta_kernel)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _ready(name, seed):
    wl = workloads.generate(name, seed)
    workloads.cold_calls(wl)
    wl.block_ref = workloads.block_reference(wl)
    return wl


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generate_is_deterministic_per_seed(name):
    a, b, c = (workloads.generate(name, s) for s in (5, 5, 6))
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    assert not any(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(c)))


def test_names_and_units_match_benchmark_json():
    assert set(run.WORKLOADS) == set(workloads.SPECS) == {w["name"] for w in SPEC["workloads"]}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_second_seed_runs_clean_and_emits_every_declared_metric(trace):
    proc = _run("--workload", "pow2_b8", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    table = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pow2_b8", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_train_round_runs_clean_and_replaces_params():
    wl = _ready("train_det", 2)
    before = list(wl.cases[0].params)
    chk = workloads.Checker()
    workloads.run_round(wl, chk)
    assert chk.failed == 0 and chk.attempted > 0, chk.notes
    assert all(a is not b for a, b in zip(before, wl.cases[0].params))


def test_checks_count_stale_and_disagreeing_outputs():
    wl = _ready("train_det", 3)
    first = workloads.route_request(wl, "spatial")
    second = workloads.route_request(wl, "spatial")
    # Serve the first step's outputs for the second step's params, as a
    # stale cache would.
    second[0].ys = first[0].ys
    chk = workloads.Checker()
    workloads.check_train(chk, wl, "spatial", second)
    assert chk.failed >= 2, chk.notes

    wl = _ready("pow2_b8", 3)
    spatial = [o.ys for o in workloads.route_request(wl, "spatial")]
    freq = [o.ys for o in workloads.route_request(wl, "freq")]
    freq[1][0].data[0, 0, 0, 0] += 1e-3
    chk = workloads.Checker()
    workloads.check_routes_agree(chk, wl, spatial, freq)
    assert (chk.attempted, chk.failed) == (4, 1)


def test_trace_patches_every_lookup_and_restores_them():
    tracer = tracing.Tracer()
    assert not tracer.missing
    originals = (parc_spatial._offset_input, parc_spatial.parc_forward, parc_spatial.run_sliced,
                 fast_parc._fft_rec)
    with tracer.active():
        assert fast_parc._offset_input is parc_spatial._offset_input is not originals[0]
        assert blocks.parc_forward is parc_spatial.parc_forward is not originals[1]
        assert fast_parc.run_sliced is parc_spatial.run_sliced is not originals[2]
        assert fast_parc._fft_rec is not originals[3]
        tracer.request = (0, "freq")
        fast_parc.fft(np.arange(8.0))
    assert (parc_spatial._offset_input, parc_spatial.parc_forward, parc_spatial.run_sliced,
            fast_parc._fft_rec) == originals
    # radix-2 length 8 recurses through the module global: depths 0..3
    assert tracer.counts[(0, "fast_parc.fft_rec")] == 4


def test_trace_self_check_names_spans_that_never_fired():
    problems = tracing.Tracer().self_check("train_det", {50, 83})
    assert "span parc_spatial.backward never fired on train_det" in problems
    assert "span parc_spatial.fwd never fired at n=83 on train_det" in problems
    assert not any("dw7" in p for p in problems)
