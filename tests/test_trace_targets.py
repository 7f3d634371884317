"""The benchmark's per-layer trace targets exist in the library and fire.

``perfbench/tracing.py`` patches library functions by name; a renamed or
deleted target would only surface when the benchmark runs.  The first test
loads the module from its file and only inspects it: ``Tracer()`` plans its
patches but installs none.  The second runs one short traced round of the
``train_det`` workload, which reaches every span declared on all workloads
plus the training-only ones, and checks that each span fired and every route
check passed.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []


def test_traced_round_fires_every_span_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_det", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, [line for line in lines if line.startswith("FAIL")]
