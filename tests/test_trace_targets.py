"""The benchmark's per-layer trace targets all exist in the library.

``perfbench/tracing.py`` patches library functions by name; a renamed or
deleted target would only surface when the benchmark runs.  The module is
loaded from its file and only inspected: ``Tracer()`` plans its patches but
installs none.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []
