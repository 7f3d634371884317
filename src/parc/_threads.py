"""The call-through that runs the depthwise tap loop, ``parc_spatial._correlate``.

The tap loop runs serially: numpy already vectorises it over batch, channel
block and the orthogonal axis, and threading it across channel slices was no
faster at any measured map.  The function stays only as a named target:
perfbench traces ``parc._threads.run_sliced`` on every workload and its
self-test reads ``parc_spatial.run_sliced``; ``tests/test_trace_targets.py``
checks that the target exists and fires.
"""

from __future__ import annotations


def run_sliced(work, *args) -> None:
    """Call work(*args) once, over all channels."""
    work(*args)
