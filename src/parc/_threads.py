"""The call-through that runs the depthwise tap loop, ``parc_spatial._circular_correlate``.

The tap loop runs serially: each channel block is one ``np.matmul`` whose
BLAS matrix-vector products are below OpenBLAS's threading threshold at every
benchmark map, and threading the loop across channel slices was no faster at
any measured map.  The function stays only as a named target:
perfbench traces ``parc._threads.run_sliced`` on every workload and its
self-test reads ``parc_spatial.run_sliced``; ``tests/test_trace_targets.py``
checks that the target exists and fires.
"""

from __future__ import annotations


def run_sliced(work, *args) -> None:
    """Call work(*args) once, over all channels."""
    work(*args)
