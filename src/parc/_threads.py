"""The call-through that runs the depthwise tap loop, ``parc_spatial._circular_correlate``.

The tap loop runs serially: each row chunk of a channel block is one
``np.matmul`` of BLAS matrix-vector products, and with two OpenBLAS threads
on a 2-vCPU host the process's CPU time over wall time read 1.00 while the
loop ran at every benchmark map, so BLAS runs each product on one thread.
Threading the loop across channel slices was no faster in perfbench (ROADMAP
item 9).  The function stays only as a named target: perfbench traces
``parc._threads.run_sliced`` on every workload and its self-test reads
``parc_spatial.run_sliced``; ``tests/test_trace_targets.py`` checks that the
target exists and fires.
"""

from __future__ import annotations


def run_sliced(work, *args) -> None:
    """Call work(*args) once, over all channels."""
    work(*args)
