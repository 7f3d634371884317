"""Worker-count resolution and channel-axis slicing for the depthwise tap
loop, ``parc_spatial._accumulate``, its one user."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count(parallel: bool) -> int:
    """Workers to use: 1 unless parallel, then PARC_THREADS or the CPU count."""
    if not parallel:
        return 1
    raw = os.environ.get("PARC_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"PARC_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError(f"PARC_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def run_sliced(work, channels: int, parallel: bool) -> None:
    """Invoke work(channel_slice) once per slice, threading when asked to.

    Each slice touches disjoint channels, so scheduling order cannot change
    results; per-slice arithmetic stays sequential.
    """
    workers = min(thread_count(parallel), channels)
    bounds = [round(i * channels / workers) for i in range(workers + 1)]
    slices = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(slices) == 1:
        work(slices[0])
        return
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        for _ in pool.map(work, slices):
            pass
