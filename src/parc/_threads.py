"""Channel-axis slicing for the depthwise tap loop, ``parc_spatial._accumulate``,
its one user."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def run_sliced(work, channels: int, parallel: bool) -> None:
    """Invoke work(channel_slice) once per slice, threading when asked to.

    Serially there is one slice.  With parallel, there is one slice per
    worker: PARC_THREADS workers (an integer >= 1, else ValueError), or the
    CPU count when it is unset, capped at the channel count.  Each slice
    touches disjoint channels, so scheduling order cannot change results;
    per-slice arithmetic stays sequential.
    """
    workers = 1
    if parallel:
        raw = os.environ.get("PARC_THREADS", "").strip()
        try:
            workers = int(raw) if raw else os.cpu_count() or 1
        except ValueError:
            raise ValueError(f"PARC_THREADS must be an integer, got {raw!r}")
        if workers < 1:
            raise ValueError(f"PARC_THREADS must be >= 1, got {workers}")
    workers = min(workers, channels)
    bounds = [round(i * channels / workers) for i in range(workers + 1)]
    slices = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(slices) == 1:
        work(slices[0])
        return
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        for _ in pool.map(work, slices):
            pass
