"""Per-layer spans for the traced benchmark run.

The tracer wraps each module's boundary functions from outside the library.
A wrapper replaces the function under every name it is looked up by: on its
own module and on every ``parc`` module that imported it by name (for
example ``fast_parc`` imports ``_offset_input`` and ``run_sliced``), or on
its class for methods.  ``_fft_rec`` calls itself through the module global,
so patching that global also counts the recursive frames.

A span records its name, its request, the swept length for sized spans, its
duration and its self time (duration minus the child spans inside it).
Spans stay in memory until the run ends.  Patches are installed only while
traced requests run, so untraced requests and output checks pay nothing.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import parc  # noqa: F401  (loads every parc module the scan below patches)

ALL = ("pyramid224", "pow2_b8", "train_det")

# (span, module, attribute, kind, workloads on which it must fire).
# kind "span" times the call; "sized" also keys it by the swept length;
# "count" only counts calls (the recursive _fft_rec has too many frames to
# time); "transparent" times the call but leaves its time in its parent's
# self time, so run_sliced does not hide the tap loop or the FFT loop.
SPANS = (
    ("tensor.interp_rows", "parc.tensor", "interp_rows", "span", ("train_det",)),
    ("tensor.interp_adjoint", "parc.tensor", "interp_linear_adjoint", "span", ("train_det",)),
    ("parc_spatial.resolve", "parc.parc_spatial", "ParCParams.resolved", "span", ALL),
    ("parc_spatial.offset", "parc.parc_spatial", "_offset_input", "span", ALL),
    ("parc_spatial.taps", "parc.parc_spatial", "_accumulate", "span", ALL),
    ("parc_spatial.backward", "parc.parc_spatial", "parc_backward", "span", ("train_det",)),
    ("parc_spatial.fwd", "parc.parc_spatial", "parc_forward_via_concat", "sized", ALL),
    ("parc_spatial.fwd_modulo", "parc.parc_spatial", "parc_forward", "span", ALL),
    ("fast_parc.plan", "parc.fast_parc", "get_plan", "span", ALL),
    ("fast_parc.plan_build", "parc.fast_parc", "FftPlan.__init__", "count", ()),
    ("fast_parc.spectrum", "parc.fast_parc", "weight_spectrum", "span", ALL),
    ("fast_parc.rfft", "parc.fast_parc", "_rfft_lines", "span", ALL),
    ("fast_parc.irfft", "parc.fast_parc", "_irfft_lines", "span", ALL),
    ("fast_parc.fft_array", "parc.fast_parc", "_fft_array", "span", ALL),
    ("fast_parc.fft_rec", "parc.fast_parc", "_fft_rec", "count", ALL),
    ("fast_parc.fwd", "parc.fast_parc", "fast_parc_forward", "sized", ALL),
    ("threads.run_sliced", "parc._threads", "run_sliced", "transparent", ALL),
    ("blocks.block", "parc.blocks", "metaformer_block_forward", "span", ALL),
    ("blocks.token_mixer", "parc.blocks", "_token_mixer", "span", ALL),
    ("blocks.channel_attention", "parc.blocks", "channel_attention", "span", ALL),
    ("conv_baseline.dw7", "parc.conv_baseline", "dwconv2d_zeropad", "sized", ("pyramid224",)),
)

SIZES = (28, 56, 112, 224, 32, 64, 50, 83)
DRIFT_SIZES = (28, 56, 112, 224)

# Every per-layer metric with its unit, in report order.
UNITS = {
    "tensor.interp_rows.calls": "count",
    "tensor.interp_rows.ms": "ms",
    "tensor.interp_adjoint.ms": "ms",
    "parc_spatial.resolve.calls": "count",
    "parc_spatial.resolve.hit_ratio": "ratio",
    "parc_spatial.resolve.ms": "ms",
    "parc_spatial.backward.ms": "ms",
    "parc_spatial.offset.ms": "ms",
    "parc_spatial.taps.ms": "ms",
    **{f"parc_spatial.fwd.n{n}.ms": "ms" for n in SIZES},
    "fast_parc.plan.builds": "count",
    "fast_parc.plan.ms": "ms",
    "fast_parc.spectrum.calls": "count",
    "fast_parc.spectrum.miss_ratio": "ratio",
    "fast_parc.spectrum.ms": "ms",
    "fast_parc.rfft.ms": "ms",
    "fast_parc.irfft.ms": "ms",
    "fast_parc.fft_array.calls": "count",
    "fast_parc.fft_array.ms": "ms",
    "fast_parc.fft_rec.calls": "count",
    "fast_parc.self.ms": "ms",
    **{f"fast_parc.fwd.n{n}.ms": "ms" for n in SIZES},
    "threads.run_sliced.ms": "ms",
    "threads.speedup.spatial": "x",
    "threads.speedup.freq": "x",
    "blocks.token_mixer.ms": "ms",
    "blocks.channel_attention.ms": "ms",
    "blocks.mlp.ms": "ms",
    **{f"conv_baseline.dw7.n{n}.ms": "ms" for n in DRIFT_SIZES},
    "flops.spatial.mul_per_ns": "mul/ns",
    "flops.freq.mul_per_ns": "mul/ns",
    "trace.overhead_frac": "ratio",
}


def _swept_length(args) -> int:
    x, p = args[0], args[1]
    return x.shape[3] if getattr(p, "orientation", None) == "V" else x.shape[2]


class Tracer:
    """Spans and counts for one traced run.

    ``request`` is (round, kind) while a traced request runs, or ("setup",
    None) during set-up; every span and count is filed under it.
    """

    def __init__(self):
        self.spans = []  # (request, name, size, seconds, self_seconds, child names)
        self.counts = Counter()  # (round, name) -> calls
        self.request = ("setup", None)
        self.missing = []  # targets the library no longer has
        self._stack = []  # [name, transparent, child_seconds, child names]
        self._patches = []
        for name, module, attr, kind, _ in SPANS:
            self._plan(name, module, attr, kind)

    def _plan(self, name, module, attr, kind):
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(method) if owner is not None else None
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self._counter(name, orig) if kind == "count" else self._timer(name, orig, kind)
        if owner_name:
            self._patches.append((owner, method, orig, wrapper))
            return
        for mname, m in list(sys.modules.items()):
            if mname == "parc" or mname.startswith("parc."):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig, wrapper))

    def _counter(self, name, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[(self.request[0], name)] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _timer(self, name, orig, kind):
        stack, spans = self._stack, self.spans
        transparent = kind == "transparent"
        sized = kind == "sized"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            size = _swept_length(args) if sized else None
            frame = [name, transparent, 0.0, set()]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if not transparent:
                    for parent in reversed(stack):
                        if not parent[1]:
                            parent[2] += dur
                            parent[3].add(name)
                            break
                spans.append((self.request, name, size, dur, dur - frame[2], frame[3]))

        return wrapper

    @contextmanager
    def active(self):
        """Install every patch for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)
            self.request = ("setup", None)

    # -- reduction ---------------------------------------------------------

    def _by_round(self):
        rounds = defaultdict(list)
        for span in self.spans:
            if span[0][0] != "setup":
                rounds[span[0][0]].append(span)
        return rounds

    def self_check(self, workload: str, sizes: set) -> list:
        """Messages for each declared span that did not fire when it should.

        sizes holds the workload's swept lengths; a sized span must fire at
        each of them.
        """
        bad = [f"trace target {t} not found" for t in self.missing]
        fired = {(s[1], s[2]) for s in self.spans if s[0][0] != "setup"}
        fired |= {(name, None) for (rnd, name) in self.counts if rnd != "setup"}
        names = {name for name, _ in fired}
        for name, _, _, kind, where in SPANS:
            if workload not in where:
                continue
            if kind != "sized":
                if name not in names:
                    bad.append(f"span {name} never fired on {workload}")
                continue
            for n in sorted(sizes):
                if (name, n) not in fired:
                    bad.append(f"span {name} never fired at n={n} on {workload}")
        if not self.counts[("setup", "fast_parc.plan_build")]:
            bad.append(f"span fast_parc.plan_build never fired during {workload} set-up")
        return bad

    def layer_metrics(self) -> dict:
        """Per-round medians over the traced rounds; plan metrics from set-up."""
        rounds = self._by_round()
        ids = sorted(rounds)

        def med(fn):
            return statistics.median(fn(rounds[r]) for r in ids)

        def total(name, field=3, size=None):
            return lambda spans: sum(s[field] for s in spans
                                     if s[1] == name and (size is None or s[2] == size)) * 1e3

        def calls(name):
            return lambda spans: sum(1 for s in spans if s[1] == name)

        def share(name, child, want):
            def fn(spans):
                own = [s for s in spans if s[1] == name]
                return sum((child in s[5]) == want for s in own) / max(len(own), 1)
            return fn

        def counted(name):
            return statistics.median(self.counts[(r, name)] for r in ids)

        setup_plan = [s for s in self.spans if s[0][0] == "setup" and s[1] == "fast_parc.plan"]
        return {
            "tensor.interp_rows.calls": med(calls("tensor.interp_rows")),
            "tensor.interp_rows.ms": med(total("tensor.interp_rows")),
            "tensor.interp_adjoint.ms": med(total("tensor.interp_adjoint")),
            "parc_spatial.resolve.calls": med(calls("parc_spatial.resolve")),
            "parc_spatial.resolve.hit_ratio":
                med(share("parc_spatial.resolve", "tensor.interp_rows", False)),
            "parc_spatial.resolve.ms": med(total("parc_spatial.resolve")),
            "parc_spatial.backward.ms": med(total("parc_spatial.backward")),
            "parc_spatial.offset.ms": med(total("parc_spatial.offset", field=4)),
            "parc_spatial.taps.ms": med(total("parc_spatial.taps", field=4)),
            **{f"parc_spatial.fwd.n{n}.ms": med(total("parc_spatial.fwd", size=n))
               for n in SIZES},
            "fast_parc.plan.builds": self.counts[("setup", "fast_parc.plan_build")],
            "fast_parc.plan.ms": sum(s[3] for s in setup_plan) * 1e3,
            "fast_parc.spectrum.calls": med(calls("fast_parc.spectrum")),
            "fast_parc.spectrum.miss_ratio":
                med(share("fast_parc.spectrum", "fast_parc.rfft", True)),
            "fast_parc.spectrum.ms": med(total("fast_parc.spectrum")),
            "fast_parc.rfft.ms": med(total("fast_parc.rfft")),
            "fast_parc.irfft.ms": med(total("fast_parc.irfft")),
            "fast_parc.fft_array.calls": med(calls("fast_parc.fft_array")),
            "fast_parc.fft_array.ms": med(total("fast_parc.fft_array")),
            "fast_parc.fft_rec.calls": counted("fast_parc.fft_rec"),
            "fast_parc.self.ms": med(total("fast_parc.fwd", field=4)),
            **{f"fast_parc.fwd.n{n}.ms": med(total("fast_parc.fwd", size=n)) for n in SIZES},
            "threads.run_sliced.ms": med(total("threads.run_sliced")),
            "blocks.token_mixer.ms": med(total("blocks.token_mixer")),
            "blocks.channel_attention.ms": med(total("blocks.channel_attention")),
            "blocks.mlp.ms": med(total("blocks.block", field=4)),
            **{f"conv_baseline.dw7.n{n}.ms": med(total("conv_baseline.dw7", size=n))
               for n in DRIFT_SIZES},
        }
