"""Print one sha256 per route output and per ParCGrads field.

Usage: python3 tools/route_digests.py ROOT
       python3 tools/route_digests.py OLD NEW

Imports the ``parc`` package from ROOT/src and runs every route over a fixed
grid of map shapes, precisions, orientations and modes, with inputs and
parameters drawn from fixed seeds, plus both zero-padded baselines, which
share the depthwise tap loop, and the two blocks that run ``parc_forward``.
Each output line names one result and the sha256 of its dtype, shape and
C-order bytes, so two trees compute bitwise-identical results exactly when
their outputs are equal.  Results are named by route: ``modulo`` is
``parc_forward`` (depthwise, a circulant matmul on every map here but the
thin 2x3x1x5 V sweep, which keeps the tap loop), ``concat`` is
``parc_forward_via_concat`` (the tap loop) and ``freq`` is
``fast_parc_forward``; ``metaformer`` and ``convnet_mixer`` run
``parc_forward``.  Against a tree whose ``parc_forward`` ran the tap loop on
every map, only depthwise ``modulo`` results on the matmul branch and block
results may differ, within roundoff (36 of 472; the one-tap 2x3x1x5 H sweep
rounds alike on both), and the thin 2x3x1x5 V results must not.

With two roots, each tree is digested in its own interpreter by this file,
so both run the same grid.  Only the results whose digests differ, or that
one tree lacks, are printed, as ``name OLD-digest NEW-digest`` with ``-``
for a missing one; a count goes to stderr and the exit status is 1 if any
result differs, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

# (B, C, H, W) maps; the last two keep every extent small and odd
MAPS = ((2, 32, 50, 83), (1, 48, 28, 28), (8, 32, 64, 64), (1, 8, 224, 224),
        (2, 3, 7, 13), (2, 3, 1, 5))


def _digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def main(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    from parc import (Tensor4, ZeroPadConvParams, conv1d_zeropad, dwconv2d_zeropad,
                      fast_parc_forward, metaformer_block_forward, parc_backward, parc_forward,
                      parc_forward_via_concat, random_params)
    from parc.blocks import convnet_mixer_forward, random_convnet_mixer, random_metaformer

    for seed, shape in enumerate(MAPS):
        b, c, h, w = shape
        for precision in ("f32", "f64"):
            dtype = np.float32 if precision == "f32" else np.float64
            for orientation in ("H", "V"):
                for mode in ("depthwise", "dense"):
                    rng = np.random.default_rng(seed)
                    n = h if orientation == "H" else w
                    p = random_params(rng, c, orientation=orientation, mode=mode,
                                      channels_out=c + 1, kernel_scale=1.0 / n)
                    x = Tensor4(rng.standard_normal(shape).astype(dtype))
                    routes = {"modulo": parc_forward, "concat": parc_forward_via_concat}
                    if mode == "depthwise":
                        routes["freq"] = fast_parc_forward
                    results = {name: route(x, p).data for name, route in routes.items()}
                    dy = rng.standard_normal((b, p.channels_out, h, w)).astype(dtype)
                    g = parc_backward(x, p, Tensor4(dy))
                    for field in ("d_input", "d_kernel_n", "d_pe_n", "d_bias",
                                  "d_meta_kernel", "d_meta_pe"):
                        value = getattr(g, field)
                        results[f"grad.{field}"] = getattr(value, "data", value)
                    if mode == "depthwise":
                        taps = rng.uniform(-1, 1, (c, 5))
                        conv = ZeroPadConvParams(taps, pad=2, orientation=orientation)
                        results["conv1d"] = conv1d_zeropad(x, conv).data
                    for name, arr in results.items():
                        print(f"{b}x{c}x{h}x{w} {precision} {orientation} {mode:9} {name:18} "
                              f"{_digest(arr)}")
            rng = np.random.default_rng(seed)
            x = Tensor4(rng.standard_normal(shape).astype(dtype))
            for k in (3, 7):
                conv = ZeroPadConvParams(rng.uniform(-1, 1, (c, k, k)), pad=(k - 1) // 2,
                                         orientation="2D")
                print(f"{b}x{c}x{h}x{w} {precision} 2D {'depthwise':9} {f'dwconv2d.k{k}':18} "
                      f"{_digest(dwconv2d_zeropad(x, conv).data)}")
            if c % 2 == 0:
                rng = np.random.default_rng(seed)
                block = random_metaformer(rng, c, hidden=2 * c, kernel_scale=0.5)
                x = Tensor4(rng.standard_normal(shape).astype(dtype))
                mixer = random_convnet_mixer(rng, c, kernel_scale=0.5)
                for name, out in (("metaformer", metaformer_block_forward(x, block)),
                                  ("convnet_mixer", convnet_mixer_forward(x, mixer))):
                    print(f"{b}x{c}x{h}x{w} {precision} - {'-':9} {name:18} "
                          f"{_digest(out.data)}")


def _digests(root: str) -> dict:
    """Result name -> digest, from this file run on root in a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), root],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(line.rsplit(" ", 1) for line in out.splitlines())


def compare(old: str, new: str) -> int:
    """Print the results on which the two trees differ; 1 if any do."""
    a, b = _digests(old), _digests(new)
    names = list(a) + [name for name in b if name not in a]
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(f"{name} {a.get(name, '-')} {b.get(name, '-')}")
    print(f"{len(differ)} of {len(names)} results differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
