"""Print one sha256 per route output and per ParCGrads field.

Usage: python3 tools/route_digests.py ROOT
       python3 tools/route_digests.py OLD NEW
       python3 tools/route_digests.py ROOT --save DIR < NAMES

Imports the ``parc`` package from ROOT/src and runs every route over a fixed
grid of map shapes, precisions, orientations and modes, with inputs and
parameters drawn from fixed seeds, plus both zero-padded baselines, which
share the depthwise tap loop, and the two blocks that run ``parc_forward``.
Each output line names one result and the sha256 of its dtype, shape and
C-order bytes, so two trees compute bitwise-identical results exactly when
their outputs are equal.  Results are named by route: ``modulo`` is
``parc_forward``, ``concat`` is ``parc_forward_via_concat`` (the tap loop)
and ``freq`` is ``fast_parc_forward``; ``metaformer`` and ``convnet_mixer``
run ``parc_forward``; ``grad.*`` are the fields of ``parc_backward``.  The
sweeps outside the memory rule of ``parc_forward`` and ``parc_backward``,
which the digested tree's ``parc_spatial._circulant_fits`` decides, go to
stderr once per digest run, never from a ``--save`` run: on them
``parc_forward`` keeps the tap loop and ``parc_backward`` runs its adjoint
as tap loops; on every other sweep both run circulant matmuls.  CHANGES.md
records, for each change, which results moved against the tree before it
and by how much.

Every route runs twice on the same inputs and params, and the digest is the
first call's.  The second call is served from the params' plan caches, so a
cache hit that changes any bit is named on stderr and the exit status is 1.

With two roots, each tree is digested in its own interpreter by this file,
so both run the same grid.  Only the results whose digests differ, or that
one tree lacks, are printed, as ``name OLD-digest NEW-digest REL`` with
``-`` for a missing one.  REL is the largest difference relative to the
output's scale, max|new - old| / max(1, max|old|) in float64 as the route
tests measure it, or ``-`` when a tree lacks the result or the shapes
differ.  The arrays come from a second run of each tree, given ``--save
DIR`` and the differing names on stdin, which computes only the groups
holding them and writes the i-th name's result to DIR/<i>.npy.  A count
goes to stderr, then one line per route and precision with a differing
result: how many of its results differ and their largest REL.  The exit
status is 1 if any result differs or either tree fails its repeat check,
0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

# (B, C, H, W) maps; the fifth and sixth keep every extent small and odd, the
# sixth and seventh are thin in V and in H, the eighth's H sweep runs
# Bluestein-131 lines through the real table, and the ninth's H sweep pairs
# Bluestein-263 lines across its B = 2 batch items, orth being an odd 3
MAPS = ((2, 32, 50, 83), (1, 48, 28, 28), (8, 32, 64, 64), (1, 8, 224, 224),
        (2, 3, 7, 13), (2, 3, 1, 5), (1, 4, 64, 2), (2, 4, 131, 3), (2, 4, 263, 3))


def _digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def main(root: str, save: str | None = None) -> int:
    """Print every result's digest; 1 if any differs between two calls.
    Given save, read result names from stdin and write only those results,
    from one call each, to save/<i>.npy, i being the name's line on stdin."""
    sys.path.insert(0, os.path.join(root, "src"))
    from parc import (Tensor4, ZeroPadConvParams, conv1d_zeropad, dwconv2d_zeropad,
                      fast_parc_forward, metaformer_block_forward, parc_backward, parc_forward,
                      parc_forward_via_concat, random_params)
    from parc.blocks import convnet_mixer_forward, random_convnet_mixer, random_metaformer
    from parc.parc_spatial import _circulant_fits

    if not save:
        outside = [f"{b}x{c}x{h}x{w} {orientation}" for b, c, h, w in MAPS
                   for orientation, n, orth in (("H", h, w), ("V", w, h))
                   if not _circulant_fits(n, b * orth)]
        print(f"{root}: outside the memory rule: {', '.join(outside)}", file=sys.stderr)
    unstable = []
    wanted = {line.rstrip("\n"): i for i, line in enumerate(sys.stdin)} if save else {}

    def emit(label, produce):
        """Print the digest of each result of produce(), a dict name -> array,
        called twice on the same inputs and params: the second call, served
        from the params' caches, must give the first call's bytes.  Given
        save, only write the wanted results of one call."""
        if save:
            if any(name.startswith(f"{label} ") for name in wanted):
                for name, arr in produce().items():
                    i = wanted.get(f"{label} {name:18}")
                    if i is not None:
                        np.save(os.path.join(save, f"{i}.npy"), arr)
            return
        first, again = produce(), produce()
        for name, arr in first.items():
            digest = _digest(arr)
            print(f"{label} {name:18} {digest}")
            if _digest(again[name]) != digest:
                unstable.append(f"{label} {name}")

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
                    dy = Tensor4(rng.standard_normal((b, p.channels_out, h, w)).astype(dtype))
                    if mode == "depthwise":
                        conv = ZeroPadConvParams(rng.uniform(-1, 1, (c, 5)), pad=2,
                                                 orientation=orientation)

                    def produce():
                        out = {"modulo": parc_forward(x, p).data,
                               "concat": parc_forward_via_concat(x, p).data}
                        if mode == "depthwise":
                            out["freq"] = fast_parc_forward(x, p).data
                        g = parc_backward(x, p, dy)
                        for field in ("d_input", "d_kernel_n", "d_pe_n", "d_bias",
                                      "d_meta_kernel", "d_meta_pe"):
                            value = getattr(g, field)
                            out[f"grad.{field}"] = getattr(value, "data", value)
                        if mode == "depthwise":
                            out["conv1d"] = conv1d_zeropad(x, conv).data
                        return out

                    emit(f"{b}x{c}x{h}x{w} {precision} {orientation} {mode:9}", produce)
            rng = np.random.default_rng(seed)
            x = Tensor4(rng.standard_normal(shape).astype(dtype))
            convs = {f"dwconv2d.k{k}": ZeroPadConvParams(rng.uniform(-1, 1, (c, k, k)),
                                                         pad=(k - 1) // 2, orientation="2D")
                     for k in (3, 7)}
            emit(f"{b}x{c}x{h}x{w} {precision} 2D {'depthwise':9}",
                 lambda: {name: dwconv2d_zeropad(x, conv).data for name, conv in convs.items()})
            if c % 2 == 0:
                rng = np.random.default_rng(seed)
                block = random_metaformer(rng, c, hidden=2 * c, kernel_scale=0.5)
                x = Tensor4(rng.standard_normal(shape).astype(dtype))
                mixer = random_convnet_mixer(rng, c, kernel_scale=0.5)
                emit(f"{b}x{c}x{h}x{w} {precision} - {'-':9}",
                     lambda: {"metaformer": metaformer_block_forward(x, block).data,
                              "convnet_mixer": convnet_mixer_forward(x, mixer).data})
    for name in unstable:
        print(f"{name}: a second call on the same params differs from the first",
              file=sys.stderr)
    return 1 if unstable else 0

def _digests(root: str) -> tuple:
    """Result name -> digest, from this file run on root in a fresh
    interpreter, and whether every repeated call matched its first."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), root],
                          stdout=subprocess.PIPE, text=True)
    return dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines()), proc.returncode == 0


def _results(root: str, names: list, directory: str) -> list:
    """The named results of root, each an array or None where root lacks
    it, from this file run on root with --save in a fresh interpreter."""
    subprocess.run([sys.executable, os.path.abspath(__file__), root, "--save", directory],
                   input="".join(f"{name}\n" for name in names), stdout=subprocess.DEVNULL,
                   text=True)
    paths = [os.path.join(directory, f"{i}.npy") for i in range(len(names))]
    return [np.load(path) if os.path.exists(path) else None for path in paths]


def _relative(old, new) -> float | None:
    """max|new - old| / max(1, max|old|) in float64, the scale of the
    route-equivalence tests, or None if either is missing or their shapes
    differ."""
    if old is None or new is None or old.shape != new.shape:
        return None
    old, new = old.astype(np.float64), new.astype(np.float64)
    return float(np.abs(new - old).max() / max(1.0, np.abs(old).max()))


def _rel_text(rel: float | None) -> str:
    return "-" if rel is None else f"{rel:.2e}"


def compare(old: str, new: str) -> int:
    """Print the results on which the two trees differ, with their largest
    relative differences; 1 if any differ, or if either tree's repeated
    calls do not match its first."""
    (a, a_stable), (b, b_stable) = _digests(old), _digests(new)
    names = list(a) + [name for name in b if name not in a]
    differ = [name for name in names if a.get(name) != b.get(name)]
    moved = {}  # (route, precision) -> REL of each differing result
    if differ:
        with tempfile.TemporaryDirectory() as d_old, tempfile.TemporaryDirectory() as d_new:
            rel = list(map(_relative, _results(old, differ, d_old), _results(new, differ, d_new)))
        for name, r in zip(differ, rel):
            print(f"{name} {a.get(name, '-')} {b.get(name, '-')} {_rel_text(r)}")
            fields = name.split()  # BxCxHxW precision orientation mode result
            moved.setdefault((fields[-1], fields[1]), []).append(r)
    print(f"{len(differ)} of {len(names)} results differ", file=sys.stderr)
    for (route, precision), rels in moved.items():
        worst = max((r for r in rels if r is not None), default=None)
        print(f"{route} {precision}: {len(rels)} differ, largest REL {_rel_text(worst)}",
              file=sys.stderr)
    return 1 if differ or not (a_stable and b_stable) else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    elif len(sys.argv) == 4 and sys.argv[2] == "--save":
        sys.exit(main(sys.argv[1], save=sys.argv[3]))
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
