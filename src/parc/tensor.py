"""Dense 4D tensors, 1D parameter interpolation, and the PARC1 fixture format.

Everything downstream operates on (batch, channel, height, width) arrays in
row-major order with the width index fastest.  ``Tensor4`` is a thin wrapper
that pins down dtype, contiguity, and flat-offset semantics so the operator
modules never have to re-check them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

DTYPE_NAMES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}
_NAMES_BY_DTYPE = {v: k for k, v in DTYPE_NAMES.items()}

FIXTURE_MAGIC = b"PARC1"


def dtype_from_name(name: str) -> np.dtype:
    """Map a precision name ("f32" or "f64") to its numpy dtype."""
    try:
        return DTYPE_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}; expected one of {sorted(DTYPE_NAMES)}")


def working_dtype(dtype) -> np.dtype:
    """The dtype that real values of dtype compute in: dtype itself when
    DTYPE_NAMES holds it (native float32 or float64), float64 for any other."""
    dt = np.dtype(dtype)
    return dt if dt in _NAMES_BY_DTYPE else DTYPE_NAMES["f64"]


@dataclass(frozen=True)
class Tensor4:
    """A (B, C, H, W) array of float32 or float64 scalars.

    The wrapped array is always C-contiguous, so element (b, c, i, j) sits at
    flat offset ((b*C + c)*H + i)*W + j.  Construction validates rank, dtype,
    and that every extent is at least 1.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray) or arr.ndim != 4:
            raise ValueError("Tensor4 wraps a rank-4 ndarray (batch, channel, height, width)")
        if arr.dtype not in _NAMES_BY_DTYPE:
            raise ValueError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        if min(arr.shape) < 1:
            raise ValueError(f"every extent must be >= 1, got shape {arr.shape}")
        if not arr.flags.c_contiguous:
            object.__setattr__(self, "data", np.ascontiguousarray(arr))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def dtype_name(self) -> str:
        return _NAMES_BY_DTYPE[self.data.dtype]

    @classmethod
    def zeros(cls, shape: tuple[int, int, int, int], dtype="f64") -> "Tensor4":
        dt = dtype_from_name(dtype) if isinstance(dtype, str) else np.dtype(dtype)
        return cls(np.zeros(shape, dtype=dt))

    @classmethod
    def from_array(cls, arr) -> "Tensor4":
        """Wrap array-like data in its ``working_dtype``, so integer input is
        promoted to float64; complex input raises ValueError rather than
        losing its imaginary part."""
        a = np.asarray(arr)
        if np.iscomplexobj(a):
            raise ValueError("Tensor4 holds real values, got complex input")
        return cls(np.ascontiguousarray(a, dtype=working_dtype(a.dtype)))

    def index(self, b: int, c: int, i: int, j: int) -> float:
        """Read one scalar with full range validation.

        Negative indices are rejected rather than wrapped; the operators own
        all wraparound semantics themselves.
        """
        for name, k, bound in zip("bcij", (b, c, i, j), self.shape):
            if not 0 <= k < bound:
                raise IndexError(f"index {name}={k} out of range [0, {bound})")
        return float(self.data[b, c, i, j])

    def flat(self) -> np.ndarray:
        """The underlying scalars as a 1D view in layout order."""
        return self.data.reshape(-1)


def finite_field(obj, name: str) -> np.ndarray:
    """Store field ``name`` of obj as a float64 array with only finite values.

    A float64 array is kept as is, not copied.  Frozen dataclasses are
    supported.  Raises ValueError naming the field on NaN or infinity.
    """
    arr = np.asarray(getattr(obj, name), dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    object.__setattr__(obj, name, arr)
    return arr


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer >= least: a Python int or
    a numpy integer, never a bool, as ``read_fixture`` reads shape entries."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# Linear resampling of 1D parameter vectors.
#
# A stored vector of length K is stretched to any runtime length N by
# sampling at positions p*(K-1)/(N-1) for p = 0..N-1 (endpoints align).
# ---------------------------------------------------------------------------


def _interp_taps(k: int, n: int):
    """Source indices and blend fractions for resampling length k -> n."""
    if n == 1:
        return np.array([0]), np.array([0]), np.array([0.0])
    # Multiply before dividing so position n-1 lands on k-1 exactly.
    pos = np.arange(n) * (k - 1) / (n - 1)
    i0 = np.minimum(pos.astype(np.int64), k - 2) if k > 1 else np.zeros(n, np.int64)
    i1 = np.minimum(i0 + 1, k - 1)
    frac = np.clip(pos - i0, 0.0, 1.0)
    return i0, i1, frac


def interp_linear(v: np.ndarray, n: int) -> np.ndarray:
    """Resample a 1D vector to length n by endpoint-aligned linear blending.

    Exactness contracts: n == len(v) returns an identical copy, a constant
    vector stays exactly constant (the blend is computed as
    v[i0] + frac * (v[i1] - v[i0]), whose second term is exactly zero), and
    a length-1 source broadcasts its single value.

    Args:
        v: source vector, shape (K,), K >= 1, of real values.
        n: target length, an integer >= 1; a bool or a float such as 2.5
            or 2.0 raises ValueError, as does a v that is not a non-empty
            vector or that is complex.

    Returns:
        Resampled vector of shape (n,) in ``working_dtype(v.dtype)``: float32
        and float64 stay as they are, any other dtype (integer, bool,
        float16) computes and returns in float64.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError("interp_linear expects a 1D vector with at least one entry")
    check_count("target length", n, 1)
    return interp_rows(v, n)


def interp_linear_adjoint(g: np.ndarray, k: int) -> np.ndarray:
    """Transpose of ``interp_linear``: scatter length-n cotangents back to k.

    Row m of the interpolation matrix M (n, k) holds (1 - frac_m) at i0 and
    frac_m at i1 (M is the identity when n == k).  The adjoint is the one
    product g @ M, so stacked rows are pulled back together and
    dot(interp_linear(v, n), g) == dot(v, interp_linear_adjoint(g, k)) up to
    roundoff for every v.

    Args:
        g: cotangents of resampled vectors, shape (n,) or stacked (..., n).
        k: source length the gradient is scattered back to, an integer
            >= 1; a bool or a float such as 2.0 raises ValueError.

    Returns:
        Accumulated gradient of shape (..., k), float64.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim < 1 or g.shape[-1] < 1:
        raise ValueError("interp_linear_adjoint expects cotangent rows of length >= 1")
    check_count("source length", k, 1)
    n = g.shape[-1]
    i0, i1, frac = _interp_taps(k, n)
    rows = np.arange(n)
    m = np.zeros((n, k), dtype=np.float64)
    np.add.at(m, (rows, i0), 1.0 - frac)
    np.add.at(m, (rows, i1), frac)
    return g @ m


def interp_rows(m: np.ndarray, n: int) -> np.ndarray:
    """``interp_linear`` along the last axis of a vector or stacked rows, in
    the rows' ``working_dtype``, returned C-contiguous."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError("interpolation takes real values, got complex input")
    m = m.astype(working_dtype(m.dtype), copy=False)
    k = m.shape[-1]
    if n == k:
        return m.copy()
    if k == 1:
        return np.broadcast_to(m, m.shape[:-1] + (n,)).copy()
    i0, i1, frac = _interp_taps(k, n)
    frac = frac.astype(m.dtype)
    lo = np.take(m, i0, axis=-1)
    return lo + frac * (np.take(m, i1, axis=-1) - lo)


# ---------------------------------------------------------------------------
# PARC1 fixture files: magic, little-endian u32 header length, JSON header,
# then raw little-endian scalars in layout order.
# ---------------------------------------------------------------------------


def write_fixture(path, t: Tensor4) -> None:
    """Serialize a tensor to the PARC1 container at ``path``."""
    header = json.dumps(
        {"dtype": t.dtype_name, "shape": list(t.shape)},
        separators=(",", ":"), sort_keys=True,
    ).encode("ascii")
    wire = t.dtype.newbyteorder("<")
    with open(path, "wb") as fh:
        fh.write(FIXTURE_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(t.data, dtype=wire).tobytes())


def read_fixture(path) -> Tensor4:
    """Load a PARC1 container, validating magic, header, and payload size.

    The header must be a JSON object with a known "dtype" name and a "shape"
    of four positive ints; any malformed file raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != FIXTURE_MAGIC:
        raise ValueError("not a PARC1 file (bad magic)")
    if len(blob) < 9:
        raise ValueError("truncated PARC1 file (missing header length)")
    (hlen,) = struct.unpack_from("<I", blob, 5)
    body = 9 + hlen
    if len(blob) < body:
        raise ValueError("truncated PARC1 file (header shorter than declared)")
    try:
        meta = json.loads(blob[9:body].decode("ascii"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed PARC1 header: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"malformed PARC1 header: expected an object, got {type(meta).__name__}")
    dtype_name = meta.get("dtype")
    shape = meta.get("shape")
    if not isinstance(dtype_name, str) or dtype_name not in DTYPE_NAMES:
        raise ValueError(f"malformed PARC1 header: unknown dtype {dtype_name!r}")
    if not (isinstance(shape, list) and len(shape) == 4
            and all(type(e) is int and e > 0 for e in shape)):
        raise ValueError(f"malformed PARC1 header: shape must be four positive ints, got {shape!r}")
    wire = DTYPE_NAMES[dtype_name].newbyteorder("<")
    count = math.prod(shape)
    payload = blob[body:]
    expect = count * wire.itemsize
    if len(payload) != expect:
        raise ValueError(f"PARC1 payload holds {len(payload)} bytes, header implies {expect}")
    arr = np.frombuffer(payload, dtype=wire, count=count).reshape(shape)
    return Tensor4(arr.astype(DTYPE_NAMES[dtype_name]))
