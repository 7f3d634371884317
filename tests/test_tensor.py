"""Layout, interpolation, fixture-format and parameter-field contracts."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parc.blocks import random_channel_attention, random_metaformer
from parc.conv_baseline import ZeroPadConvParams
from parc.parc_spatial import ParCParams, random_params
from parc.tensor import (
    Tensor4,
    interp_linear,
    interp_linear_adjoint,
    interp_rows,
    read_fixture,
    write_fixture,
)


class TestLayout:
    def test_offset_formula_example(self):
        t = Tensor4(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
        # ((0*2+1)*2+1)*2+0 = 6
        assert t.index(0, 1, 1, 0) == 6.0

    def test_width_fastest(self):
        t = Tensor4(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
        assert t.index(0, 0, 0, 1) == 1.0

    def test_zero_tensor_any_index(self):
        t = Tensor4.zeros((2, 1, 3, 2))
        assert t.index(1, 0, 2, 1) == 0.0

    def test_round_trip_all_indices(self):
        b, c, h, w = 2, 3, 5, 7
        rng = np.random.default_rng(11)
        t = Tensor4(rng.standard_normal((b, c, h, w)))
        flat = t.flat()
        for bi in range(b):
            for ci in range(c):
                for i in range(h):
                    for j in range(w):
                        offset = ((bi * c + ci) * h + i) * w + j
                        assert t.index(bi, ci, i, j) == flat[offset]

    @pytest.mark.parametrize("idx", [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 3, 0),
                                     (0, 0, 0, 2), (2, 0, 0, 0)])
    def test_out_of_range_rejected(self, idx):
        t = Tensor4.zeros((2, 2, 3, 2))
        with pytest.raises(IndexError):
            t.index(*idx)

    def test_rank_and_dtype_validation(self):
        with pytest.raises(ValueError):
            Tensor4(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            Tensor4(np.zeros((1, 1, 1, 1), dtype=np.int32))
        with pytest.raises(ValueError):
            Tensor4(np.zeros((1, 0, 1, 1)))

    def test_from_array_promotes_ints(self):
        t = Tensor4.from_array([[[[1, 2]]]])
        assert t.dtype == np.float64

    def test_from_array_rejects_complex(self):
        with pytest.raises(ValueError, match="complex"):
            Tensor4.from_array(np.ones((1, 1, 1, 2)) * (1 + 2j))

    def test_noncontiguous_input_is_compacted(self):
        base = np.zeros((2, 2, 4, 4))
        t = Tensor4(base[:, :, ::2, :])
        assert t.data.flags.c_contiguous


class TestInterp:
    def test_identity_when_lengths_match(self):
        v = np.array([1.0, 2.0, 3.0])
        out = interp_linear(v, 3)
        assert out is not v
        assert (out == v).all()

    def test_midpoint(self):
        assert np.array_equal(interp_linear(np.array([1.0, 3.0]), 3), [1.0, 2.0, 3.0])

    def test_uniform_ramp(self):
        assert np.array_equal(interp_linear(np.array([0.0, 4.0]), 5), [0, 1, 2, 3, 4])

    def test_target_one_takes_first(self):
        assert interp_linear(np.array([7.0, 9.0, 11.0]), 1).tolist() == [7.0]

    def test_single_source_broadcasts(self):
        assert interp_linear(np.array([2.5]), 4).tolist() == [2.5] * 4

    def test_endpoints_align(self):
        v = np.array([0.3, -1.7, 2.9, 0.1])
        for n in (2, 3, 7, 223):
            out = interp_linear(v, n)
            assert out[0] == v[0]
            assert abs(out[-1] - v[-1]) < 1e-12

    @given(st.floats(-1e6, 1e6), st.integers(1, 20), st.integers(1, 200))
    def test_constant_preserved_exactly(self, value, k, n):
        out = interp_linear(np.full(k, value), n)
        assert (out == value).all()

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    @example(1, 9, 0)
    @example(7, 7, 0)
    @settings(max_examples=60)
    def test_adjoint_dot_identity(self, k, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(k)
        g = rng.standard_normal(n)
        lhs = float(interp_linear(v, n) @ g)
        rhs = float(v @ interp_linear_adjoint(g, k))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # stacked rows pull back together, each as its own call would
        rows = rng.standard_normal((3, 2, n))
        stacked = interp_linear_adjoint(rows, k)
        assert stacked.shape == (3, 2, k) and stacked.dtype == np.float64
        one_by_one = np.array([[interp_linear_adjoint(r, k) for r in pair] for pair in rows])
        assert np.abs(stacked - one_by_one).max() <= 1e-12 * max(1.0, np.abs(one_by_one).max())
        if n == k:
            assert np.array_equal(stacked, rows)

    def test_adjoint_examples(self):
        assert interp_linear_adjoint(np.array([1.0, 2.0, 3.0]), 3).tolist() == [1, 2, 3]
        assert interp_linear_adjoint(np.ones(3), 2).tolist() == [1.5, 1.5]
        assert interp_linear_adjoint(np.zeros(5), 2).tolist() == [0.0, 0.0]

    def test_rows_match_vector_version(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6))
        out = interp_rows(m, 11)
        assert out.flags.c_contiguous
        for r in range(4):
            assert np.array_equal(out[r], interp_linear(m[r], 11))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.bool_, np.float16,
                                       np.float32, np.float64])
    def test_computes_in_the_working_dtype(self, dtype):
        # float32 and float64 are kept; anything else is promoted to float64
        want_dtype = np.float32 if dtype == np.float32 else np.float64
        v = np.array([0, 1]).astype(dtype)
        for n, want in ((3, [0.0, 0.5, 1.0]), (2, [0.0, 1.0]), (1, [0.0])):
            out = interp_linear(v, n)
            assert (out.dtype, out.tolist()) == (want_dtype, want)
        rows = np.array([[0, 1], [1, 1]]).astype(dtype)
        assert interp_rows(rows, 5).tolist() == [[0, 0.25, 0.5, 0.75, 1], [1] * 5]
        single = interp_rows(np.array([[1]]).astype(dtype), 3)
        assert (single.dtype, single.tolist()) == (want_dtype, [[1.0] * 3])

    def test_integer_ramp_is_not_truncated(self):
        assert interp_linear(np.array([0, 10]), 3).tolist() == [0.0, 5.0, 10.0]

    def test_complex_input_raises(self):
        with pytest.raises(ValueError, match="real values"):
            interp_linear(np.array([0.0, 1j]), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            interp_linear(np.zeros((2, 2)), 3)
        with pytest.raises(ValueError):
            interp_linear(np.zeros(3), 0)
        with pytest.raises(ValueError):
            interp_linear_adjoint(np.zeros(3), 0)
        with pytest.raises(ValueError):
            interp_linear_adjoint(np.float64(1.0), 2)
        for length in (2.5, 2.0, "3", None, True, np.True_):
            with pytest.raises(ValueError, match="must be an integer"):
                interp_linear(np.ones(3), length)
            with pytest.raises(ValueError, match="must be an integer"):
                interp_linear_adjoint(np.ones(3), length)
        assert interp_linear(np.array([0.0, 4.0]), np.int64(5)).tolist() == [0, 1, 2, 3, 4]
        assert interp_linear_adjoint(np.ones(3), np.int32(2)).tolist() == [1.5, 1.5]


class TestFixtureFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        for dtype in ("f32", "f64"):
            t = Tensor4(rng.standard_normal((2, 3, 4, 5))
                        .astype(np.float32 if dtype == "f32" else np.float64))
            path = tmp_path / f"t_{dtype}.parc1"
            write_fixture(path, t)
            back = read_fixture(path)
            assert back.dtype_name == dtype
            assert np.array_equal(back.data, t.data)

    def test_wire_layout(self, tmp_path):
        t = Tensor4(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 4, 1))
        path = tmp_path / "t.parc1"
        write_fixture(path, t)
        blob = path.read_bytes()
        assert blob[:5] == b"PARC1"
        (hlen,) = struct.unpack_from("<I", blob, 5)
        header = json.loads(blob[9:9 + hlen])
        assert header == {"dtype": "f32", "shape": [1, 1, 4, 1]}
        payload = blob[9 + hlen:]
        assert len(payload) == 4 * 4
        assert np.frombuffer(payload, dtype="<f4").tolist() == [1, 2, 3, 4]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.parc1"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_fixture(path)

    def test_truncated_payload(self, tmp_path):
        t = Tensor4.zeros((1, 1, 2, 2))
        path = tmp_path / "t.parc1"
        write_fixture(path, t)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="payload"):
            read_fixture(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.parc1"
        path.write_bytes(b"PARC1" + struct.pack("<I", 100) + b"{}")
        with pytest.raises(ValueError, match="header"):
            read_fixture(path)


def _raw_fixture(header: bytes, payload: bytes) -> bytes:
    return b"PARC1" + struct.pack("<I", len(header)) + header + payload


class TestMalformedFixtures:
    @pytest.mark.parametrize("header, payload", [
        (b'{"shape":[1,1,1,1]}', bytes(8)),
        (b'{"dtype":"f64"}', bytes(8)),
        (b'[1,2,3]', bytes(8)),
        (b'"f64"', bytes(8)),
        (b'{"dtype":"f64","shape":"1111"}', bytes(8)),
        (b'{"dtype":"f64","shape":[1099511627776,1099511627776,1099511627776,1]}', b""),
        (b'{"dtype":"f32","shape":[1,1,-1,1]}', b""),
        (b'{"dtype":"f32","shape":[1,1,0,1]}', b""),
        (b'{"dtype":"f32","shape":[1,1,1.0,1]}', bytes(4)),
        (b'{"dtype":"f32","shape":[1,1,true,1]}', bytes(4)),
        (b'{"dtype":"f32","shape":[1,1,1]}', bytes(4)),
        (b'{"dtype":"f16","shape":[1,1,1,1]}', bytes(2)),
        (b'{"dtype":["f32"],"shape":[1,1,1,1]}', bytes(4)),
        (b'{"dtype":"f32",', bytes(4)),
        (b'{"dtype":"\xff"}', bytes(4)),
        (b"\xff\xfe", bytes(4)),
        (b"[" * 100000 + b"]" * 100000, b""),
    ], ids=["no-dtype", "no-shape", "list-header", "string-header", "string-shape",
            "overflowing-shape", "negative-extent", "zero-extent", "float-extent",
            "bool-extent", "rank-3-shape", "unknown-dtype", "list-dtype", "truncated-json",
            "non-ascii-dtype", "non-ascii-header", "deep-nesting"])
    def test_rejected_with_value_error(self, tmp_path, header, payload):
        path = tmp_path / "bad.parc1"
        path.write_bytes(_raw_fixture(header, payload))
        with pytest.raises(ValueError, match="PARC1"):
            read_fixture(path)

    @given(
        st.one_of(
            st.recursive(
                st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats(allow_nan=False) | st.text(max_size=4),
                lambda inner: st.lists(inner, max_size=5)
                | st.dictionaries(st.sampled_from(["dtype", "shape", "x"]), inner, max_size=3),
                max_leaves=12,
            ),
            st.fixed_dictionaries({
                "dtype": st.sampled_from(["f32", "f64", "f16", ""]),
                "shape": st.lists(st.integers(-3, 2**45), min_size=3, max_size=5),
            }),
            st.just(None).map(lambda _: "valid"),
        ),
        st.binary(max_size=64),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
        st.one_of(st.none(), st.integers(0, 200)),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_headers_and_payloads(self, tmp_path_factory, meta, payload, flips, keep):
        """Corrupted files raise ValueError; anything accepted is a Tensor4."""
        path = tmp_path_factory.getbasetemp() / "fuzz.parc1"
        if meta == "valid":
            write_fixture(path, Tensor4(np.arange(6.0).reshape(1, 2, 3, 1)))
            blob = bytearray(path.read_bytes())
        else:
            blob = bytearray(_raw_fixture(json.dumps(meta).encode("ascii"), payload))
        for pos, byte in flips:
            blob[pos % len(blob)] = byte
        path.write_bytes(bytes(blob[:keep]))
        try:
            t = read_fixture(path)
        except ValueError:
            return
        assert isinstance(t, Tensor4)


def valid_containers():
    rng = np.random.default_rng(40)
    return {
        "ParCParams": random_params(rng, 2),
        "ChannelAttentionParams": random_channel_attention(rng, 4),
        "ZeroPadConvParams": ZeroPadConvParams(rng.uniform(-1, 1, (2, 3)), pad=1),
        "MetaFormerBlockParams": random_metaformer(rng, 4),
    }


FIELDS = {
    "ParCParams": ("meta_kernel", "meta_pe", "bias"),
    "ChannelAttentionParams": ("w1", "b1", "w2", "b2"),
    "ZeroPadConvParams": ("kernel",),
    "MetaFormerBlockParams": ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"),
}
CHECKED_FIELDS = [(container, name) for container, names in FIELDS.items() for name in names]


class TestFiniteFields:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("container,name", CHECKED_FIELDS)
    def test_non_finite_value_rejected(self, container, name, bad):
        valid = valid_containers()[container]
        arr = np.array(getattr(valid, name), dtype=np.float64)
        arr.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            dataclasses.replace(valid, **{name: arr})

    @pytest.mark.parametrize("container,name", CHECKED_FIELDS)
    def test_fields_stored_as_float64(self, container, name):
        valid = valid_containers()[container]
        as_lists = dataclasses.replace(valid, **{name: getattr(valid, name).tolist()})
        got = getattr(as_lists, name)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert np.array_equal(got, getattr(valid, name))

    def test_float64_parc_arrays_are_kept_not_copied(self):
        mk, pe, b = np.ones((2, 5)), np.zeros((2, 5)), np.zeros(2)
        p = ParCParams("depthwise", "H", mk, pe, b)
        assert p.meta_kernel is mk and p.meta_pe is pe and p.bias is b
