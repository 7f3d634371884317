"""Multiplication-count formulas and the complexity-curve export."""

import io

import numpy as np
import pytest

from parc.flops import (
    ceil_log2,
    complexity_curve,
    flops_conv2d_dense,
    flops_dwconv2d,
    flops_fast_parc,
    flops_parc,
    flops_self_attention_order,
    format_mega,
    op_mul_count,
    write_curves_csv,
)

# hand-computed and frozen before the formulas were written:
# dw: 96·n²·K², parc: 96·n³, fast: 96·(4n²L + 2nL + 4n²) with L = ceil(log2 n)
REFERENCE_COUNTS = {
    ("dw3", 96, 28): 677_376,
    ("dw3", 96, 56): 2_709_504,
    ("dw3", 96, 112): 10_838_016,
    ("dw3", 96, 224): 43_352_064,
    ("dw7", 96, 28): 3_687_936,
    ("dw7", 96, 56): 14_751_744,
    ("dw7", 96, 112): 59_006_976,
    ("dw7", 96, 224): 236_027_904,
    ("parc", 96, 28): 2_107_392,
    ("parc", 96, 56): 16_859_136,
    ("parc", 96, 112): 134_873_088,
    ("parc", 96, 224): 1_078_984_704,
    ("fastparc", 96, 28): 1_833_216,
    ("fastparc", 96, 56): 8_494_080,
    ("fastparc", 96, 112): 38_685_696,
    ("fastparc", 96, 224): 173_752_320,
}


class TestFrozenCounts:
    @pytest.mark.parametrize("key,want", sorted(REFERENCE_COUNTS.items()))
    def test_reference_value(self, key, want):
        op, c, n = key
        assert op_mul_count(op, c, n) == want

    def test_dw_is_chw_k_squared(self):
        assert flops_dwconv2d(3, 4, 5, 1, 1) == 3 * 4 * 5
        assert flops_dwconv2d(2, 4, 4, 3, 3) == 2 * 4 * 4 * 9

    def test_dense_conv(self):
        assert flops_conv2d_dense(2, 3, 4, 4, 1, 1) == 96
        assert flops_conv2d_dense(1, 1, 5, 6, 3, 3) == flops_dwconv2d(1, 5, 6, 3, 3)

    def test_parc_is_half_chw_times_perimeter(self):
        assert flops_parc(2, 4, 6) == 2 * 4 * 6 * (4 + 6) // 2

    @pytest.mark.parametrize("n", [28, 56, 112, 224])
    def test_circ_is_charged_the_tap_loops_count(self, n):
        # the circulant matmul does the tap loop's multiplications, in another order
        assert op_mul_count("circ", 96, n) == op_mul_count("parc", 96, n) == \
            REFERENCE_COUNTS[("parc", 96, n)]

    def test_fast_parc_formula(self):
        c, h, w = 4, 8, 8
        l = 3
        want = 2 * c * h * w * (l + l) + c * h * l + c * w * l + 4 * c * h * w
        assert flops_fast_parc(c, h, w) == want


class TestGuards:
    def test_parc_requires_even_channels(self):
        with pytest.raises(ValueError, match="even"):
            flops_parc(7, 4, 4)
        with pytest.raises(ValueError, match="even"):
            op_mul_count("parc", 7, 4)
        with pytest.raises(ValueError, match="even"):
            op_mul_count("circ", 7, 4)

    def test_positive_dims(self):
        with pytest.raises(ValueError, match=">= 1"):
            flops_dwconv2d(0, 4, 4, 3, 3)
        with pytest.raises(ValueError, match=">= 1"):
            flops_fast_parc(4, -1, 4)
        # counts are exact integers: no bool or float dimension is accepted
        for bad in (True, np.True_, 2.5):
            with pytest.raises(ValueError, match="c must be an integer >= 1"):
                flops_dwconv2d(bad, 3, 3, 3, 3)
            with pytest.raises(ValueError, match="w must be an integer >= 1"):
                flops_fast_parc(4, 4, bad)
        assert flops_dwconv2d(np.int64(2), 3, 3, 3, 3) == 162

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            op_mul_count("conv9000", 96, 56)
        with pytest.raises(ValueError, match="dw<K>.*parc, circ or fastparc"):
            op_mul_count("dwx", 96, 56)
        with pytest.raises(ValueError, match="unknown op 'circulant'"):
            op_mul_count("circulant", 96, 56)
        # no same-size depthwise conv has an even K, so the harness cannot run one
        for op in ("dw0", "dw2", "dw4"):
            with pytest.raises(ValueError, match="unknown op .*odd K"):
                op_mul_count(op, 96, 56)


class TestScaling:
    def test_monotone_in_resolution(self):
        for op in ("dw3", "dw7", "parc", "circ", "fastparc"):
            counts = [op_mul_count(op, 96, n) for n in (28, 56, 112, 224)]
            assert counts == sorted(counts) and len(set(counts)) == 4

    def test_log_linear_beats_quadratic_eventually(self):
        assert op_mul_count("fastparc", 96, 28) < op_mul_count("parc", 96, 28)
        ratio_28 = op_mul_count("parc", 96, 28) / op_mul_count("fastparc", 96, 28)
        ratio_2048 = op_mul_count("parc", 96, 2048) / op_mul_count("fastparc", 96, 2048)
        assert ratio_2048 > 10 * ratio_28
        assert op_mul_count("parc", 96, 2048) > op_mul_count("dw7", 96, 2048)
        # spatial route overtakes a 7x7 once half the perimeter beats 49 taps
        assert op_mul_count("parc", 96, 50) > op_mul_count("dw7", 96, 50)
        assert op_mul_count("parc", 96, 48) < op_mul_count("dw7", 96, 48)

    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 56, 64, 112, 224)] == \
            [0, 1, 2, 2, 3, 6, 6, 7, 8]

    def test_self_attention_marked_asymptotic(self):
        rep = flops_self_attention_order(96, 56, 56)
        assert rep.asymptotic
        assert rep.multiplications == 96 * (56 * 56) ** 2 + 96 ** 2 * 56 * 56


class TestCurveExport:
    def test_series_shape(self):
        series = complexity_curve("parc", 4, (4, 8, 16))
        assert series == [(4, op_mul_count("parc", 4, 4)),
                          (8, op_mul_count("parc", 4, 8)),
                          (16, op_mul_count("parc", 4, 16))]

    def test_csv_rows_and_header(self, tmp_path):
        out = tmp_path / "curves.csv"
        write_curves_csv(out, ("dw3", "parc"), 4, (4, 8))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "op,channels,resolution,mul_count"
        assert lines[1] == f"dw3,4,4,{op_mul_count('dw3', 4, 4)}"
        assert len(lines) == 5

    @pytest.mark.parametrize("ops,channels,match", [
        (("dw3", "nope"), 4, "unknown op"),
        (("dw3", "parc"), 7, "even"),
    ])
    def test_failed_row_writes_no_file(self, tmp_path, ops, channels, match):
        out = tmp_path / "curves.csv"
        with pytest.raises(ValueError, match=match):
            write_curves_csv(out, ops, channels, (4, 8))
        assert not out.exists()

    def test_stream_gets_the_file_bytes(self, tmp_path):
        out = tmp_path / "curves.csv"
        write_curves_csv(out, ("dw3", "parc"), 4, (4, 8))
        stream = io.StringIO(newline="")
        write_curves_csv(stream, ("dw3", "parc"), 4, (4, 8))
        assert stream.getvalue() == out.read_bytes().decode()

    def test_curve_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            complexity_curve("nope", 4, (4,))


class TestDisplay:
    @pytest.mark.parametrize("count,text", [
        (677_376, "0.68M"),
        (2_709_504, "2.71M"),
        (14_751_744, "14.8M"),
        (59_006_976, "59.0M"),
        (236_027_904, "236M"),
        (1_079_000_000, "1079M"),
        (9_990_000, "9.99M"),
        (10_000_000, "10.0M"),
        (100_000_000, "100M"),
    ])
    def test_format_mega(self, count, text):
        assert format_mega(count) == text
