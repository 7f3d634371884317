"""Latency-harness plumbing: records, aggregation, crossover, serialization.

Timing itself is hardware-dependent, so these tests exercise the harness with
tiny iteration counts and check structure, not speed.
"""

import pytest

import parc.bench as bench_mod
from parc.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    crossover,
    run_bench,
    to_markdown,
    write_csv,
)
from parc.flops import op_mul_count


def fake_record(op, resolution, mean, **extra):
    base = dict(
        op=op, resolution=resolution, batch=1, channels=96, precision="f32",
        mul_count=op_mul_count(op, 96, resolution), latency_ms_mean=mean,
        latency_ms_std=0.1, iters=5, host="testhost",
    )
    base.update(extra)
    return BenchRecord(**base)


class TestCrossover:
    def test_first_strict_win(self):
        table = [
            fake_record("parc", 28, 0.30), fake_record("fastparc", 28, 0.40),
            fake_record("parc", 56, 2.00), fake_record("fastparc", 56, 0.80),
            fake_record("parc", 112, 9.00), fake_record("fastparc", 112, 5.00),
        ]
        assert crossover(table, "fastparc", "parc") == 56

    def test_no_win_returns_none(self):
        table = [
            fake_record("parc", 28, 0.30), fake_record("fastparc", 28, 0.40),
            fake_record("parc", 56, 2.00), fake_record("fastparc", 56, 2.00),
        ]
        assert crossover(table, "fastparc", "parc") is None

    def test_requires_two_shared_resolutions(self):
        table = [fake_record("parc", 28, 0.3), fake_record("fastparc", 56, 0.8)]
        with pytest.raises(ValueError, match="shared"):
            crossover(table, "fastparc", "parc")


class TestConfig:
    def test_defaults_mirror_protocol(self):
        cfg = BenchConfig()
        assert cfg.resolutions == (28, 56, 112, 224)
        assert cfg.ops == ("dw3", "dw7", "parc", "fastparc")
        assert (cfg.warmup, cfg.iters, cfg.precision) == (200, 100, "f32")

    def test_rejects_zero_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            BenchConfig(warmup=0)

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            BenchConfig(precision="f16")

    def test_rejects_repeated_resolutions(self):
        # a repeated size would be timed twice and then break crossover()
        with pytest.raises(ValueError, match="distinct"):
            BenchConfig(resolutions=(8, 16, 8))

    def test_rejects_repeated_ops(self):
        # a repeated op would be timed twice, and crossover() would keep only the last run
        with pytest.raises(ValueError, match="ops must be distinct"):
            BenchConfig(ops=("dw3", "dw3"))


@pytest.fixture(scope="module")
def table():
    cfg = BenchConfig(channels=2, resolutions=(4, 8), ops=("dw3", "fastparc"),
                      warmup=1, iters=2)
    return run_bench(cfg)


class TestTinyRun:

    def test_record_per_pair(self, table):
        assert [(r.op, r.resolution) for r in table] == \
            [("dw3", 4), ("dw3", 8), ("fastparc", 4), ("fastparc", 8)]

    def test_mul_count_matches_model(self, table):
        for r in table:
            assert r.mul_count == op_mul_count(r.op, r.channels, r.resolution)

    def test_latency_fields_sane(self, table):
        for r in table:
            assert r.latency_ms_mean > 0
            assert r.latency_ms_std >= 0
            assert r.iters == 2

    def test_progress_callback_sees_every_record(self):
        seen = []
        cfg = BenchConfig(channels=2, resolutions=(4, 8), ops=("dw3",),
                          warmup=1, iters=1)
        got = run_bench(cfg, progress=seen.append)
        assert seen == got

    def test_unknown_op_rejected_before_timing(self):
        cfg = BenchConfig(channels=2, resolutions=(4,), ops=("warp9",),
                          warmup=1, iters=1)
        with pytest.raises(ValueError, match="unknown op"):
            run_bench(cfg)

    @pytest.mark.parametrize("op", ["parc", "circ", "fastparc"])
    def test_odd_channels_rejected_for_circular_ops(self, op):
        cfg = BenchConfig(channels=3, resolutions=(4,), ops=(op,),
                          warmup=1, iters=1)
        with pytest.raises(ValueError, match="even"):
            run_bench(cfg)

    def test_circ_times_the_circulant_matmul_through_split_sweep(self, monkeypatch):
        # "circ" must run parc_forward on both halves, and be charged the tap loop's count
        seen = []
        real = bench_mod.parc_forward

        def spy(x, p):
            seen.append(p.orientation)
            return real(x, p)

        monkeypatch.setattr(bench_mod, "parc_forward", spy)
        cfg = BenchConfig(channels=4, resolutions=(8,), ops=("circ",), warmup=1, iters=2)
        rec, = run_bench(cfg)
        assert seen == ["H", "V"] * 3
        assert (rec.op, rec.mul_count) == ("circ", op_mul_count("parc", 4, 8))


class TestSerialization:
    def test_csv_header_bit_exact(self, tmp_path):
        out = tmp_path / "bench.csv"
        write_csv([fake_record("dw3", 28, 0.123456789)], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "op,resolution,batch,channels,precision,mul_count," \
            "latency_ms_mean,latency_ms_std,iters,host"
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == f"dw3,28,1,96,f32,{op_mul_count('dw3', 96, 28)}," \
            "0.123457,0.100000,5,testhost"

    def test_markdown_table(self):
        md = to_markdown([fake_record("parc", 56, 1.94, latency_ms_std=3.8)])
        lines = md.strip().splitlines()
        assert lines[0].startswith("| op |")
        assert "| parc | 56 | 16.9M | 1.940 ± 3.800 |" in lines
