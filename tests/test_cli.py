"""End-to-end CLI behavior through click's test runner."""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

import parc.cli as cli_mod
from parc.cli import main
from parc.flops import format_mega, op_mul_count
from parc.tensor import Tensor4, read_fixture


@pytest.fixture
def runner():
    return CliRunner()


class TestEquiv:
    def test_passes_at_small_sizes(self, runner):
        result = runner.invoke(main, ["equiv", "--resolutions", "7,14",
                                      "--channels", "4", "--precision", "f64"])
        assert result.exit_code == 0, result.output
        assert "all pairs within" in result.output
        assert result.output.count("ok") >= 6  # 3 pairs x 2 resolutions
        for pair in ("circulant vs periodic-ext", "circulant vs frequency",
                     "periodic-ext vs frequency"):
            assert result.output.count(pair) == 2, pair

    def test_f32_band(self, runner):
        result = runner.invoke(main, ["equiv", "--resolutions", "14",
                                      "--channels", "8", "--precision", "f32"])
        assert result.exit_code == 0, result.output

    def test_fails_when_routes_disagree(self, runner, monkeypatch):
        real = cli_mod.fast_parc_forward

        def skewed(x, p):
            y = real(x, p)
            return Tensor4(y.data + 1e-3)

        monkeypatch.setattr(cli_mod, "fast_parc_forward", skewed)
        result = runner.invoke(main, ["equiv", "--resolutions", "7", "--channels", "4"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("field", ["d_kernel_n", "d_input"])
    def test_fails_when_backward_breaks_its_adjoint(self, runner, monkeypatch, field):
        # a 1e-4 relative error is ten times the f32 limit once the cotangent
        # is y - bias; a random cotangent would dilute it below the limit
        real = cli_mod.parc_backward

        def skewed(x, p, dy):
            g = real(x, p, dy)
            value = getattr(g, field)
            value = Tensor4(value.data * (1 + 1e-4)) if field == "d_input" else value * (1 + 1e-4)
            return dataclasses.replace(g, **{field: value})

        monkeypatch.setattr(cli_mod, "parc_backward", skewed)
        result = runner.invoke(main, ["equiv", "--resolutions", "7", "--channels", "4",
                                      "--precision", "f32"])
        assert result.exit_code == 1
        assert "backward adjoint gap" in result.output and "FAIL" in result.output
        assert result.output.count("FAIL") == 1

    def test_bad_resolution_text_is_usage_error(self, runner):
        result = runner.invoke(main, ["equiv", "--resolutions", "7,banana"])
        assert result.exit_code == 2
        assert "comma-separated integers" in result.output

    def test_empty_resolutions_rejected(self, runner):
        # one check serves every command that takes a comma list, before any work
        for cmd, flag in (("equiv", "--resolutions"), ("bench", "--resolutions"),
                          ("bench", "--ops"), ("flops", "--resolutions"), ("flops", "--ops")):
            for text in ("", ","):
                result = runner.invoke(main, [cmd, flag, text])
                assert result.exit_code == 2, (cmd, flag, text, result.output)
                assert f"{flag} must name at least one entry" in result.output
                assert " ms " not in result.output and "mul_count" not in result.output


class TestFlopsCmd:
    def test_stdout_csv(self, runner):
        result = runner.invoke(main, ["flops", "--ops", "dw3,parc",
                                      "--channels", "4", "--resolutions", "8,16"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "op,channels,resolution,mul_count"
        assert f"dw3,4,8,{op_mul_count('dw3', 4, 8)}" in lines
        assert f"parc,4,16,{op_mul_count('parc', 4, 16)}" in lines
        assert len(lines) == 5

    def test_circ_curve_is_the_tap_loops(self, runner):
        result = runner.invoke(main, ["flops", "--ops", "parc,circ",
                                      "--channels", "4", "--resolutions", "8"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[1:] == [f"{op},4,8,{op_mul_count('parc', 4, 8)}" for op in ("parc", "circ")]

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["flops", "--ops", "fastparc",
                                      "--resolutions", "28", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().strip().splitlines()[1] == \
            f"fastparc,96,28,{op_mul_count('fastparc', 96, 28)}"

    def test_odd_channels_is_usage_error(self, runner):
        result = runner.invoke(main, ["flops", "--ops", "parc", "--channels", "7"])
        assert result.exit_code == 2
        assert "even" in result.output
        # validation runs before emission, so not even the header leaks out
        assert "mul_count" not in result.output.splitlines()[0]

    def test_unknown_op_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["flops", "--ops", "dw3,warp9", "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown op" in result.output
        assert not out.exists()

    def test_even_dw_op_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["flops", "--ops", "dw4", "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown op 'dw4'" in result.output
        assert not out.exists()


class TestBenchCmd:
    def test_tiny_run_with_csv(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "4,8",
            "--ops", "parc,fastparc", "--warmup", "1", "--iters", "2",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("op,resolution,batch,channels,precision,mul_count,"
                            "latency_ms_mean,latency_ms_std,iters,host")
        assert len(lines) == 5
        assert "crossover (frequency beats spatial):" in result.output

    def test_circ_op_runs_and_keeps_the_crossover_to_parc(self, runner):
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "4,8",
            "--ops", "parc,circ,fastparc", "--warmup", "1", "--iters", "1", "--md",
        ])
        assert result.exit_code == 0, result.output
        assert f"| circ | 8 | {format_mega(op_mul_count('parc', 2, 8))} |" in result.output
        # the printed crossover compares fastparc against parc only
        assert result.output.count("crossover (frequency beats spatial):") == 1

    def test_circ_alone_prints_no_crossover(self, runner):
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "4,8",
            "--ops", "circ,fastparc", "--warmup", "1", "--iters", "1",
        ])
        assert result.exit_code == 0, result.output
        assert "circ @8" in result.output
        assert "crossover" not in result.output

    def test_markdown_flag(self, runner):
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "4",
            "--ops", "dw3", "--warmup", "1", "--iters", "1", "--md",
        ])
        assert result.exit_code == 0, result.output
        assert "| op | resolution | mul_count | latency (ms) |" in result.output

    def test_repeated_resolution_is_usage_error_before_timing(self, runner):
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "8,8",
            "--ops", "parc,fastparc", "--warmup", "1", "--iters", "1",
        ])
        assert result.exit_code == 2, result.output
        assert "distinct" in result.output
        assert " ms " not in result.output

    def test_repeated_op_is_usage_error_before_timing(self, runner):
        result = runner.invoke(main, [
            "bench", "--channels", "2", "--resolutions", "4,8",
            "--ops", "dw3,dw3", "--warmup", "1", "--iters", "1", "--md",
        ])
        assert result.exit_code == 2, result.output
        assert "ops must be distinct" in result.output
        assert " ms " not in result.output

    def test_even_dw_op_is_usage_error_before_timing(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench", "--ops", "parc,dw4", "--resolutions", "8,16", "--channels", "4",
            "--warmup", "1", "--iters", "1", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "unknown op 'dw4'" in result.output
        assert " ms " not in result.output
        assert not out.exists()

    def test_parallel_is_no_option(self, runner):
        result = runner.invoke(main, ["bench", "--parallel", "--resolutions", "4", "--ops", "dw3"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_zero_iters_is_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "--iters", "0",
                                      "--resolutions", "4", "--ops", "dw3"])
        assert result.exit_code == 2


class TestDemoBlock:
    @pytest.mark.parametrize("block", ["metaformer", "convnet"])
    def test_footprint_confirmed(self, runner, block):
        result = runner.invoke(main, ["demo-block", "--block", block,
                                      "--shape", "1,4,8,8"])
        assert result.exit_code == 0, result.output
        assert "confirmed" in result.output
        assert "checksum sha256:" in result.output

    def test_same_seed_same_checksum(self, runner):
        args = ["demo-block", "--block", "convnet", "--shape", "1,4,8,8", "--seed", "3"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_bad_shape_is_usage_error(self, runner):
        result = runner.invoke(main, ["demo-block", "--block", "convnet",
                                      "--shape", "1,4,8"])
        assert result.exit_code == 2


class TestGenFixture:
    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.parc1", tmp_path / "b.parc1"
        for out in (a, b):
            result = runner.invoke(main, ["gen-fixture", "--shape", "2,3,4,5",
                                          "--seed", "9", "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips_through_reader(self, runner, tmp_path):
        out = tmp_path / "t.parc1"
        runner.invoke(main, ["gen-fixture", "--shape", "1,2,3,4",
                             "--precision", "f32", "--out", str(out)])
        t = read_fixture(str(out))
        assert t.shape == (1, 2, 3, 4)
        assert t.dtype == np.float32
        assert np.abs(t.data).max() < 1.0

    def test_seed_changes_payload(self, runner, tmp_path):
        a, b = tmp_path / "a.parc1", tmp_path / "b.parc1"
        runner.invoke(main, ["gen-fixture", "--shape", "1,1,4,4", "--seed", "0",
                             "--out", str(a)])
        runner.invoke(main, ["gen-fixture", "--shape", "1,1,4,4", "--seed", "1",
                             "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_size_accounting(self, runner, tmp_path):
        out = tmp_path / "tiny.parc1"
        runner.invoke(main, ["gen-fixture", "--shape", "1,1,4,1", "--out", str(out)])
        raw = out.read_bytes()
        assert raw.startswith(b"PARC1")
        header_len = int.from_bytes(raw[5:9], "little")
        assert len(raw) == 5 + 4 + header_len + 4 * 8


class TestUnwritableOutput:
    """Every --out that cannot be written ends in one error line and exit code
    3, never a traceback, and never 1, which means a failed equiv."""

    ARGS = {
        "flops": ["flops", "--ops", "parc", "--channels", "4", "--resolutions", "8"],
        "bench": ["bench", "--channels", "2", "--resolutions", "4", "--ops", "parc",
                  "--warmup", "1", "--iters", "1"],
        "gen-fixture": ["gen-fixture", "--shape", "1,1,4,1"],
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_missing_directory(self, runner, tmp_path, command):
        out = tmp_path / "missing" / "out.csv"
        result = runner.invoke(main, self.ARGS[command] + ["--out", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: cannot write {out}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()
