"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestScanCommand:
    def test_host_scan_matches_numpy(self, tmp_path, rng):
        values = rng.integers(-1000, 1000, 5000).astype(np.int32)
        raw = tmp_path / "in.bin"
        out = tmp_path / "out.bin"
        values.tofile(raw)
        assert main(["scan", str(raw), str(out)]) == 0
        got = np.fromfile(out, dtype=np.int32)
        assert np.array_equal(got, np.cumsum(values, dtype=np.int32))

    def test_engines_agree(self, tmp_path, rng):
        values = rng.integers(-100, 100, 3000).astype(np.int64)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        outputs = {}
        for name in ("host", "threaded", "sam"):
            out = tmp_path / f"out_{name}.bin"
            assert main([
                "scan", str(raw), str(out), "--dtype", "int64",
                "--order", "2", "--tuple-size", "2", "--engine", name,
            ]) == 0
            outputs[name] = np.fromfile(out, dtype=np.int64)
        assert np.array_equal(outputs["host"], outputs["threaded"])
        assert np.array_equal(outputs["host"], outputs["sam"])

    def test_exclusive_and_op(self, tmp_path, rng):
        values = rng.integers(0, 100, 2000).astype(np.int32)
        raw = tmp_path / "in.bin"
        out = tmp_path / "out.bin"
        values.tofile(raw)
        assert main([
            "scan", str(raw), str(out), "--op", "max", "--exclusive",
        ]) == 0
        import repro

        got = np.fromfile(out, dtype=np.int32)
        expected = repro.scan(values, op="max", inclusive=False)
        assert np.array_equal(got, expected)

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scan", "a", "b", "--engine", "warp_drive"]
            )

    def test_workers_is_a_stream_option_only(self, tmp_path, rng, capsys):
        # No scan engine takes a worker count; --workers caps sharded
        # stream tasks and nothing else.
        raw = tmp_path / "in.bin"
        rng.integers(-100, 100, 100).astype(np.int32).tofile(raw)
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(raw), str(tmp_path / "out.bin"), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestStreamCommand:
    def test_stream_matches_scan_bit_identically(self, tmp_path, rng):
        # The acceptance check: a file larger than the chunk budget,
        # streamed, must produce the same bytes as one-shot `scan`.
        values = rng.integers(-1000, 1000, 60_000).astype(np.int32)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        opts = ["--order", "2", "--tuple-size", "3", "--exclusive"]
        assert main(["scan", str(raw), str(tmp_path / "a.bin"), *opts]) == 0
        assert main([
            "stream", str(raw), str(tmp_path / "b.bin"), *opts,
            "--chunk-bytes", "8192",
        ]) == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_planned_stream_prints_the_gate_reason(self, tmp_path, rng, capsys):
        from repro.plan import PLANNER_COUNTERS

        raw = tmp_path / "in.bin"
        rng.integers(-1000, 1000, 5_000).astype(np.int64).tofile(raw)
        argv = ["stream", str(raw), str(tmp_path / "out.bin"), "--dtype", "int64"]
        assert main(argv) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(
            f"planned onto stream ({PLANNER_COUNTERS.last_reason}) "
            f"-> {tmp_path / 'out.bin'}"
        )
        assert "same-run A/B" in line

    def test_interrupted_stream_resumes(self, tmp_path, rng):
        values = rng.integers(-1000, 1000, 50_000).astype(np.int32)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        out = tmp_path / "out.bin"
        ckpt = tmp_path / "job.ckpt"
        args = [
            "stream", str(raw), str(out), "--chunk-bytes", "4096",
            "--checkpoint", str(ckpt), "--checkpoint-every", "2",
        ]
        assert main(args + ["--fail-after-chunks", "9"]) == 1
        assert ckpt.exists()
        assert main(args + ["--resume"]) == 0
        assert not ckpt.exists()
        got = np.fromfile(out, dtype=np.int32)
        assert np.array_equal(got, np.cumsum(values, dtype=np.int32))

    def test_stream_on_delegated_engine(self, tmp_path, rng):
        # A named engine scans every chunk; the session folds carries.
        values = rng.integers(-100, 100, 6_000).astype(np.int64)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        out = tmp_path / "out.bin"
        assert main([
            "stream", str(raw), str(out), "--dtype", "int64",
            "--engine", "sam", "--chunk-bytes", "8192",
        ]) == 0
        got = np.fromfile(out, dtype=np.int64)
        assert np.array_equal(got, np.cumsum(values, dtype=np.int64))

    def test_sharded_stream_takes_workers(self, tmp_path, rng, monkeypatch, capsys):
        import repro.stream

        captured = {}
        real = repro.stream.scan_file_sharded

        def spy(*args, **kwargs):
            captured.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.stream, "scan_file_sharded", spy)
        values = rng.integers(-100, 100, 40_000).astype(np.int64)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        out = tmp_path / "out.bin"
        assert main([
            "stream", str(raw), str(out), "--dtype", "int64", "--order", "2",
            "--shards", "2", "--workers", "2", "--chunk-bytes", "16384",
        ]) == 0
        got = np.fromfile(out, dtype=np.int64)
        expected = np.cumsum(np.cumsum(values, dtype=np.int64), dtype=np.int64)
        assert np.array_equal(got, expected)
        assert captured["workers"] == 2
        assert "2 shards" in capsys.readouterr().out


class TestCompressionCommands:
    def test_round_trip(self, tmp_path, rng):
        values = rng.integers(-10000, 10000, 5000).astype(np.int32)
        raw = tmp_path / "data.bin"
        packed = tmp_path / "data.samd"
        restored = tmp_path / "restored.bin"
        values.tofile(raw)

        assert main(["compress", str(raw), str(packed)]) == 0
        assert packed.stat().st_size < raw.stat().st_size * 1.2
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert np.array_equal(np.fromfile(restored, dtype=np.int32), values)

    def test_explicit_order_and_tuple(self, tmp_path, rng):
        values = rng.integers(-100, 100, 4000).astype(np.int64)
        raw = tmp_path / "data.bin"
        packed = tmp_path / "data.samd"
        restored = tmp_path / "restored.bin"
        values.tofile(raw)
        assert main([
            "compress", str(raw), str(packed),
            "--dtype", "int64", "--order", "2", "--tuple-size", "2",
        ]) == 0
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert np.array_equal(np.fromfile(restored, dtype=np.int64), values)


class TestReportingCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "C1060" in out and "7.32" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "chained" in out and "SAM" in out

    def test_checks_pass(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks pass" in out

    def test_traffic(self, capsys):
        assert main(["traffic", "--n", "8192"]) == 0
        out = capsys.readouterr().out
        assert "sam" in out and "thrust" in out
