"""Compressed streaming: fused decode→scan→encode through the stream
layer.

Covers the acceptance criteria end to end: a blocked ``.samb``
container scans bit-identically to the same values fed raw — through
the single-session driver, the sharded driver, injected-crash resume,
and a real SIGKILL of the CLI process — plus the planner's
compressed-file workload source, the CLI surface and the counters.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import scan_file as api_scan_file
from repro.compression import BlockedDeltaCodec
from repro.compression.stream import BlockedFileReader, read_index
from repro.core.host import host_prefix_sum
from repro.plan import plan_file_scan
from repro.stream import (
    CheckpointMismatchError,
    InjectedFailureError,
    scan_file,
    scan_file_sharded,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def make_values(rng, n, dtype=np.int64):
    return np.cumsum(rng.integers(-50, 51, n)).astype(dtype)


def write_blocked(tmp_path, values, block_elements=512, name="in.samb",
                  tuple_size=1):
    blob = BlockedDeltaCodec(block_elements=block_elements).compress(
        values, tuple_size=tuple_size
    )
    path = tmp_path / name
    path.write_bytes(blob.data)
    return path


class TestBlockedInput:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("order,tuple_size", [(1, 1), (2, 3)])
    def test_matches_raw_scan(self, tmp_path, rng, dtype, order, tuple_size):
        values = make_values(rng, 10_007, dtype)
        samb = write_blocked(tmp_path, values, block_elements=777)
        out = tmp_path / "out.bin"
        result = scan_file(
            samb, out, order=order, tuple_size=tuple_size,
            chunk_bytes=4096,
        )
        expected = host_prefix_sum(
            values, order=order, tuple_size=tuple_size
        )
        assert np.array_equal(np.fromfile(out, dtype=dtype), expected)
        # Container header is authoritative: the dtype default (int32)
        # was overridden by the container's own dtype.
        assert result.dtype == np.dtype(dtype).name

    def test_counters_account_compressed_bytes(self, tmp_path, rng):
        values = make_values(rng, 20_000)
        samb = write_blocked(tmp_path, values)
        result = scan_file(samb, tmp_path / "out.bin", chunk_bytes=8192)
        c = result.counters
        assert 0 < c.compressed_bytes_in < values.nbytes
        assert c.decoded_bytes_in == values.nbytes
        assert c.compression_ratio_in() > 1.0
        assert c.seconds_decode >= 0.0

    def test_sub_block_chunks_decode_each_block_once(self, tmp_path, rng):
        # chunk budget far below block_elements: the reader's one-block
        # cache must keep compressed IO at one pass over the container
        # instead of re-decoding the covering block for every chunk.
        values = make_values(rng, 32_768)
        samb = write_blocked(tmp_path, values, block_elements=8192)
        result = scan_file(samb, tmp_path / "out.bin", chunk_bytes=2048)
        c = result.counters
        assert c.chunks > 32_768 * 8 // 2048 // 2
        assert c.compressed_bytes_in < samb.stat().st_size
        expected = host_prefix_sum(values)
        assert np.array_equal(
            np.fromfile(tmp_path / "out.bin", dtype=np.int64), expected
        )

    def test_explicit_format_and_sniffing_agree(self, tmp_path, rng):
        values = make_values(rng, 3000)
        samb = write_blocked(tmp_path, values)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        scan_file(samb, a, input_format="blocked")
        scan_file(samb, b)  # auto-sniffed from the SAMB magic
        assert a.read_bytes() == b.read_bytes()

    def test_empty_container(self, tmp_path, rng):
        samb = write_blocked(tmp_path, np.array([], dtype=np.int64))
        out = tmp_path / "out.bin"
        result = scan_file(samb, out)
        assert result.elements == 0
        assert out.stat().st_size == 0


class TestBlockedOutput:
    def test_raw_to_blocked_round_trips(self, tmp_path, rng):
        values = make_values(rng, 9_001)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        out = tmp_path / "out.samb"
        result = scan_file(
            raw, out, dtype=np.int64, order=2, chunk_bytes=16384,
            output_format="blocked", output_block_elements=1024,
        )
        assert result.counters.compressed_bytes_out > 0
        index = read_index(out)
        assert index.block_elements == 1024
        with BlockedFileReader(out) as reader:
            got = np.array(reader.read_range(0, reader.count), copy=True)
        assert np.array_equal(got, host_prefix_sum(values, order=2))

    def test_blocked_to_blocked(self, tmp_path, rng):
        values = make_values(rng, 6_000)
        samb = write_blocked(tmp_path, values, block_elements=999)
        out = tmp_path / "out.samb"
        result = scan_file(samb, out, output_format="blocked")
        c = result.counters
        assert c.compressed_bytes_in > 0 and c.compressed_bytes_out > 0
        with BlockedFileReader(out) as reader:
            got = np.array(reader.read_range(0, reader.count), copy=True)
        assert np.array_equal(got, host_prefix_sum(values))

    def test_blocked_output_is_single_session_only(self, tmp_path, rng):
        values = make_values(rng, 5_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        with pytest.raises(ValueError, match="single-session"):
            api_scan_file(
                raw, tmp_path / "out.samb", dtype=np.int64,
                shards=4, output_format="blocked",
            )


class TestCrashResume:
    def test_blocked_input_resumes_bit_identically(self, tmp_path, rng):
        values = make_values(rng, 30_000)
        samb = write_blocked(tmp_path, values, block_elements=600)
        out, ckpt = tmp_path / "out.bin", tmp_path / "job.ckpt"
        with pytest.raises(InjectedFailureError):
            scan_file(
                samb, out, order=2, chunk_bytes=8192, checkpoint=ckpt,
                checkpoint_every=1, fail_after_chunks=2,
            )
        assert ckpt.exists()
        result = scan_file(
            samb, out, order=2, chunk_bytes=8192, checkpoint=ckpt,
            checkpoint_every=1, resume=True,
        )
        assert result.resumed_from
        assert not ckpt.exists()
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64),
            host_prefix_sum(values, order=2),
        )

    def test_blocked_output_resumes_bit_identically(self, tmp_path, rng):
        values = make_values(rng, 25_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        reference = tmp_path / "ref.samb"
        scan_file(
            raw, reference, dtype=np.int64, chunk_bytes=8192,
            output_format="blocked", output_block_elements=512,
        )
        out, ckpt = tmp_path / "out.samb", tmp_path / "job.ckpt"
        with pytest.raises(InjectedFailureError):
            scan_file(
                raw, out, dtype=np.int64, chunk_bytes=8192,
                output_format="blocked", output_block_elements=512,
                checkpoint=ckpt, checkpoint_every=1, fail_after_chunks=2,
            )
        scan_file(
            raw, out, dtype=np.int64, chunk_bytes=8192,
            output_format="blocked", output_block_elements=512,
            checkpoint=ckpt, checkpoint_every=1, resume=True,
        )
        # Deterministic per-block encode: the resumed container is
        # byte-for-byte the uninterrupted one, not merely equivalent.
        assert out.read_bytes() == reference.read_bytes()

    def test_format_mismatch_on_resume_is_rejected(self, tmp_path, rng):
        values = make_values(rng, 30_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        samb = write_blocked(tmp_path, values, block_elements=600)
        out, ckpt = tmp_path / "out.bin", tmp_path / "job.ckpt"
        with pytest.raises(InjectedFailureError):
            scan_file(
                samb, out, chunk_bytes=8192, checkpoint=ckpt,
                checkpoint_every=1, fail_after_chunks=2,
            )
        with pytest.raises(CheckpointMismatchError, match="blocked"):
            scan_file(
                raw, out, dtype=np.int64, chunk_bytes=8192,
                checkpoint=ckpt, checkpoint_every=1, resume=True,
            )


class TestShardedBlockedInput:
    def test_matches_raw_sharded(self, tmp_path, rng):
        values = make_values(rng, 50_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        samb = write_blocked(tmp_path, values, block_elements=999)
        raw_out, samb_out = tmp_path / "raw.bin", tmp_path / "blk.bin"
        scan_file_sharded(
            raw, raw_out, dtype=np.int64, order=2, shards=4,
            chunk_bytes=8192,
        )
        result = scan_file_sharded(
            samb, samb_out, order=2, shards=4, chunk_bytes=8192
        )
        assert result.input_format == "blocked"
        assert result.counters.compressed_bytes_in > 0
        # The container's bytes count once, at the scan pass: the
        # reduce pass's re-reads must not skew the reported ratio.
        assert result.counters.decoded_bytes_in == values.nbytes
        assert result.counters.compression_ratio_in() == pytest.approx(
            values.nbytes / result.counters.compressed_bytes_in
        )
        assert raw_out.read_bytes() == samb_out.read_bytes()

    def test_shards_align_to_container_blocks(self, tmp_path, rng):
        values = make_values(rng, 10_000)
        samb = write_blocked(tmp_path, values, block_elements=768)
        result = scan_file_sharded(
            samb, tmp_path / "out.bin", shards=3, chunk_bytes=4096
        )
        for lo, hi in result.shards[:-1]:
            assert lo % 768 == 0 and hi % 768 == 0

    def test_crash_and_resume(self, tmp_path, rng):
        values = make_values(rng, 40_000)
        samb = write_blocked(tmp_path, values, block_elements=512)
        out, manifest = tmp_path / "out.bin", tmp_path / "job.manifest"
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(
                samb, out, order=2, shards=5, workers=1,
                chunk_bytes=4096, checkpoint=manifest,
                fail_after_shards=2,
            )
        assert manifest.exists()
        result = scan_file_sharded(
            samb, out, order=2, shards=5, workers=1, chunk_bytes=4096,
            checkpoint=manifest, resume=True,
        )
        assert result.resumed_shards >= 2
        assert not manifest.exists()
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64),
            host_prefix_sum(values, order=2),
        )

    def test_manifest_format_mismatch_rejected(self, tmp_path, rng):
        values = make_values(rng, 40_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        samb = write_blocked(tmp_path, values, block_elements=512)
        out, manifest = tmp_path / "out.bin", tmp_path / "job.manifest"
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(
                samb, out, shards=5, workers=1, chunk_bytes=4096,
                checkpoint=manifest, fail_after_shards=1,
            )
        with pytest.raises(CheckpointMismatchError, match="blocked"):
            scan_file_sharded(
                raw, out, dtype=np.int64, shards=5, workers=1,
                chunk_bytes=4096, checkpoint=manifest, resume=True,
            )


class TestPlannerIntegration:
    def test_blocked_input_plans_as_compressed_workload(self, tmp_path, rng):
        values = make_values(rng, 8_000)
        samb = write_blocked(tmp_path, values)
        plan = plan_file_scan(samb, dtype="int32")
        assert plan.workload.source == "compressed-file"
        assert plan.workload.dtype == np.dtype(np.int64)
        assert 0 < plan.workload.compressed_nbytes < plan.workload.nbytes
        assert plan.chosen.label == "stream"
        assert f"{plan.workload.compressed_nbytes:,} B on disk" in plan.explain()

    def test_planned_api_scan_over_blocked_input(self, tmp_path, rng):
        values = make_values(rng, 12_000)
        samb = write_blocked(tmp_path, values)
        out = tmp_path / "out.bin"
        result = api_scan_file(samb, out, order=2)
        assert result.elements == len(values)
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64),
            host_prefix_sum(values, order=2),
        )


class TestCompressedCLI:
    def test_blocked_compress_decompress_round_trip(self, tmp_path, rng):
        values = make_values(rng, 15_000)
        raw, samb, back = (
            tmp_path / "in.bin", tmp_path / "c.samb", tmp_path / "back.bin"
        )
        values.tofile(raw)
        assert main([
            "compress", str(raw), str(samb), "--blocked",
            "--dtype", "int64", "--block-elements", "2048",
        ]) == 0
        assert read_index(samb).block_elements == 2048
        assert main(["decompress", str(samb), str(back)]) == 0
        assert raw.read_bytes() == back.read_bytes()

    def test_stream_sniffs_blocked_input(self, tmp_path, rng):
        values = make_values(rng, 10_000)
        samb = write_blocked(tmp_path, values)
        ref, out = tmp_path / "ref.bin", tmp_path / "out.bin"
        host_prefix_sum(values).tofile(ref)
        assert main(["stream", str(samb), str(out)]) == 0
        assert ref.read_bytes() == out.read_bytes()
        sharded_out = tmp_path / "sharded.bin"
        assert main([
            "stream", str(samb), str(sharded_out), "--shards", "3",
        ]) == 0
        assert ref.read_bytes() == sharded_out.read_bytes()

    def test_blocked_output_flag(self, tmp_path, rng):
        values = make_values(rng, 8_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        out = tmp_path / "out.samb"
        assert main([
            "stream", str(raw), str(out), "--dtype", "int64",
            "--engine", "host", "--output-format", "blocked",
        ]) == 0
        with BlockedFileReader(out) as reader:
            got = np.array(reader.read_range(0, reader.count), copy=True)
        assert np.array_equal(got, host_prefix_sum(values))

    def test_blocked_output_with_shards_exits_2(self, tmp_path, rng):
        values = make_values(rng, 8_000)
        raw = tmp_path / "in.bin"
        values.tofile(raw)
        assert main([
            "stream", str(raw), str(tmp_path / "out.samb"),
            "--dtype", "int64", "--shards", "4",
            "--output-format", "blocked",
        ]) == 2


class TestResumeAfterKill:
    """A *real* kill: SIGKILL the CLI mid-scan of a blocked container,
    then resume — the completed output must be bit-identical."""

    def test_sigkill_then_resume(self, tmp_path, rng):
        values = make_values(rng, 1 << 19)
        samb = write_blocked(tmp_path, values, block_elements=4096)
        out, ckpt = tmp_path / "out.bin", tmp_path / "job.ckpt"
        args = [
            str(samb), str(out), "--order", "2",
            "--chunk-bytes", "16384", "--checkpoint", str(ckpt),
            "--checkpoint-every", "2",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src")
            + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while (
                not ckpt.exists()
                and proc.poll() is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        # If the job finished before the kill landed, the checkpoint is
        # gone and --resume redoes the scan; bit-identity still holds.
        assert main(["stream", *args, "--resume"]) == 0
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64),
            host_prefix_sum(values, order=2),
        )
