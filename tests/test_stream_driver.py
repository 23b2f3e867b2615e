"""Out-of-core driver tests: ``scan_file``, checkpoints, resume.

Covers the acceptance criteria end to end: a file larger than the
chunk budget scans bit-identically to a one-shot scan, and a job
interrupted mid-run — by an injected crash or a real SIGKILL of the
CLI process — completes under resume with identical output bytes.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import make_int_array, small_sam
from repro.core.host import host_prefix_sum
from repro.stream import (
    CheckpointError,
    CheckpointMismatchError,
    InjectedFailureError,
    StreamError,
    read_checkpoint,
    scan_file,
    write_checkpoint,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_input(tmp_path, values, name="in.bin"):
    path = tmp_path / name
    values.tofile(path)
    return path


class TestScanFile:
    def test_larger_than_chunk_budget(self, tmp_path, rng):
        values = make_int_array(rng, 50_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(
            raw, out, dtype="int32", order=2, tuple_size=3,
            chunk_bytes=4096,  # 1024 elements -> ~49 chunks
        )
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        assert result.counters.chunks == 49
        assert result.counters.bytes_out == values.nbytes
        assert result.engine_used == "host"

    def test_exclusive_and_op(self, tmp_path, rng):
        values = make_int_array(rng, 10_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        scan_file(
            raw, out, dtype="int64", op="max", inclusive=False,
            chunk_bytes=8192,
        )
        expected = host_prefix_sum(values, op="max", inclusive=False)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)

    def test_chunk_not_multiple_of_tuple_stride(self, tmp_path, rng):
        # 1024-element chunks against tuple stride 3: every chunk edge
        # lands mid-tuple.
        values = make_int_array(rng, 9_999)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        scan_file(raw, out, dtype="int32", tuple_size=3, chunk_bytes=4096)
        expected = host_prefix_sum(values, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)

    def test_configured_inner_engine(self, tmp_path, rng):
        values = make_int_array(rng, 5_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(
            raw, out, dtype="int64", order=2, engine=small_sam(),
            chunk_bytes=1 << 13,
        )
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        assert result.counters.delegated_stage_scans > 0

    def test_empty_file(self, tmp_path):
        raw = tmp_path / "empty.bin"
        raw.touch()
        out = tmp_path / "out.bin"
        result = scan_file(raw, out, dtype="int32")
        assert result.elements == 0
        assert out.stat().st_size == 0

    def test_misaligned_file_rejected(self, tmp_path):
        raw = tmp_path / "bad.bin"
        raw.write_bytes(b"\x00" * 10)  # not a multiple of 4
        with pytest.raises(ValueError, match="multiple"):
            scan_file(raw, tmp_path / "out.bin", dtype="int32")

    def test_bad_knobs_rejected(self, tmp_path, rng):
        raw = write_input(tmp_path, make_int_array(rng, 10))
        with pytest.raises(ValueError, match="chunk_bytes"):
            scan_file(raw, tmp_path / "o.bin", chunk_bytes=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            scan_file(raw, tmp_path / "o.bin", checkpoint_every=0)


class TestOneReadOneWrite:
    """Each chunk is one read into an array the driver owns, one scan in
    place and one write; a one-chunk job runs on the calling thread."""

    def test_one_chunk_job_starts_no_thread(self, tmp_path, rng, monkeypatch):
        import repro.stream.driver as driver

        def no_threads(*args, **kwargs):
            raise AssertionError("a one-chunk job must not start a thread")

        monkeypatch.setattr(driver, "ThreadPoolExecutor", no_threads)
        values = make_int_array(rng, 30_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(raw, out, dtype="int64", order=2)
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        assert result.counters.chunks == 1
        assert result.counters.bytes_out == values.nbytes

    def test_multi_chunk_job_prefetches(self, tmp_path, rng, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        import repro.stream.driver as driver

        built, submitted = [], []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                submitted.append(args[1:])
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(driver, "ThreadPoolExecutor", CountingExecutor)
        values = make_int_array(rng, 10_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(raw, out, dtype="int32", order=2, chunk_bytes=4096)
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        assert result.counters.chunks == 10
        # Chunk 0 is read on the calling thread; every later chunk is
        # prefetched by the one worker.
        assert len(built) == 1
        assert submitted == [
            (lo, min(lo + 1024, 10_000)) for lo in range(1024, 10_000, 1024)
        ]

    @pytest.mark.parametrize("chunk_bytes", [1 << 20, 4096])
    def test_short_read_raises_and_writes_no_short_chunk(
        self, tmp_path, rng, monkeypatch, chunk_bytes
    ):
        values = make_int_array(rng, 10_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        real_getsize = os.path.getsize

        def inflated(path):
            # The file "shrinks" after the driver sized the job.
            extra = 4 * 100 if os.fspath(path) == str(raw) else 0
            return real_getsize(path) + extra

        monkeypatch.setattr(os.path, "getsize", inflated)
        with pytest.raises(StreamError, match="short read") as info:
            scan_file(raw, out, dtype="int32", chunk_bytes=chunk_bytes)
        assert str(raw) in str(info.value)
        # Only whole chunks read before the short one reach the output.
        written = np.fromfile(out, dtype=np.int32)
        full = len(values) // 1024 * 1024 if chunk_bytes == 4096 else 0
        assert len(written) == full
        assert np.array_equal(written, host_prefix_sum(values)[:full])


class TestFeedLeavesCallerArray:
    """The driver hands its own chunks to the session to scan in place;
    public ``ScanSession.feed`` must still never touch the caller's."""

    KINDS = {
        "plain": (np.int64, dict(order=2)),
        "plain-threaded": (np.int64, dict(order=1, tuple_size=2, threads=2)),
        "fused": (np.int64, dict(order=3, tuple_size=2)),
        "exclusive": (np.int32, dict(order=2, tuple_size=3, inclusive=False)),
        "float-exact": (np.float64, dict(order=2, tuple_size=2)),
        "float-regrouped": (np.float64, dict(float_mode="regrouped")),
        "float-compensated": (
            np.float64, dict(order=2, float_mode="compensated")
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_feed_does_not_mutate(self, rng, kind):
        from repro.stream import ScanSession

        dtype, config = self.KINDS[kind]
        values = rng.integers(-1000, 1000, 5_000).astype(dtype)
        session = ScanSession(**config)
        whole = ScanSession(**config).feed(values.copy())
        parts = []
        for lo, hi in ((0, 1), (1, 2_000), (2_000, 5_000)):
            chunk = values[lo:hi]
            before = chunk.tobytes()
            scanned = session.feed(chunk)
            assert chunk.tobytes() == before
            assert not np.shares_memory(scanned, chunk)
            parts.append(scanned)
        # A serial regrouped continuation is the head fold, the exact
        # left fold, like every other kind.
        assert np.concatenate(parts).tobytes() == whole.tobytes()


class TestCheckpointResume:
    def run_interrupted(self, tmp_path, rng, n=40_000, fail_after=7, **kw):
        values = make_int_array(rng, n)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        ckpt = tmp_path / "job.ckpt"
        config = dict(
            dtype="int32", order=2, tuple_size=3, chunk_bytes=4096,
            checkpoint=ckpt, checkpoint_every=3,
        )
        config.update(kw)
        with pytest.raises(InjectedFailureError):
            scan_file(raw, out, fail_after_chunks=fail_after, **config)
        return values, raw, out, ckpt, config

    def test_interrupted_job_resumes_bit_identically(self, tmp_path, rng):
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        assert ckpt.exists()
        # Partial output extends past the last checkpoint (7 chunks
        # written, checkpoint taken at 6) — resume must discard the
        # undurable tail.
        partial = out.stat().st_size
        assert partial == 7 * 4096

        result = scan_file(raw, out, resume=True, **config)
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        assert result.resumed_from == 6 * 1024
        assert result.counters.resumes == 1
        # Counters are cumulative across the interruption: 6 chunks
        # persisted by the last checkpoint + 34 on resume (chunk 7's
        # work was lost with the crash and is replayed inside the 34).
        assert result.counters.chunks == 40
        assert not ckpt.exists()  # complete jobs clean up

    def test_resume_tolerates_corrupt_output_tail(self, tmp_path, rng):
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        with open(out, "ab") as fh:  # garbage written during the "crash"
            fh.write(b"\xde\xad\xbe\xef" * 100)
        scan_file(raw, out, resume=True, **config)
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)

    def test_resume_with_mismatched_config_rejected(self, tmp_path, rng):
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        bad = dict(config, order=1)
        with pytest.raises(CheckpointMismatchError):
            scan_file(raw, out, resume=True, **bad)

    def test_resume_with_different_input_rejected(self, tmp_path, rng):
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        other = write_input(tmp_path, make_int_array(rng, 50_000), "other.bin")
        with pytest.raises(CheckpointMismatchError, match="elements"):
            scan_file(other, out, resume=True, **config)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path, rng):
        values = make_int_array(rng, 10_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(
            raw, out, dtype="int32", chunk_bytes=4096,
            checkpoint=tmp_path / "never-written.ckpt", resume=True,
        )
        assert result.resumed_from == 0
        assert np.array_equal(
            np.fromfile(out, dtype=np.int32), host_prefix_sum(values)
        )

    def test_resume_with_missing_output_rejected(self, tmp_path, rng):
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        out.unlink()
        with pytest.raises(StreamError, match="output"):
            scan_file(raw, out, resume=True, **config)

    def test_resume_on_different_chunk_size_and_engine(self, tmp_path, rng):
        # Chunk size and engine are not part of the carry state's
        # meaning — a resumed job may use different ones.
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        config["chunk_bytes"] = 10_000  # not even tuple-aligned
        config["engine"] = "sam"
        scan_file(raw, out, resume=True, **config)
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)

    def test_no_tmp_file_left_behind(self, tmp_path, rng):
        self.run_interrupted(tmp_path, rng)
        assert not list(tmp_path.glob("*.tmp"))

    def test_fresh_start_deletes_stale_checkpoint(self, tmp_path, rng):
        # A non-resume run must delete a leftover checkpoint up front.
        # Previously it survived until the run's own first checkpoint
        # write — so a crash *before* that point, followed by --resume,
        # would restore the stale offset against the new job's output
        # and silently corrupt it.
        values, raw, out, ckpt, config = self.run_interrupted(tmp_path, rng)
        assert ckpt.exists()
        # Fresh start (resume=False) that crashes before its first
        # checkpoint (fail at chunk 1, cadence every 3 chunks).
        with pytest.raises(InjectedFailureError):
            scan_file(raw, out, fail_after_chunks=1, **config)
        assert not ckpt.exists()  # the stale file must not have survived
        # Therefore resume starts from scratch and stays correct.
        result = scan_file(raw, out, resume=True, **config)
        assert result.resumed_from == 0
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)


class TestCheckpointDurability:
    def test_write_checkpoint_fsyncs_directory(self, tmp_path, monkeypatch):
        # The rename is directory metadata: without fsyncing the
        # directory a crash after os.replace can roll the rename back.
        # Audit every fsync during a write and demand one of them was
        # on a directory fd opened on the checkpoint's parent.
        fsynced = []
        real_fsync = os.fsync

        def audit_fsync(fd):
            import stat as stat_mod

            mode = os.fstat(fd).st_mode
            fsynced.append("dir" if stat_mod.S_ISDIR(mode) else "file")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", audit_fsync)
        path = tmp_path / "sub" / "c.ckpt"
        path.parent.mkdir()
        write_checkpoint(path, {"kind": "repro-stream-checkpoint",
                                "version": 1})
        # tmp-file fsync first, then the parent directory after replace.
        assert fsynced == ["file", "dir"]
        assert json.loads(path.read_text())["kind"] == "repro-stream-checkpoint"

    def test_directory_fsync_failure_is_not_fatal(self, tmp_path, monkeypatch):
        # Platforms without directory fds (or filesystems rejecting
        # dir fsync) must degrade to the pre-fsync behavior, not fail
        # the checkpoint write.
        real_open = os.open

        def failing_open(path, flags, *a, **kw):
            if os.path.isdir(path):
                raise OSError("no directory fds here")
            return real_open(path, flags, *a, **kw)

        monkeypatch.setattr(os, "open", failing_open)
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {"kind": "repro-stream-checkpoint",
                                "version": 1})
        assert path.exists()


class TestCheckpointFormat:
    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(path)
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro"):
            read_checkpoint(path)

    def test_tampered_config_detected(self, tmp_path, rng):
        values, raw, out, ckpt, config = (
            TestCheckpointResume().run_interrupted(tmp_path, rng)
        )
        payload = read_checkpoint(ckpt)
        payload["session"]["config"]["order"] = 17  # hash now stale
        write_checkpoint(ckpt, payload)
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(ckpt)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(
            path, {"kind": "repro-stream-checkpoint", "version": 999}
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)


class TestResumeAfterKill:
    """A *real* kill: SIGKILL the CLI process mid-run, then resume."""

    @pytest.mark.parametrize("sig", [signal.SIGKILL])
    def test_sigkill_then_resume(self, tmp_path, rng, sig):
        values = make_int_array(rng, 1 << 20, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        ckpt = tmp_path / "job.ckpt"
        args = [
            str(raw), str(out), "--dtype", "int64", "--order", "2",
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
            killed = proc.poll() is None
            if killed:
                proc.send_signal(sig)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        # If the job somehow finished before we could kill it, the
        # checkpoint is gone and --resume simply redoes the scan; the
        # bit-identity assertion below still holds either way.
        from repro.__main__ import main

        assert main(["stream", *args, "--resume"]) == 0
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        if killed:
            assert not ckpt.exists()


class TestThreadedAndAdaptive:
    """PR satellites: slab-threaded chunk scans and adaptive chunk sizing."""

    def test_threads_bit_identical_and_counted(self, tmp_path, rng, monkeypatch):
        # Order 2 at tuple size 1 is the row kind (the slab driver's
        # only one); the zeroed cutover lets 64 KiB chunks reach it.
        from repro.kernels import threaded

        monkeypatch.setattr(threaded, "PARALLEL_CUTOVER_BYTES", 0)
        values = make_int_array(rng, 60_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(
            raw, out, dtype="int64", order=2, tuple_size=1,
            chunk_bytes=1 << 16, threads=4,
        )
        expected = host_prefix_sum(values, order=2, tuple_size=1)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        assert result.counters.threaded_scans > 0

    def test_adaptive_chunks_off_by_default(self, tmp_path, rng):
        values = make_int_array(rng, 50_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(raw, out, dtype="int32", chunk_bytes=4096)
        assert result.counters.chunk_resizes == 0
        assert result.counters.chunks == 49

    def test_adaptive_chunks_grows_and_stays_correct(self, tmp_path, rng):
        values = make_int_array(rng, 200_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file(
            raw, out, dtype="int64", order=1, tuple_size=2,
            chunk_bytes=1 << 12, adaptive_chunks=True,
        )
        expected = host_prefix_sum(values, tuple_size=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        # Tiny chunks scan far below the low-water mark, so sizing must
        # have kicked in (and fewer chunks than the fixed-size job).
        assert result.counters.chunk_resizes > 0
        assert result.counters.chunks < 200_000 * 8 // (1 << 12)

    def test_adaptive_chunks_via_cli(self, tmp_path, rng):
        from repro.__main__ import main

        values = make_int_array(rng, 30_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        assert main([
            "stream", str(raw), str(out), "--dtype", "int64",
            "--chunk-bytes", "4096", "--adaptive-chunks", "--threads", "2",
        ]) == 0
        expected = host_prefix_sum(values)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
