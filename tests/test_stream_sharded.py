"""Sharded driver tests: ``scan_file_sharded``, splice, manifest resume.

Mirrors ``test_stream_driver.py`` for the sharded path: bit-identity
against the one-shot host scan across the configuration grid (shard
boundaries landing mid-tuple included), reduce-then-scan traffic (one
output write, no scratch file), per-shard manifest resume after every
injected crash point and a real SIGKILL of the CLI, and the
single-stream fallbacks.
"""

import base64
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import make_int_array
from repro import kernels
from repro.core.host import host_prefix_sum
from repro.reference import prefix_sum_serial
from repro.stream import (
    CheckpointError,
    CheckpointMismatchError,
    InjectedFailureError,
    StreamError,
    plan_shards,
    read_shard_manifest,
    scan_file_sharded,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The three carry kinds of the sharded splice.
CARRY_KINDS = ("plain", "fused", "compensated")


def write_input(tmp_path, values, name="in.bin"):
    path = tmp_path / name
    values.tofile(path)
    return path


class TestPlanShards:
    def test_partition_is_contiguous_and_complete(self):
        for n in (0, 1, 2, 7, 100, 101):
            for s in (1, 2, 3, 8, 200):
                plan = plan_shards(n, s)
                assert plan[0][0] == 0
                assert plan[-1][1] == n
                for (_, hi), (lo, _) in zip(plan, plan[1:]):
                    assert hi == lo
                assert all(hi > lo for lo, hi in plan) or n == 0
                assert len(plan) == (min(s, n) if n else 1)

    def test_near_equal_sizes(self):
        plan = plan_shards(103, 4)
        sizes = [hi - lo for lo, hi in plan]
        assert max(sizes) - min(sizes) <= 1


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards,workers", [(1, 1), (2, 1), (5, 2), (8, 3)])
    @pytest.mark.parametrize("order,tuple_size,inclusive", [
        (1, 1, True), (1, 3, False), (2, 1, False), (3, 4, True),
    ])
    def test_matches_one_shot(self, tmp_path, rng, shards, workers,
                              order, tuple_size, inclusive):
        values = make_int_array(rng, 10_007)  # prime: edges land mid-tuple
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int32", order=order, tuple_size=tuple_size,
            inclusive=inclusive, shards=shards, workers=workers,
            chunk_bytes=2048,
        )
        expected = host_prefix_sum(
            values, order=order, tuple_size=tuple_size, inclusive=inclusive
        )
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        # Every order shards through one scan pass per shard, which
        # writes the output once; order-q jobs at tuple_size >= 2 take
        # the fused tile path in it.
        assert result.passes == 1
        assert result.counters.shards == result.num_shards
        assert result.counters.bytes_out == values.nbytes
        if order > 1 and tuple_size > 1:
            assert result.counters.fused_order_scans >= result.num_shards
        assert not (tmp_path / "out.bin.scratch").exists()

    @pytest.mark.parametrize("op", ["add", "max", "min", "xor", "and", "or"])
    def test_every_operator(self, tmp_path, rng, op):
        values = make_int_array(rng, 5_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        scan_file_sharded(
            raw, out, dtype="int64", op=op, tuple_size=2,
            shards=4, workers=2, chunk_bytes=1024,
        )
        expected = host_prefix_sum(values, op=op, tuple_size=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)

    def test_more_shards_than_elements(self, tmp_path, rng):
        values = make_int_array(rng, 5)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(raw, out, dtype="int32", shards=64)
        assert result.num_shards == 5  # clamped to one element per shard
        assert np.array_equal(
            np.fromfile(out, dtype=np.int32), host_prefix_sum(values)
        )

    def test_empty_file(self, tmp_path):
        raw = tmp_path / "empty.bin"
        raw.touch()
        out = tmp_path / "out.bin"
        result = scan_file_sharded(raw, out, dtype="int32", shards=4)
        assert result.elements == 0
        assert out.stat().st_size == 0

    def test_inner_engine_delegation(self, tmp_path, rng):
        values = make_int_array(rng, 20_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int64", order=2, engine="sam",
            shards=3, workers=2, chunk_bytes=1 << 14,
        )
        assert result.counters.delegated_stage_scans > 0
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)

    def test_misaligned_file_rejected(self, tmp_path):
        raw = tmp_path / "bad.bin"
        raw.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError, match="multiple"):
            scan_file_sharded(raw, tmp_path / "o.bin", dtype="int32", shards=2)

    def test_bad_knobs_rejected(self, tmp_path, rng):
        raw = write_input(tmp_path, make_int_array(rng, 10))
        with pytest.raises(ValueError, match="shards"):
            scan_file_sharded(raw, tmp_path / "o.bin", shards=0)
        with pytest.raises(ValueError, match="workers"):
            scan_file_sharded(raw, tmp_path / "o.bin", shards=2, workers=0)


class TestCarryPriming:
    """Every scan-pass shard starts primed with its exact incoming
    carry, so its output region is final as written."""

    def test_sequential_run_primes_every_shard(self, tmp_path, rng):
        # The read-only reduce pass reads shards 0..2 (the last shard's
        # aggregate is never needed); then every shard rescans from its
        # carry and writes its region once.
        values = make_int_array(rng, 8_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int64", shards=4, workers=1, chunk_bytes=4096,
        )
        assert result.counters.shards == 4
        assert result.counters.bytes_in == values.nbytes * 7 // 4
        assert result.counters.bytes_out == values.nbytes
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64), host_prefix_sum(values)
        )

    def test_exclusive_output_still_shifts_primed_shards(self, tmp_path, rng):
        values = make_int_array(rng, 4_001)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int32", tuple_size=3, inclusive=False,
            shards=4, workers=1, chunk_bytes=1024,
        )
        # Primed shards still need the exclusive lane shift.
        assert result.counters.shards == 4
        expected = host_prefix_sum(values, tuple_size=3, inclusive=False)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)


class TestFloatPath:
    def test_float_exact_falls_back_to_sequential(self, tmp_path, rng):
        values = (rng.random(4_000) * 100 - 50).astype(np.float64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="float64", shards=4, chunk_bytes=4096,
        )
        assert result.fallback_reason is not None
        assert result.num_shards == 1
        # The fallback is the sequential exact path: bit-identical.
        expected = host_prefix_sum(values)
        assert np.fromfile(out, np.float64).tobytes() == expected.tobytes()

    def test_float_exact_false_shards_with_tolerance(self, tmp_path, rng):
        values = (rng.random(4_000) * 100 - 50).astype(np.float64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="float64", shards=4, workers=2,
            chunk_bytes=2048, float_mode="regrouped",
        )
        assert result.fallback_reason is None
        assert result.num_shards == 4
        expected = host_prefix_sum(values)
        assert np.allclose(np.fromfile(out, np.float64), expected)

    def test_regrouped_keeps_negative_zero(self, tmp_path):
        # Every shard's lane totals and carries stay -0.0, as the
        # one-shot sum of -0.0 values does: no shard folds an identity
        # (+0.0) into a lane's first total.
        values = np.full(4_000, -0.0)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="float64", tuple_size=3, shards=4, workers=2,
            chunk_bytes=2048, float_mode="regrouped",
        )
        assert result.num_shards == 4
        assert np.fromfile(out, np.float64).tobytes() == values.tobytes()


class TestShortRead:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_input_raises_naming_the_file(
        self, tmp_path, rng, monkeypatch, workers
    ):
        values = make_int_array(rng, 10_000)
        raw = write_input(tmp_path, values)
        real_getsize = os.path.getsize

        def inflated(path):
            # The input is shorter than the size the job was planned for.
            extra = 4 * 1000 if os.fspath(path) == str(raw) else 0
            return real_getsize(path) + extra

        monkeypatch.setattr(os.path, "getsize", inflated)
        with pytest.raises(StreamError, match="short read") as info:
            scan_file_sharded(
                raw, tmp_path / "out.bin", dtype="int32", shards=2,
                workers=workers, chunk_bytes=4096,
            )
        assert str(raw) in str(info.value)


class TestManifestResume:
    def run_interrupted(
        self, tmp_path, rng, n=30_000, fail_after=3, values=None, **kw
    ):
        if values is None:
            values = make_int_array(rng, n)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        manifest = tmp_path / "job.manifest"
        config = dict(
            dtype="int32", order=2, tuple_size=3, chunk_bytes=4096,
            shards=6, workers=2, checkpoint=manifest,
        )
        config.update(kw)
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(raw, out, fail_after_shards=fail_after, **config)
        return values, raw, out, manifest, config

    def test_resume_redoes_only_unfinished_shards(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        assert manifest.exists()
        done_before = sum(read_shard_manifest(manifest)["state"]["done"])
        assert done_before >= 3  # the injected crash recorded progress

        result = scan_file_sharded(raw, out, resume=True, **config)
        assert result.counters.resumes == 1
        assert result.resumed_shards >= done_before
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        assert not manifest.exists()  # complete jobs clean up
        assert not (tmp_path / "out.bin.scratch").exists()

    def carry_kind_job(self, kind, rng, n=30_000):
        """Values, job options and the bit-exact expected output of an
        exclusive scan of one carry kind."""
        if kind == "plain":
            values = make_int_array(rng, n)
            kw = dict(order=1, tuple_size=2)
            expected = host_prefix_sum(values, tuple_size=2, inclusive=False)
        elif kind == "fused":
            values = make_int_array(rng, n, dtype=np.int64)
            kw = dict(dtype="int64", order=3, tuple_size=4)
            expected = host_prefix_sum(
                values, order=3, tuple_size=4, inclusive=False
            )
        else:
            values = rng.standard_normal(n)
            kw = dict(
                dtype="float64", order=1, tuple_size=2,
                float_mode="compensated",
            )
            expected = kernels.compensated_scan_into(
                values, np.empty_like(values), "add", tuple_size=2,
                inclusive=False,
            )
        return values, dict(kw, inclusive=False), expected

    @pytest.mark.parametrize("kind", CARRY_KINDS)
    def test_resume_mid_fold_phase(self, tmp_path, rng, kind):
        # Crash inside the scan phase, where each shard's carry is
        # folded into its values: the first completion after the
        # planned - 1 reduce completions is a scan.  Resume rescans the
        # unfinished shards from the input.  The compensated plan snaps
        # to the segment grid, which can give fewer shards than asked
        # for.
        values, kw, expected = self.carry_kind_job(kind, rng)
        planned = 6
        if kind == "compensated":
            span = kernels.segment_span(kw["tuple_size"])
            planned = len(plan_shards(-(-len(values) // span), 6))
        values, raw, out, manifest, config = self.run_interrupted(
            tmp_path, rng, values=values, fail_after=planned, **kw
        )
        state = read_shard_manifest(manifest)["state"]
        assert state["phase"] == "scan"
        assert sum(state["done"]) == 1
        result = scan_file_sharded(raw, out, resume=True, **config)
        assert result.counters.resumes == 1
        assert result.passes == 1
        got = np.fromfile(out, dtype=expected.dtype)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", CARRY_KINDS)
    def test_wrong_aggregate_length_rejected(self, tmp_path, rng, kind):
        values, kw, _ = self.carry_kind_job(kind, rng)
        values, raw, out, manifest, config = self.run_interrupted(
            tmp_path, rng, values=values, fail_after=2, **kw
        )
        payload = json.loads(manifest.read_text())
        aggregates = payload["state"]["aggregates"]
        i = next(i for i, blob in enumerate(aggregates) if blob is not None)
        short = base64.b64decode(aggregates[i])[:-1]
        aggregates[i] = base64.b64encode(short).decode("ascii")
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StreamError, match=f"aggregate for shard {i}"):
            scan_file_sharded(raw, out, resume=True, **config)

    def test_resume_with_mismatched_config_rejected(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        bad = dict(config, order=1)
        with pytest.raises(CheckpointMismatchError, match="order"):
            scan_file_sharded(raw, out, resume=True, **bad)

    def test_resume_with_different_input_rejected(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        other = write_input(tmp_path, make_int_array(rng, 50_000), "other.bin")
        with pytest.raises(CheckpointMismatchError, match="elements"):
            scan_file_sharded(other, out, resume=True, **config)

    def test_resume_with_missing_output_rejected(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        out.unlink()
        with pytest.raises(StreamError, match="cannot resume"):
            scan_file_sharded(raw, out, resume=True, **config)

    def test_resume_keeps_stored_shard_plan(self, tmp_path, rng):
        # Shard boundaries are part of the on-disk layout; a resume
        # with a different --shards must continue the stored plan.
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        config["shards"] = 3
        result = scan_file_sharded(raw, out, resume=True, **config)
        assert result.num_shards == 6
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)

    def test_fresh_start_deletes_stale_manifest(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        assert manifest.exists()
        scan_file_sharded(raw, out, **config)  # fresh start, no resume
        assert not manifest.exists()
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)

    def test_corrupt_manifest_rejected(self, tmp_path, rng):
        values, raw, out, manifest, config = self.run_interrupted(tmp_path, rng)
        manifest.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            scan_file_sharded(raw, out, resume=True, **config)

    def test_resume_without_manifest_starts_fresh(self, tmp_path, rng):
        values = make_int_array(rng, 5_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int32", shards=4, chunk_bytes=4096,
            checkpoint=tmp_path / "never-written.manifest", resume=True,
        )
        assert result.counters.resumes == 0
        assert np.array_equal(
            np.fromfile(out, dtype=np.int32), host_prefix_sum(values)
        )


class TestManifestValidation:
    """A manifest is a file from outside the program: a resume checks
    its shard plan and every per-shard record against the job before
    using any of it."""

    def edited_resume(self, tmp_path, edit, values=None, raw=None, **kw):
        """Kill a job after two shard completions, apply ``edit`` to
        the manifest document, and resume."""
        if raw is None:
            if values is None:
                values = np.arange(4_000, dtype=np.int64) % 97 - 48
            raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        manifest = tmp_path / "job.manifest"
        config = dict(
            dtype="int64", order=2, shards=4, workers=1, chunk_bytes=4096,
            checkpoint=manifest,
        )
        config.update(kw)
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(raw, out, fail_after_shards=2, **config)
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))
        return scan_file_sharded(raw, out, resume=True, **config)

    def test_overlapping_plan_rejected(self, tmp_path):
        def edit(payload):
            payload["shards"][0] = [0, 1500]  # overlaps [1000, 2000)

        with pytest.raises(CheckpointMismatchError, match="do not tile"):
            self.edited_resume(tmp_path, edit)

    def test_short_done_list_rejected(self, tmp_path):
        def edit(payload):
            payload["state"]["done"].pop()

        with pytest.raises(CheckpointMismatchError, match="'done'"):
            self.edited_resume(tmp_path, edit)

    def test_missing_aggregates_key_rejected(self, tmp_path):
        def edit(payload):
            del payload["state"]["aggregates"]

        with pytest.raises(CheckpointMismatchError, match="'aggregates'"):
            self.edited_resume(tmp_path, edit)

    def test_scan_phase_without_aggregates_rejected(self, tmp_path):
        def edit(payload):
            payload["state"]["phase"] = "scan"
            payload["state"]["done"] = [False] * 4

        with pytest.raises(CheckpointMismatchError, match="no aggregate"):
            self.edited_resume(tmp_path, edit)

    def test_version_1_manifest_rejected(self, tmp_path):
        def edit(payload):
            payload["version"] = 1

        with pytest.raises(CheckpointError, match="version 1"):
            self.edited_resume(tmp_path, edit)

    @pytest.mark.parametrize("corrupt", [
        lambda blob: 5,
        lambda blob: blob[:4] + "*" + blob[4:],  # only validate=True sees it
    ], ids=["integer", "stray-character"])
    def test_malformed_aggregate_rejected(self, tmp_path, corrupt):
        def edit(payload):
            aggregates = payload["state"]["aggregates"]
            aggregates[0] = corrupt(aggregates[0])

        with pytest.raises(CheckpointMismatchError, match="aggregate"):
            self.edited_resume(tmp_path, edit)

    def test_compensated_plan_off_segment_grid_rejected(self, tmp_path, rng):
        values = rng.standard_normal(3 * kernels.segment_span(1) + 5)

        def edit(payload):
            payload["shards"][0][1] = payload["shards"][1][0] = 4_000

        with pytest.raises(CheckpointMismatchError, match="multiples of 4096"):
            self.edited_resume(
                tmp_path, edit, values=values, dtype="float64", order=1,
                shards=3, float_mode="compensated",
            )

    def test_blocked_plan_off_container_blocks_rejected(self, tmp_path):
        from repro.compression import BlockedDeltaCodec

        values = np.arange(4_000, dtype=np.int64) % 97 - 48
        raw = tmp_path / "in.samb"
        raw.write_bytes(
            BlockedDeltaCodec(block_elements=512).compress(values).data
        )

        def edit(payload):
            payload["shards"][0][1] = payload["shards"][1][0] = 1_000

        with pytest.raises(CheckpointMismatchError, match="multiples of 512"):
            self.edited_resume(tmp_path, edit, raw=raw)


class TestAdaptiveChunks:
    def test_chunks_grow_from_a_small_start(self, tmp_path, rng):
        values = make_int_array(rng, 200_000, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int64", shards=2, workers=1,
            chunk_bytes=64 << 10,  # start at the floor; fast chunks double
        )
        assert result.counters.chunk_resizes > 0
        assert np.array_equal(
            np.fromfile(out, dtype=np.int64), host_prefix_sum(values)
        )

    def test_disabled_means_fixed_chunks(self, tmp_path, rng):
        values = make_int_array(rng, 50_000)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int32", shards=2, chunk_bytes=4096,
            adaptive_chunks=False,
        )
        assert result.counters.chunk_resizes == 0
        assert np.array_equal(
            np.fromfile(out, dtype=np.int32), host_prefix_sum(values)
        )


class TestShardedResumeAfterKill:
    """A *real* kill: SIGKILL the sharded CLI mid-run, then resume."""

    def test_sigkill_then_resume(self, tmp_path, rng):
        values = make_int_array(rng, 1 << 20, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        manifest = tmp_path / "job.manifest"
        args = [
            str(raw), str(out), "--dtype", "int64", "--order", "2",
            "--shards", "8", "--workers", "2", "--chunk-bytes", "16384",
            "--checkpoint", str(manifest),
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
                not manifest.exists()
                and proc.poll() is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            killed = proc.poll() is None
            if killed:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        # If the job finished before the kill landed, the manifest is
        # gone and --resume starts fresh; bit-identity holds either way.
        from repro.__main__ import main

        assert main(["stream", *args, "--resume"]) == 0
        expected = host_prefix_sum(values, order=2)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        if killed:
            assert not manifest.exists()
        assert not (tmp_path / "out.bin.scratch").exists()


class TestShardThreads:
    """Slab threads under the shard pool (combined oversubscription guard)."""

    def test_threads_bit_identical_and_counted(self, tmp_path, rng, monkeypatch):
        # Order 1 at tuple size 3 is the row kind (the slab driver's
        # only one); the zeroed cutover lets 16 KiB chunks reach it.
        from repro.kernels import threaded

        monkeypatch.setattr(threaded, "PARALLEL_CUTOVER_BYTES", 0)
        values = make_int_array(rng, 50_021, dtype=np.int64)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int64", order=1, tuple_size=3,
            shards=4, workers=2, chunk_bytes=1 << 14, threads=8,
        )
        expected = host_prefix_sum(values, order=1, tuple_size=3)
        assert np.array_equal(np.fromfile(out, dtype=np.int64), expected)
        # 8-thread budget over 2 workers -> 4 slab threads per shard task.
        assert result.counters.threaded_scans > 0

    def test_thread_budget_smaller_than_workers_stays_serial(self, tmp_path, rng):
        values = make_int_array(rng, 10_007)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype="int32", shards=4, workers=4,
            chunk_bytes=1 << 14, threads=2,
        )
        expected = host_prefix_sum(values)
        assert np.array_equal(np.fromfile(out, dtype=np.int32), expected)
        # budget // workers == 0 -> clamped to 1 thread -> serial kernel.
        assert result.counters.threaded_scans == 0


#: One job per carry kind for the traffic and crash-point checks: the
#: plain row, the fused (q, s) matrix at s == 1 and at s == 3, and the
#: compensated chain.  name -> (values, job options, expected output).
def traffic_job(name):
    rng = np.random.default_rng(7)
    if name == "int32-q1":
        values = make_int_array(rng, 20_011)
        kw = dict(dtype="int32")
        return values, kw, prefix_sum_serial(values)
    if name.startswith("int64-q2"):
        s = int(name[-1])
        values = make_int_array(rng, 20_011, dtype=np.int64)
        kw = dict(dtype="int64", order=2, tuple_size=s, inclusive=s == 1)
        expected = prefix_sum_serial(
            values, order=2, tuple_size=s, inclusive=s == 1
        )
        return values, kw, expected
    values = rng.standard_normal(4 * kernels.segment_span(1) + 77)
    kw = dict(dtype="float64", float_mode="compensated", inclusive=False)
    expected = kernels.compensated_scan_into(
        values, np.empty_like(values), "add", inclusive=False
    )
    return values, kw, expected


TRAFFIC_JOBS = ("int32-q1", "int64-q2-s1", "int64-q2-s3", "float64-compensated")


class TestReduceThenScanTraffic:
    """The output is written once and no scratch file ever exists, at
    every order and for every carry kind."""

    @pytest.mark.parametrize("name", TRAFFIC_JOBS)
    def test_output_written_once_without_scratch(self, tmp_path, name):
        values, kw, expected = traffic_job(name)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        scratch = tmp_path / "out.bin.scratch"
        config = dict(
            kw, shards=4, workers=2, chunk_bytes=8192,
            checkpoint=tmp_path / "job.manifest",
        )
        # A crash at the first scan completion, after the reduce pass.
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(raw, out, fail_after_shards=4, **config)
        assert not scratch.exists()
        resumed = scan_file_sharded(raw, out, resume=True, **config)
        assert not scratch.exists()
        assert np.fromfile(out, expected.dtype).tobytes() == expected.tobytes()
        result = scan_file_sharded(raw, out, **config)
        assert result.fallback_reason is None
        assert not scratch.exists()
        assert result.counters.bytes_out == out.stat().st_size
        # Resumed counters add the three rescanned shards to the one
        # the crashed run recorded.
        assert resumed.counters.bytes_out == out.stat().st_size
        assert np.fromfile(out, expected.dtype).tobytes() == expected.tobytes()


class TestOrderFallback:
    """Order q >= 2 shards only integer add; every other operator, and
    regrouped floats, run the single-stream scan and say why."""

    @pytest.mark.parametrize("dtype,op,float_mode", [
        ("int64", "max", None),
        ("int64", "xor", None),
        ("int64", "mul", None),
        ("float64", "add", "regrouped"),
    ])
    def test_order2_falls_back_bit_identically(
        self, tmp_path, rng, dtype, op, float_mode
    ):
        if dtype == "float64":
            values = rng.standard_normal(9_001)
        else:
            values = rng.integers(-3, 4, 9_001).astype(dtype)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        result = scan_file_sharded(
            raw, out, dtype=dtype, op=op, order=2, tuple_size=2,
            shards=4, workers=2, chunk_bytes=4096, float_mode=float_mode,
        )
        assert result.fallback_reason is not None
        assert result.num_shards == 1
        expected = prefix_sum_serial(values, order=2, tuple_size=2, op=op)
        assert np.fromfile(out, values.dtype).tobytes() == expected.tobytes()


class TestCrashPoints:
    """Every crash point of both passes, for every carry kind: a job of
    S shards completes S - 1 reduce shards, then S scan shards.  A job
    killed after any completion resumes to the one-shot bytes."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", TRAFFIC_JOBS)
    def test_every_crash_point_resumes_bit_identically(
        self, tmp_path, name, workers
    ):
        values, kw, expected = traffic_job(name)
        raw = write_input(tmp_path, values)
        out = tmp_path / "out.bin"
        manifest = tmp_path / "job.manifest"
        shards = 4
        config = dict(
            kw, shards=shards, workers=workers, chunk_bytes=8192,
            checkpoint=manifest,
        )
        completions = 2 * shards - 1
        for crash in range(1, completions + 1):
            if crash < completions:
                with pytest.raises(InjectedFailureError):
                    scan_file_sharded(raw, out, fail_after_shards=crash, **config)
                phase = read_shard_manifest(manifest)["state"]["phase"]
                assert phase == ("reduce" if crash < shards else "scan")
                scan_file_sharded(raw, out, resume=True, **config)
            else:  # the last completion finishes the job
                scan_file_sharded(raw, out, fail_after_shards=crash, **config)
            assert not manifest.exists()
            got = np.fromfile(out, expected.dtype)
            assert got.tobytes() == expected.tobytes(), crash
