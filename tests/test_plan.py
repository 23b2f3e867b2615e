"""The execution planner (:mod:`repro.plan`).

Covers the decision layer end to end: workload/machine descriptors,
the calibration store's robustness contract (cold cache, corrupt file,
disabled), the candidate gating that makes every plan bit-identical to
the serial reference by construction, the online feedback loop, the
flag-less ``repro.scan`` / ``repro.scan_file`` dispatch, resume
pinning, ``explain``, and the ``planner_*`` counter plumbing.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro.plan import (
    PLANNER_COUNTERS,
    TINY_BYTES,
    CalibrationStore,
    Machine,
    Workload,
    auto_scan,
    explain_scan,
    get_store,
    machine_snapshot,
    plan_file_scan,
    plan_scan,
    session_threads,
)
from repro.plan.calibration import _reset_store_memo
from repro.plan.workload import _reset_machine_memo
from repro.reference import prefix_sum_serial
from repro.stream.counters import StreamCounters

from conftest import make_int_array


@pytest.fixture(autouse=True)
def isolated_planner(tmp_path, monkeypatch):
    """Every test gets its own calibration file and fresh memos."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "calibration.json"))
    _reset_store_memo()
    _reset_machine_memo()
    yield
    _reset_store_memo()
    _reset_machine_memo()


def fake_machine(cpu_count=8, cutover=1 << 20) -> Machine:
    return Machine(
        cpu_count=cpu_count,
        block_bytes=128 << 10,
        parallel_cutover_bytes=cutover,
        tuning_source="test",
    )


# -- Workload / Machine descriptors -----------------------------------------


class TestWorkload:
    def test_from_array_fields(self):
        w = Workload.from_array(
            np.ones(1000, dtype=np.int64), op="max", order=2, tuple_size=4
        )
        assert w.nbytes == 8000
        assert w.dtype == "int64"
        assert w.op == "max"
        assert (w.order, w.tuple_size) == (2, 4)
        assert w.source == "memory"
        assert w.integer and w.vectorized and w.contiguous

    def test_float_and_looped_ops_are_not_parallel_safe(self):
        from repro.ops import AssociativeOp

        f = Workload.from_array(np.ones(10, dtype=np.float64))
        assert not f.integer
        custom = AssociativeOp(
            "local_second", fn=lambda a, b: b, identity_fn=lambda dt: 0
        )
        m = Workload.from_array(np.ones(10, dtype=np.int64), op=custom)
        assert not m.vectorized  # unregistered op: looped, serial-only

    def test_calibration_key_buckets_by_log2_size(self):
        small = Workload(nbytes=48 << 20, dtype="int64")
        near = Workload(nbytes=60 << 20, dtype="int64")
        far = Workload(nbytes=6 << 10, dtype="int64")
        assert small.calibration_key("serial") == near.calibration_key("serial")
        assert small.calibration_key("serial") != far.calibration_key("serial")
        assert "serial|memory|int64|add|q1|s1|b" in small.calibration_key("serial")

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(nbytes=-1, dtype="int64")
        with pytest.raises(ValueError):
            Workload(nbytes=1, dtype="int64", order=0)
        with pytest.raises(ValueError):
            Workload(nbytes=1, dtype="int64", source="tape")

    def test_machine_snapshot_is_memoized(self):
        a = machine_snapshot("int64")
        b = machine_snapshot("int64")
        assert a is b
        assert a.cpu_count >= 1


# -- calibration store robustness -------------------------------------------


class TestCalibrationStore:
    def test_cold_cache_is_a_miss_not_an_error(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "missing.json"))
        assert store.throughput("serial|memory|int64|add|q1|s1|b20") is None
        assert store.samples("anything") == 0

    def test_corrupt_store_ignored_not_fatal(self, tmp_path):
        path = tmp_path / "corrupt.json"
        for garbage in ("{truncated", "[]", '{"version": 99, "entries": 1}',
                        '{"version": 1, "entries": {"k": {"bad": true}}}'):
            path.write_text(garbage)
            _reset_store_memo()
            store = CalibrationStore(str(path))
            assert store.throughput("k") is None
            # ... and observing over the corpse works (overwrites it).
            assert store.observe("k", 1e9)
            assert store.throughput("k") == pytest.approx(1e9)

    def test_ewma_feedback_converges(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "c.json"))
        store.observe("key", 1e9)
        for _ in range(20):
            store.observe("key", 4e9)
        assert store.throughput("key") == pytest.approx(4e9, rel=0.05)
        assert store.samples("key") == 21

    def test_persisted_across_instances(self, tmp_path):
        path = str(tmp_path / "c.json")
        CalibrationStore(path).observe("key", 2e9)
        assert CalibrationStore(path).throughput("key") == pytest.approx(2e9)

    def test_converged_buckets_skip_the_disk_write(self, tmp_path):
        path = tmp_path / "c.json"
        store = CalibrationStore(str(path))
        for _ in range(5):
            store.observe("key", 1e9)  # EWMA settles immediately
        before = path.read_text()
        store.observe("key", 1.001e9)  # < 2% movement: memory only
        assert path.read_text() == before

    def test_tune_disable_turns_calibration_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_DISABLE", "1")
        store = CalibrationStore(str(tmp_path / "c.json"))
        assert not store.observe("key", 1e9)
        assert store.throughput("key") is None
        assert not (tmp_path / "c.json").exists()

    def test_unwritable_store_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = CalibrationStore(str(blocker / "sub" / "calibration.json"))
        assert store.observe("key", 1e9)  # persist fails silently
        assert store.throughput("key") == pytest.approx(1e9)


# -- planning decisions ------------------------------------------------------


class TestPlanScan:
    def test_empty_and_tiny_stay_serial(self):
        before = PLANNER_COUNTERS.tiny_shortcuts
        for n in (0, 1, 100, TINY_BYTES // 8):
            plan = plan_scan(Workload(nbytes=n * 8, dtype="int64"))
            assert plan.chosen.strategy == "serial"
            assert plan.store is None  # no store consult on the fast path
        assert PLANNER_COUNTERS.tiny_shortcuts == before + 4

    def test_cold_cache_uses_model_and_safe_default(self):
        w = Workload(nbytes=8 << 20, dtype="int64")
        plan = plan_scan(w, machine=fake_machine(cpu_count=1))
        assert plan.chosen.strategy == "serial"
        assert plan.chosen.throughput_source == "model"

    def test_multicore_machine_prices_the_threaded_ladder(self):
        w = Workload(nbytes=64 << 20, dtype="int64")
        plan = plan_scan(w, machine=fake_machine(cpu_count=8))
        labels = [c.label for c in plan.candidates]
        assert "serial" in labels
        assert any(l.startswith("threaded:") for l in labels)
        assert plan.chosen.strategy == "threaded"  # model: slabs win at 64 MiB

    def test_no_process_pool_candidate(self):
        for nbytes in (1 << 20, 64 << 20, 1 << 30):
            for w in (
                Workload(nbytes=nbytes, dtype="int32"),
                Workload(nbytes=nbytes, dtype="int64", order=3),
                Workload(nbytes=nbytes, dtype="float64", float_mode="compensated"),
            ):
                plan = plan_scan(w, machine=fake_machine(cpu_count=8))
                labels = [c.label for c in plan.candidates]
                assert not any(l.startswith("parallel") for l in labels), labels

    def test_floats_and_looped_ops_only_get_serial(self):
        for w in (
            Workload(nbytes=64 << 20, dtype="float64"),
            Workload(nbytes=64 << 20, dtype="int64", op="local_unregistered"),
            Workload(nbytes=64 << 20, dtype="int64", contiguous=False),
        ):
            plan = plan_scan(w, machine=fake_machine(cpu_count=8))
            assert [c.strategy for c in plan.candidates] == ["serial"]

    def test_single_core_file_job_never_proposes_sharding(self):
        w = Workload(nbytes=64 << 20, dtype="int64", source="file")
        plan = plan_scan(w, machine=fake_machine(cpu_count=1))
        assert [c.strategy for c in plan.candidates] == ["stream"]

    def test_multicore_file_job_prices_shards(self):
        w = Workload(nbytes=64 << 20, dtype="int64", source="file")
        plan = plan_scan(w, machine=fake_machine(cpu_count=4))
        strategies = {c.strategy for c in plan.candidates}
        assert {"stream", "stream_threaded", "sharded"} <= strategies

    def test_plan_disable_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_DISABLE", "1")
        w = Workload(nbytes=64 << 20, dtype="int64")
        plan = plan_scan(w, machine=fake_machine(cpu_count=8))
        assert plan.chosen.strategy == "serial"
        assert "REPRO_PLAN_DISABLE" in plan.reason
        assert session_threads("int64") is None

    def test_tune_disable_still_plans_on_static_heuristics(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_DISABLE", "1")
        _reset_machine_memo()
        w = Workload(nbytes=8 << 20, dtype="int64")
        plan = plan_scan(w)  # real snapshot: must not raise, must not measure
        assert plan.chosen.throughput_source == "model"
        x = np.arange(1000, dtype=np.int64)
        assert np.array_equal(repro.scan(x), prefix_sum_serial(x))

    def test_feedback_loop_turns_model_into_measured(self):
        w = Workload(nbytes=8 << 20, dtype="int64")
        machine = fake_machine(cpu_count=1)
        store = get_store()
        first = plan_scan(w, machine=machine, store=store)
        assert not first.cache_hit
        assert first.observe(seconds=0.004)
        second = plan_scan(w, machine=machine, store=store)
        assert second.cache_hit
        assert second.chosen.throughput_source == "measured"
        # the measured rate is what we reported: nbytes / seconds
        key = second.chosen.calibration_key(w)
        assert store.throughput(key) == pytest.approx(w.nbytes / 0.004)

    def test_anchored_model_never_beats_measurement_with_optimism(self):
        # After an honest (slow) stream measurement, the sharded model
        # must be re-anchored to it rather than keeping the optimistic
        # default rate and "winning" on paper.
        w = Workload(nbytes=64 << 20, dtype="int64", source="file")
        machine = fake_machine(cpu_count=4)
        store = get_store()
        store.observe(w.calibration_key("stream"), 1e8)  # slow disk
        plan = plan_scan(w, machine=machine, store=store)
        stream = next(c for c in plan.candidates if c.strategy == "stream")
        sharded = next(c for c in plan.candidates if c.strategy == "sharded")
        # sharded may still win on parallelism, but only by its modeled
        # relative edge, not by an order-of-magnitude absolute fantasy.
        assert sharded.predicted_seconds > stream.predicted_seconds / 8

    def test_force_unsafe_strategy_rejected(self):
        w = Workload.from_array(np.ones(200_000, dtype=np.float64))
        with pytest.raises(ValueError, match="cannot force"):
            plan_scan(w, machine=fake_machine(), force="threaded:2")

    def test_forced_strategy_is_synthesized_when_gated_out(self):
        w = Workload(nbytes=1 << 20, dtype="int64")  # one core: no threads
        plan = plan_scan(w, machine=fake_machine(cpu_count=1), force="threaded:2")
        assert plan.chosen.label == "threaded:2"
        assert "forced" in plan.reason

    def test_force_process_pool_rejected(self):
        w = Workload(nbytes=64 << 20, dtype="int64")
        with pytest.raises(ValueError, match="cannot force"):
            plan_scan(w, machine=fake_machine(cpu_count=8), force="parallel:2")

    def test_counters_record_plans(self):
        before = PLANNER_COUNTERS.plans
        plan_scan(Workload(nbytes=8 << 20, dtype="int64"),
                  machine=fake_machine(cpu_count=1))
        assert PLANNER_COUNTERS.plans == before + 1
        assert PLANNER_COUNTERS.last_strategy == "serial"
        assert PLANNER_COUNTERS.to_dict()["by_strategy"]["serial"] >= 1


# -- execution: bit-identity through every dispatch arm ----------------------


class TestAutoScan:
    def test_flagless_scan_matches_reference(self, rng):
        for dtype in (np.int32, np.int64, np.uint64):
            for op in ("add", "max", "xor"):
                values = make_int_array(rng, 4097, dtype=dtype)
                got = repro.scan(values, op=op)
                assert np.array_equal(got, prefix_sum_serial(values, op=op))

    def test_flagless_prefix_sum_higher_order_tuples(self, rng):
        values = make_int_array(rng, 6000, dtype=np.int64)
        got = repro.prefix_sum(values, order=3, tuple_size=2)
        assert np.array_equal(
            got, prefix_sum_serial(values, order=3, tuple_size=2)
        )

    def test_empty_input(self):
        out = repro.scan(np.array([], dtype=np.int64))
        assert out.size == 0 and out.dtype == np.int64

    def test_engine_auto_string_is_the_planner(self, rng):
        values = make_int_array(rng, 1000, dtype=np.int64)
        got = repro.scan(values, engine="auto")
        assert np.array_equal(got, prefix_sum_serial(values))

    def test_forced_arms_agree_with_reference(self, rng):
        values = make_int_array(rng, 5003, dtype=np.int64)
        want = prefix_sum_serial(values, order=2, tuple_size=3)
        for force in ("serial", "threaded:2", "threaded:3"):
            got = auto_scan(values, order=2, tuple_size=3, force=force)
            assert np.array_equal(got, want), force

    def test_float_input_plans_serial_and_matches(self, rng):
        values = rng.standard_normal(4096)
        got = repro.scan(values)
        assert np.array_equal(got, prefix_sum_serial(values))

    def test_custom_unregistered_op_plans_serial_and_matches(self, rng):
        # An op object the registry has never seen must survive the
        # planner round-trip verbatim (serial-only, original callable).
        from repro.ops import AssociativeOp

        custom = AssociativeOp(
            "local_even_add",
            fn=lambda a, b: np.asarray(a) + np.asarray(b),
            identity_fn=lambda dt: 0,
        )
        values = make_int_array(rng, 3000, dtype=np.int64)
        got = repro.scan(values, op=custom)
        assert np.array_equal(got, prefix_sum_serial(values, op="add"))

    def test_explicit_engine_still_wins_over_planner(self, rng):
        values = make_int_array(rng, 1000, dtype=np.int32)
        got = repro.scan(values, engine="host")
        assert np.array_equal(got, prefix_sum_serial(values))


# -- explain -----------------------------------------------------------------


class TestExplain:
    def test_explain_values_table(self):
        plan = repro.explain(np.ones(200_000, dtype=np.int64))
        text = plan.explain()
        assert "strategy" in text and "predicted" in text
        assert plan.chosen.label in text
        assert str(plan) == text

    def test_explain_by_shape_without_data(self):
        plan = explain_scan(nbytes=32 << 20, dtype="int64", source="file")
        assert plan.workload.source == "file"
        assert plan.chosen.strategy in ("stream", "stream_threaded", "sharded")

    def test_explain_needs_a_workload(self):
        with pytest.raises(ValueError):
            repro.explain()

    def test_cli_explain_runs_nothing(self, tmp_path, rng, capsys):
        from repro.__main__ import main

        raw = tmp_path / "in.bin"
        out = tmp_path / "out.bin"
        make_int_array(rng, 1000, dtype=np.int32).tofile(raw)
        assert main(["scan", str(raw), str(out), "--explain"]) == 0
        assert not out.exists()  # nothing ran
        assert "planner:" in capsys.readouterr().out
        assert main(["stream", str(raw), str(out), "--explain"]) == 0
        assert not out.exists()


# -- flag-less scan_file + resume pinning ------------------------------------


class TestScanFilePlanned:
    def test_flagless_scan_file_matches_and_stamps_counters(self, tmp_path, rng):
        values = make_int_array(rng, 100_000, dtype=np.int32)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        values.tofile(src)
        result = repro.scan_file(str(src), str(dst), dtype="int32")
        assert np.array_equal(
            np.fromfile(dst, dtype=np.int32), prefix_sum_serial(values)
        )
        c = result.counters
        assert c.planner_strategy != ""
        assert c.planner_cache_hits + c.planner_cache_misses == 1

    def test_pinned_knobs_bypass_the_planner(self, tmp_path, rng):
        values = make_int_array(rng, 50_000, dtype=np.int32)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        values.tofile(src)
        result = repro.scan_file(str(src), str(dst), dtype="int32", shards=2)
        assert result.counters.planner_strategy == ""
        assert np.array_equal(
            np.fromfile(dst, dtype=np.int32), prefix_sum_serial(values)
        )

    def test_feedback_lands_in_the_store(self, tmp_path, rng):
        values = make_int_array(rng, 100_000, dtype=np.int32)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        values.tofile(src)
        repro.scan_file(str(src), str(dst), dtype="int32")
        plan = plan_file_scan(str(src), "int32")
        assert plan.cache_hit  # the first run's throughput was recorded

    def test_resume_pins_driver_family_to_the_checkpoint(self, tmp_path, rng):
        from repro.api import _pinned_resume_strategy
        from repro.stream.checkpoint import CHECKPOINT_KIND, MANIFEST_KIND

        ckpt = tmp_path / "job.ckpt"
        ckpt.write_text(json.dumps({"kind": MANIFEST_KIND,
                                    "shards": [{}, {}, {}]}))
        assert _pinned_resume_strategy(str(ckpt)) == ("sharded", 3)
        ckpt.write_text(json.dumps({"kind": CHECKPOINT_KIND}))
        assert _pinned_resume_strategy(str(ckpt)) == ("stream", None)
        ckpt.write_text("{nonsense")
        assert _pinned_resume_strategy(str(ckpt)) is None

    def test_resumed_sharded_job_completes_on_sharded_driver(self, tmp_path, rng):
        # Interrupt a job pinned to the sharded driver, then finish it
        # flag-less: the planner must respect the manifest, not re-plan.
        from repro.stream import StreamError, scan_file_sharded

        values = make_int_array(rng, 120_000, dtype=np.int32)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        ckpt = tmp_path / "job.ckpt"
        values.tofile(src)
        with pytest.raises(StreamError):
            scan_file_sharded(str(src), str(dst), dtype="int32", shards=3,
                              checkpoint=str(ckpt), fail_after_shards=1)
        assert ckpt.exists()
        result = repro.scan_file(str(src), str(dst), dtype="int32",
                                 checkpoint=str(ckpt), resume=True)
        assert result.counters.shards > 0  # ran on the sharded driver
        assert np.array_equal(
            np.fromfile(dst, dtype=np.int32), prefix_sum_serial(values)
        )


# -- session threads + counters ----------------------------------------------


class TestSessionAndCounters:
    def test_session_threads_needs_cores_and_safe_config(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        _reset_machine_memo()
        assert session_threads("int64", "add") == "auto"
        assert session_threads("float64", "add") is None
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert session_threads("int64", "add") is None

    def test_stream_counters_roundtrip_planner_fields(self):
        c = StreamCounters(
            planner_cache_hits=2, planner_cache_misses=1,
            planner_feedback_updates=3, planner_strategy="sharded:4",
        )
        restored = StreamCounters.from_dict(c.to_dict())
        assert restored == c

    def test_aggregate_merges_planner_strategy(self):
        a = StreamCounters(planner_strategy="stream", planner_cache_hits=1)
        b = StreamCounters(planner_strategy="stream")
        total = StreamCounters.aggregate([a, b])
        assert total.planner_strategy == "stream"
        assert total.planner_cache_hits == 1
        mixed = StreamCounters.aggregate(
            [a, StreamCounters(planner_strategy="sharded:2")]
        )
        assert mixed.planner_strategy == "mixed"
