"""The execution planner (:mod:`repro.plan`).

Covers the decision layer end to end: workload/machine descriptors,
the gate table (carry kind × source × size vs cutover × core count),
the correctness gate that makes every plan bit-identical to the serial
reference by construction, the flag-less ``repro.scan`` /
``repro.scan_file`` dispatch, resume pinning, ``explain``, and the
``planner_*`` counter plumbing.
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
    Machine,
    Workload,
    auto_scan,
    explain_scan,
    machine_snapshot,
    plan_file_scan,
    plan_scan,
    session_threads,
)
from repro.kernels.threaded import PARALLEL_CUTOVER_BYTES
from repro.plan.workload import _reset_machine_memo
from repro.reference import prefix_sum_serial
from repro.stream.counters import StreamCounters

from conftest import make_int_array


@pytest.fixture(autouse=True)
def isolated_planner():
    """Every test starts from fresh machine snapshots."""
    _reset_machine_memo()
    yield
    _reset_machine_memo()


def fake_machine(cpu_count=8) -> Machine:
    return Machine(cpu_count=cpu_count)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(nbytes=-1, dtype="int64")
        with pytest.raises(ValueError):
            Workload(nbytes=1, dtype="int64", order=0)
        with pytest.raises(ValueError):
            Workload(nbytes=1, dtype="int64", source="tape")

    def test_machine_snapshot_is_memoized(self):
        a = machine_snapshot()
        b = machine_snapshot()
        assert a is b
        assert a.cpu_count >= 1


# -- planning decisions ------------------------------------------------------


class TestPlanScan:
    def test_empty_and_tiny_stay_serial(self):
        before = PLANNER_COUNTERS.tiny_shortcuts
        for n in (0, 1, 100, TINY_BYTES // 8):
            plan = plan_scan(Workload(nbytes=n * 8, dtype="int64"))
            assert plan.chosen.strategy == "serial"
            assert [gate[0] for gate in plan.gates] == ["tiny"]  # no machine read
        assert PLANNER_COUNTERS.tiny_shortcuts == before + 4

    def test_no_process_pool_candidate(self):
        for nbytes in (1 << 20, 64 << 20, 1 << 30):
            for w in (
                Workload(nbytes=nbytes, dtype="int32"),
                Workload(nbytes=nbytes, dtype="int64", order=3),
                Workload(nbytes=nbytes, dtype="float64", float_mode="compensated"),
            ):
                plan = plan_scan(w, machine=fake_machine(cpu_count=8))
                assert not plan.chosen.label.startswith("parallel")

    def test_floats_and_looped_ops_only_get_serial(self):
        for w in (
            Workload(nbytes=64 << 20, dtype="float64"),
            Workload(nbytes=64 << 20, dtype="int64", op="local_unregistered"),
            Workload(nbytes=64 << 20, dtype="int64", contiguous=False),
        ):
            plan = plan_scan(w, machine=fake_machine(cpu_count=8))
            assert plan.chosen.strategy == "serial"
            name, _, verdict = plan.gates[-1]
            assert (name, verdict) == ("correct", "serial")

    def test_single_core_file_job_never_proposes_sharding(self):
        w = Workload(nbytes=64 << 20, dtype="int64", source="file")
        plan = plan_scan(w, machine=fake_machine(cpu_count=1))
        assert plan.chosen.strategy == "stream"

    def test_tune_disable_still_plans_on_static_heuristics(self, monkeypatch):
        # Nothing reads REPRO_TUNE_DISABLE any more: a leftover setting
        # must change nothing.
        monkeypatch.setenv("REPRO_TUNE_DISABLE", "1")
        _reset_machine_memo()
        w = Workload(nbytes=8 << 20, dtype="int64")
        plan = plan_scan(w)  # real snapshot: must not raise, must not measure
        assert plan.gates[-1][0] in ("cores", "cutover")
        x = np.arange(1000, dtype=np.int64)
        assert np.array_equal(repro.scan(x), prefix_sum_serial(x))

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

    def test_file_jobs_force_stream_only(self):
        w = Workload(nbytes=64 << 20, dtype="int64", source="file")
        plan = plan_scan(w, machine=fake_machine(cpu_count=8), force="stream")
        assert plan.chosen.params == {"chunk_bytes": 16 << 20}
        for force in ("sharded:2", "stream_threaded:2", "serial"):
            with pytest.raises(ValueError, match="cannot force"):
                plan_scan(w, machine=fake_machine(cpu_count=8), force=force)

    def test_counters_record_plans(self):
        before = PLANNER_COUNTERS.plans
        plan_scan(Workload(nbytes=8 << 20, dtype="int64"),
                  machine=fake_machine(cpu_count=1))
        assert PLANNER_COUNTERS.plans == before + 1
        assert PLANNER_COUNTERS.last_strategy == "serial"
        assert PLANNER_COUNTERS.to_dict()["by_strategy"]["serial"] >= 1


# -- the gate table ------------------------------------------------------------

#: The one parallel cutover the cutover gate reads.
CUTOVER = PARALLEL_CUTOVER_BYTES

#: Workload fields per carry kind.
KINDS = {
    "row": dict(dtype="int64"),
    "fused": dict(dtype="int64", order=3, tuple_size=4),
    "compensated": dict(dtype="float64", float_mode="compensated"),
}

#: Sizes on either side of the cutover (``Workload`` is shape-only:
#: nothing is allocated).
SIZES = {"below": CUTOVER - 8, "at": CUTOVER, "above": 64 * CUTOVER}

SERIAL = ("serial",) * 3
THREADED = ("serial", "threaded:2", "threaded:8")
STREAM = ("stream",) * 3

#: (kind, source, size) -> expected label on 1, 2 and 8 cores.
GATE_TABLE = {
    ("row", "memory", "below"): SERIAL,
    ("row", "memory", "at"): THREADED,
    ("row", "memory", "above"): THREADED,
    ("fused", "memory", "below"): SERIAL,
    ("fused", "memory", "at"): SERIAL,
    ("fused", "memory", "above"): SERIAL,
    ("compensated", "memory", "below"): SERIAL,
    ("compensated", "memory", "at"): SERIAL,
    ("compensated", "memory", "above"): SERIAL,
    **{
        (kind, source, size): STREAM
        for kind in KINDS
        for source in ("file", "compressed-file")
        for size in SIZES
        if not (kind == "compensated" and source == "compressed-file")
    },
}


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("kind,source,size", list(GATE_TABLE))
def test_gate_table(kind, source, size, cores):
    w = Workload(nbytes=SIZES[size], source=source, **KINDS[kind])
    assert w.kind == kind
    plan = plan_scan(w, machine=fake_machine(cpu_count=cores))
    want = GATE_TABLE[kind, source, size][[1, 2, 8].index(cores)]
    assert plan.chosen.label == want
    name, seen, verdict = plan.gates[-1]
    assert verdict == want  # the deciding gate's verdict
    if name == "cutover":
        assert seen == f"{SIZES[size]:,} B vs {CUTOVER:,} B"


def test_file_plans_never_read_the_machine(tmp_path, monkeypatch):
    """Flag-less ``scan_file`` plans on every call: planning a file must
    not take a machine snapshot."""
    import repro.plan.planner

    def boom():
        raise AssertionError("file planning read the machine")

    monkeypatch.setattr(repro.plan.planner, "machine_snapshot", boom)
    src = tmp_path / "in.bin"
    for nbytes in (64 << 10, 256 << 10, 1 << 20, 4 << 20):
        np.zeros(nbytes // 8, dtype=np.int64).tofile(src)
        plan = plan_file_scan(str(src), "int64", order=2)
        assert plan.chosen.label == "stream"
        assert plan.chosen.params["chunk_bytes"] == nbytes


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
        # Order 2 tuple 1 under max is the row kind, so every arm runs;
        # order 2 tuple 3 runs the serial tile loop under any operator,
        # which has no slab path.
        values = make_int_array(rng, 5003, dtype=np.int64)
        want = prefix_sum_serial(values, order=2, tuple_size=1, op="max")
        for force in ("serial", "threaded:2", "threaded:3"):
            got = auto_scan(values, op="max", order=2, tuple_size=1, force=force)
            assert np.array_equal(got, want), force
        for op in ("add", "max"):
            with pytest.raises(ValueError, match="cannot force"):
                auto_scan(values, op=op, order=2, tuple_size=3, force="threaded:2")

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
        assert "gate" in text and "verdict" in text
        assert f"chosen {plan.chosen.label}: {plan.reason}" in text
        assert str(plan) == text

    def test_explain_by_shape_without_data(self):
        plan = explain_scan(nbytes=32 << 20, dtype="int64", source="file")
        assert plan.workload.source == "file"
        assert plan.chosen.strategy == "stream"

    def test_explain_gate_choices(self, monkeypatch):
        import repro.kernels.threaded

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        fused = explain_scan(nbytes=512 << 20, dtype="int64", order=3,
                             tuple_size=4)
        assert fused.chosen.label == "serial"
        assert ("kind", "fused (order 3, tuple size 4)", "serial") in fused.gates
        compensated = explain_scan(nbytes=40 << 20, dtype="float64",
                                   float_mode="compensated")
        assert compensated.chosen.label == "serial"
        assert compensated.gates[-1][0] == "kind"
        row = explain_scan(nbytes=512 << 20, dtype="int64")
        assert row.chosen.label == "threaded:4"
        assert [gate[0] for gate in row.gates] == [
            "tiny", "correct", "kind", "cores", "cutover",
        ]
        assert all(gate[1] in row.explain() for gate in row.gates)
        # The cutover gate reads the threaded kernel's one constant.
        monkeypatch.setattr(repro.kernels.threaded, "PARALLEL_CUTOVER_BYTES",
                            1 << 30)
        below = explain_scan(nbytes=512 << 20, dtype="int64")
        assert below.gates[-1] == (
            "cutover", f"{512 << 20:,} B vs {1 << 30:,} B", "serial"
        )

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
        text = capsys.readouterr().out
        assert "planner:" in text and "verdict" in text
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
        assert c.planner_strategy == "stream"
        assert (c.planner_cache_hits, c.planner_cache_misses,
                c.planner_feedback_updates) == (0, 0, 0)

    def test_pinned_knobs_bypass_the_planner(self, tmp_path, rng):
        values = make_int_array(rng, 50_000, dtype=np.int32)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        values.tofile(src)
        result = repro.scan_file(str(src), str(dst), dtype="int32", shards=2)
        assert result.counters.planner_strategy == ""
        assert np.array_equal(
            np.fromfile(dst, dtype=np.int32), prefix_sum_serial(values)
        )

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
        # session_threads reads the planner's machine snapshot; the memo
        # is restored when the test ends.
        import repro.plan.workload as workload

        monkeypatch.setattr(workload, "_MACHINE", None)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert session_threads("int64", "add") == "auto"
        assert session_threads("float64", "add") is None
        # The compensated kind has no slab path.
        assert session_threads("float64", "add", "compensated") is None
        assert session_threads("float64", "max", "compensated") is None
        # Order q >= 2 at s >= 2 runs the serial tile loop.
        assert session_threads("int64", "add", order=3, tuple_size=4) is None
        assert session_threads("int64", "max", order=2, tuple_size=1) == "auto"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        _reset_machine_memo()
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
