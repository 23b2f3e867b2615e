"""Tests for the single-pass order-q tile loop (``fused_lane_scan``).

The contract: at order >= 2 and tuple_size >= 2 under any ufunc
operator (compensated floats aside) every surface — one-shot
``scan_into``, the ``LaneKernel`` continuation stream, sessions, the
sharded file driver, the batched serve kernel — produces output
bit-identical to pass-per-order scanning while touching the payload
once.  The loop folds each order's running total into a tile's head
row and accumulates, the serial left fold itself, so exact floats and
non-add operators match ``repro.reference`` bit for bit.  That shape
has no slab path: ``threads=`` scans it serially, with the same bytes.
Integer ``add`` (``fused_supported``) is also the binomial kind the
sharded splice and the batched kernel use.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels.lane as lane
from conftest import BOUNDARY_SIZES
from repro.kernels import (
    FUSED_MIN_TUPLE,
    LaneKernel,
    ThreadedScan,
    fused_combine,
    fused_lane_scan,
    fused_supported,
    lane_scan,
    scan_into,
)
from repro.ops import get_op
from repro.plan import Machine, Workload, auto_scan, plan_scan
from repro.reference import prefix_sum_serial
from repro.stream import ScanSession, scan_file_sharded


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pass_per_order(values, order, tuple_size, inclusive=True):
    """The reference layout the fused path must match bit for bit:
    ``order`` iterated lane scans (the pre-fusion kernel structure)."""
    op = get_op("add")
    out = np.empty_like(values)
    current = values
    for _ in range(order):
        lane_scan(current, op, tuple_size, out=out)
        current = out
    if inclusive:
        return out
    from repro.kernels import exclusive_shift

    heads = np.full(
        tuple_size, op.identity(out.dtype), dtype=out.dtype
    )
    return exclusive_shift(out, heads)


def full_range(rng, dtype, n):
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)


class TestGate:
    def test_integer_add_inside_gate(self):
        assert fused_supported("add", np.int64, 3, 4)
        assert fused_supported("add", np.uint32, 2, 2)

    def test_order_one_outside_gate(self):
        assert not fused_supported("add", np.int64, 1, 4)

    def test_float_outside_gate(self):
        assert not fused_supported("add", np.float64, 3, 4)

    def test_non_add_outside_gate(self):
        for op in ("max", "min", "xor", "and", "or"):
            assert not fused_supported(op, np.int64, 3, 4)

    def test_tuple_one_outside_gate(self):
        assert FUSED_MIN_TUPLE >= 2
        assert not fused_supported("add", np.int64, 3, 1)
        # tuple_size=None defers the engagement heuristic to the caller.
        assert fused_supported("add", np.int64, 3, None)

    def test_workload_kind_mirrors_gate(self):
        kw = dict(nbytes=1 << 20, dtype="int64", op="add")
        assert Workload(order=3, tuple_size=4, **kw).kind == "fused"
        assert Workload(order=1, tuple_size=4, **kw).kind == "row"
        assert Workload(order=3, tuple_size=1, **kw).kind == "row"
        assert (
            Workload(nbytes=1 << 20, dtype="int64", op="max",
                     order=3, tuple_size=4).kind == "row"
        )
        assert (
            Workload(nbytes=1 << 20, dtype="float64", op="add",
                     order=3, tuple_size=4,
                     float_mode="compensated").kind == "compensated"
        )


def pin_tile_rows(monkeypatch, rows, s, dtype):
    """Pin the loop's tiles to ``rows`` lane rows of ``s`` ``dtype``."""
    monkeypatch.setattr(lane, "FUSED_BLOCK_BYTES",
                        rows * s * np.dtype(dtype).itemsize)


class TestFusedLaneScan:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_boundary_sizes(self, rng, n, order):
        s = 3
        values = full_range(rng, np.int64, n)
        expected = pass_per_order(values, order, s)
        buf = values.copy()
        carry = np.zeros((order, s), dtype=buf.dtype)
        fused_lane_scan(buf, "add", s, order, carry)
        assert np.array_equal(buf, expected)

    @pytest.mark.parametrize("rows", (1, 2, 4, 5, 7, 16))
    def test_tile_boundaries(self, rng, monkeypatch, rows):
        # Lengths straddling tile boundaries: exact multiples of the
        # tile, one row short, one element over, final tiles with fewer
        # rows than orders, and an unaligned n % s tail at each.
        order, s = 3, 4
        pin_tile_rows(monkeypatch, rows, s, np.int64)
        tile = rows * s
        for n in (tile - s, tile, tile + 1, 2 * tile - 1, 2 * tile + s + 2,
                  5 * tile + (order - 1) * s, 5 * tile + 3):
            values = full_range(rng, np.int64, n)
            expected = pass_per_order(values, order, s)
            buf = values.copy()
            fused_lane_scan(buf, "add", s, order, None)
            assert np.array_equal(buf, expected), (n, rows)

    def test_shorter_than_one_tile(self, rng):
        order, s = 4, 5
        values = full_range(rng, np.int32, 2 * s + 3)  # < default tile
        buf = values.copy()
        carry = np.zeros((order, s), dtype=buf.dtype)
        fused_lane_scan(buf, "add", s, order, carry)
        assert np.array_equal(buf, pass_per_order(values, order, s))

    @pytest.mark.parametrize("dtype", (np.int8, np.uint8, np.int16))
    def test_narrow_dtype_wraparound(self, rng, monkeypatch, dtype):
        # Narrow widths wrap within a handful of rows, so every carry
        # fold runs modular; the public dtype set stops at 32 bits, so
        # these go through the raw kernel.
        order, s = 3, 2
        pin_tile_rows(monkeypatch, 6, s, dtype)
        values = full_range(rng, dtype, 301)
        expected = pass_per_order(values, order, s)
        buf = values.copy()
        carry = np.zeros((order, s), dtype=buf.dtype)
        fused_lane_scan(buf, "add", s, order, carry)
        assert np.array_equal(buf, expected)

    def test_uint64_wraparound(self, rng):
        order, s = 4, 3
        values = full_range(rng, np.uint64, 4096 + 5)
        out = scan_into(values, np.empty_like(values), "add",
                        order=order, tuple_size=s)
        assert np.array_equal(out, pass_per_order(values, order, s))

    def test_carry_matrix_matches_running_totals(self, rng, monkeypatch):
        order, s = 3, 4
        pin_tile_rows(monkeypatch, 4, s, np.int64)
        values = full_range(rng, np.int64, 10 * s)
        buf = values.copy()
        carry = fused_lane_scan(buf, "add", s, order, None)
        current = values.copy()
        out = np.empty_like(values)
        op = get_op("add")
        for j in range(order):
            lane_scan(current, op, s, out=out)
            assert np.array_equal(carry[j], out[-s:])
            current = out

    def test_pinned_tile_bytes(self, rng, monkeypatch):
        # Tiny tiles: every tile of the scan crosses many tile
        # boundaries.
        order, s = 3, 4
        monkeypatch.setattr(lane, "FUSED_BLOCK_BYTES", 64)
        values = full_range(rng, np.int64, 457)
        expected = pass_per_order(values, order, s)
        out = scan_into(values, np.empty_like(values), "add",
                        order=order, tuple_size=s)
        assert np.array_equal(out, expected)


class TestScanInto:
    @pytest.mark.parametrize("dtype", (np.int32, np.int64, np.uint32,
                                       np.uint64))
    @pytest.mark.parametrize("inclusive", (True, False))
    def test_matches_serial_oracle(self, rng, dtype, inclusive):
        order, s = 3, 4
        values = rng.integers(-99, 99, 1003).astype(dtype)
        out = scan_into(values, np.empty_like(values), "add",
                        order=order, tuple_size=s, inclusive=inclusive)
        expected = prefix_sum_serial(values, order=order, tuple_size=s,
                                     op="add", inclusive=inclusive)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 97))
    def test_unaligned_tails(self, rng, n):
        # n % s != 0 at q >= 2: the partial final row takes the
        # accumulate-of-carry formula, not the tile path.
        order, s = 2, 4
        values = full_range(rng, np.int64, n)
        out = scan_into(values, np.empty_like(values), "add",
                        order=order, tuple_size=s)
        assert np.array_equal(out, pass_per_order(values, order, s))

    def test_outside_gate_same_answer(self, rng):
        # max is not fusable; scan_into must still be correct (the
        # pass-per-order branch) and bit-equal to the oracle.
        values = rng.integers(-99, 99, 500).astype(np.int64)
        out = scan_into(values, np.empty_like(values), "max",
                        order=2, tuple_size=3)
        expected = prefix_sum_serial(values, order=2, tuple_size=3, op="max")
        assert np.array_equal(out, expected)


#: Non-add integer and exact-float shapes: the loop's serial left fold
#: must match the reference at every tile edge, signed zeros and NaN
#: included.
EVERY_OP = [
    ("max", np.int64), ("min", np.int32), ("xor", np.uint32),
    ("and", np.int64), ("or", np.uint64), ("add", np.float64),
    ("add", np.float32), ("max", np.float64), ("min", np.float32),
]


def draw(rng, dtype, n):
    if np.dtype(dtype).kind != "f":
        return full_range(rng, dtype, n)
    values = (rng.standard_normal(n) * 1e3).astype(dtype)
    values[rng.random(n) < 0.1] = -0.0
    values[rng.random(n) < 0.02] = np.nan
    return values


def op_id(case):
    return f"{case[0]}-{np.dtype(case[1]).name}"


class TestEveryOperator:
    @pytest.mark.parametrize("case", EVERY_OP, ids=op_id)
    @pytest.mark.parametrize("rows", (1, 2, 5))
    def test_scan_into_matches_reference(self, rng, monkeypatch, case, rows):
        # Tiles of fewer rows than orders, tile edges, n < s and tails.
        op, dtype = case
        order, s = 3, 4
        pin_tile_rows(monkeypatch, rows, s, dtype)
        tile = rows * s
        for n in (0, 1, s - 1, s, s + 1, tile - 1, tile, tile + 3,
                  2 * tile + s, 7 * tile + 5):
            values = draw(rng, dtype, n)
            want = prefix_sum_serial(values, order=order, tuple_size=s, op=op)
            got = scan_into(values, np.empty_like(values), op,
                            order=order, tuple_size=s)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("case", EVERY_OP, ids=op_id)
    def test_kernel_split_feeds_match_reference(self, rng, monkeypatch, case):
        op, dtype = case
        order, s = 2, 3
        pin_tile_rows(monkeypatch, 2, s, dtype)
        values = draw(rng, dtype, 300)
        want = prefix_sum_serial(values, order=order, tuple_size=s, op=op)
        kernel = LaneKernel(op, dtype, tuple_size=s, order=order)
        parts, pos = [], 0
        for step in (1, s - 1, 1, s, 7, 64, 2, 300):
            parts.append(np.asarray(
                kernel.feed(values[pos:pos + step].copy())).copy())
            pos += step
        assert np.concatenate(parts).tobytes() == want.tobytes()
        # Every feed takes the tile loop, the second (some but not all
        # lanes live) included: its first tile folds the live lanes only.
        assert kernel.counters.fused_order_scans == 8

    def test_stream_start_folds_no_carry(self):
        # +0.0 is not float add's exact identity: a leading -0.0 stays.
        values = np.array([-0.0, -0.0, -0.0, 1.0, -0.0])
        got = scan_into(values, np.empty_like(values), "add",
                        order=2, tuple_size=2)
        assert np.signbit(got[[0, 1, 2, 4]]).all()

    def test_fresh_carry_is_identity_on_empty_phases(self):
        buf = np.array([5, 7], dtype=np.int32)
        carry = fused_lane_scan(buf, "min", 4, 2, None)
        ident = np.iinfo(np.int32).max
        assert carry.tolist() == [[5, 7, ident, ident]] * 2


class TestLaneKernelContinuation:
    def test_split_points_mid_tile(self, rng):
        order, s, n = 3, 4, 2000
        values = full_range(rng, np.int64, n)
        expected = pass_per_order(values, order, s)
        kernel = LaneKernel("add", np.int64, tuple_size=s, order=order)
        parts, pos = [], 0
        cuts = iter([1, 3, s - 1, s, 17, 64, 301, 5])
        while pos < n:
            step = next(cuts, 129)
            parts.append(np.asarray(
                kernel.feed(values[pos:pos + step].copy())).copy())
            pos += step
        assert np.array_equal(np.concatenate(parts), expected)

    def test_primed_mid_tile_continuation(self, rng):
        # A kernel primed with the (q, s) totals at a mid-stream cut
        # must continue exactly as the unsplit stream — the sharded
        # driver's prime contract at order q.
        order, s, n = 3, 4, 1500
        values = full_range(rng, np.int64, n)
        expected = pass_per_order(values, order, s)
        for cut in (s + 1, 10 * s, 10 * s + 3, n - 2):
            head = LaneKernel("add", np.int64, tuple_size=s, order=order)
            got_head = np.asarray(head.feed(values[:cut].copy())).copy()
            # head.carry is the running (q, s) matrix in global lane order
            tail = LaneKernel(
                "add", np.int64, tuple_size=s, order=order,
                start=cut, prime=np.asarray(head.carry).copy(),
            )
            got_tail = np.asarray(tail.feed(values[cut:].copy())).copy()
            got = np.concatenate([got_head, got_tail])
            assert np.array_equal(got, expected), cut

    def test_matches_pass_per_order_kernel_stream(self, rng):
        # A fused-gated stream and a non-fusable-shaped reference
        # (s == 1 forced per-order) share no kernel path; compare the
        # fused kernel against the serial oracle chunk by chunk.
        order, s = 4, 2
        values = full_range(rng, np.uint32, 777)
        kernel = LaneKernel("add", np.uint32, tuple_size=s, order=order)
        out = np.concatenate([
            np.asarray(kernel.feed(values[:300].copy())).copy(),
            np.asarray(kernel.feed(values[300:301].copy())).copy(),
            np.asarray(kernel.feed(values[301:].copy())).copy(),
        ])
        assert np.array_equal(out, pass_per_order(values, order, s))


class TestFusedCombine:
    def test_splice_equals_unsplit(self, rng):
        order, s = 3, 4
        values = full_range(rng, np.int64, 40 * s)
        cut = 13 * s + 2  # mid-stride: per-lane counts differ
        whole = np.zeros((order, s), dtype=np.int64)
        fused_lane_scan(values.copy(), "add", s, order, whole)

        left = np.zeros((order, s), dtype=np.int64)
        fused_lane_scan(values[:cut].copy(), "add", s, order, left)
        # Right region scanned from zero carry, in its own phase; the
        # sharded splice works in lane order with per-lane counts.
        from repro.kernels import phase_perm

        right = np.zeros((order, s), dtype=np.int64)
        fused_lane_scan(values[cut:].copy(), "add", s, order, right)
        length = values.size - cut
        counts = np.array([
            (length - ((lane - cut) % s) + s - 1) // s for lane in range(s)
        ])
        lane_left = left[:, phase_perm(0, s)]
        lane_right = right[:, phase_perm(cut, s)]
        spliced = fused_combine(lane_left, lane_right, counts)
        assert np.array_equal(spliced, whole[:, phase_perm(0, s)])

    def test_zero_count_lane_passes_prev(self):
        prev = np.arange(6, dtype=np.int64).reshape(3, 2) + 1
        local = np.zeros((3, 2), dtype=np.int64)
        out = fused_combine(prev, local, np.array([0, 0]))
        assert np.array_equal(out, prev)


class TestFusedAcrossStack:
    @pytest.mark.parametrize("threads", (2, 3, 8))
    def test_threaded_slabs(self, rng, threads):
        # No slab path: the threaded engine scans serially and says so.
        order, s = 3, 4
        values = full_range(rng, np.int64, 4099)
        engine = ThreadedScan(threads=threads, cutover_bytes=0)
        result = engine.run(values, order=order, tuple_size=s, op="add")
        assert np.array_equal(result.values, pass_per_order(values, order, s))
        assert result.threads == 1

    def test_session_counts_fused_scans(self, rng):
        order, s = 3, 4
        values = full_range(rng, np.int64, 600)
        session = ScanSession(op="add", order=order, tuple_size=s)
        ref = ScanSession(op="add", order=order, tuple_size=s)
        got = np.concatenate([
            session.feed(values[:250].copy()),
            session.feed(values[250:].copy()),
        ])
        assert np.array_equal(got, pass_per_order(values, order, s))
        assert session.counters.fused_order_scans == 2
        # round-trip through the counter dict keeps the field
        d = session.counters.to_dict()
        assert d["fused_order_scans"] == 2
        assert ref.counters.fused_order_scans == 0

    @pytest.mark.parametrize("shards,workers", ((1, 1), (3, 1), (4, 2)))
    def test_sharded_single_pass(self, rng, tmp_path, shards, workers):
        order, s = 3, 4
        values = full_range(rng, np.int64, 5003)
        input_path = tmp_path / "in.bin"
        output_path = tmp_path / "out.bin"
        values.tofile(input_path)
        result = scan_file_sharded(
            str(input_path), str(output_path), dtype=np.int64, op="add",
            order=order, tuple_size=s, shards=shards, workers=workers,
            chunk_bytes=1 << 10,
        )
        out = np.fromfile(output_path, dtype=np.int64)
        assert np.array_equal(out, pass_per_order(values, order, s))
        # Fused jobs are single-pass over the file.
        assert result.passes == 1
        assert result.counters.fused_order_scans >= shards

    def test_sharded_non_fusable_writes_once(self, rng, tmp_path):
        values = rng.integers(-99, 99, 900).astype(np.int64)
        values.tofile(tmp_path / "in.bin")
        result = scan_file_sharded(
            str(tmp_path / "in.bin"), str(tmp_path / "out.bin"),
            dtype=np.int64, op="max", order=2, tuple_size=3,
            shards=2, workers=1, chunk_bytes=1 << 10,
        )
        # No binomial splice for max: the single-stream fallback runs,
        # its chunks take the tile loop, and it writes the output once.
        assert result.passes == 1
        assert result.fallback_reason is not None
        assert result.counters.fused_order_scans == result.counters.chunks
        out = np.fromfile(tmp_path / "out.bin", dtype=np.int64)
        expected = prefix_sum_serial(values, order=2, tuple_size=3, op="max")
        assert np.array_equal(out, expected)

    def test_feed_batch_fused(self, rng):
        from repro.kernels import BatchedLaneKernel
        from repro.serve.batch import feed_batch

        order, s, B = 3, 4, 4
        batched = [ScanSession(op="add", order=order, tuple_size=s,
                               dtype="int64") for _ in range(B)]
        reference = [ScanSession(op="add", order=order, tuple_size=s,
                                 dtype="int64") for _ in range(B)]
        kernel = BatchedLaneKernel("add", "int64", s)
        for n in (50, order * s, order * s - 1, 7):  # fused + fallback rounds
            chunks = [full_range(rng, np.int64, n) for _ in range(B)]
            want = [r.feed(c.copy()) for r, c in zip(reference, chunks)]
            got = feed_batch(batched, [c.copy() for c in chunks], kernel)
            for i in range(B):
                assert np.array_equal(got[i], want[i])
                assert np.array_equal(batched[i].kernel.carry, reference[i].kernel.carry)
        # The two long rounds were fused; the short rounds fell back.
        assert all(b.counters.fused_order_scans == 2 for b in batched)

    def test_planner_plans_fused_serial(self, rng):
        # Order q >= 2 at s >= 2 has no slab path, so the gates plan it
        # serial at any size, under add or max, and a forced threaded
        # plan is refused; the same orders at s == 1 are the row kind
        # and go threaded.
        machine = Machine(cpu_count=8)
        fused = Workload(nbytes=512 << 20, dtype="int64", op="add",
                         order=3, tuple_size=4)
        tiled = Workload(nbytes=512 << 20, dtype="int64", op="max",
                         order=3, tuple_size=4)
        row = Workload(nbytes=512 << 20, dtype="int64", op="max",
                       order=3, tuple_size=1)
        plan_f = plan_scan(fused, machine=machine)
        assert plan_f.chosen.label == "serial"
        assert "fused" in plan_f.reason
        assert plan_scan(tiled, machine=machine).chosen.label == "serial"
        assert plan_scan(row, machine=machine).chosen.label == "threaded:8"
        values = full_range(rng, np.int64, 5003 * 4)
        with pytest.raises(ValueError, match="cannot force"):
            auto_scan(values, order=3, tuple_size=4, force="threaded:2")
