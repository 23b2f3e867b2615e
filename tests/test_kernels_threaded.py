"""Threaded scans (``threads=`` on ``scan_into`` and ``LaneKernel``)
against the serial kernel layer.

The threaded passes' contract is *bit identity with the serial kernel
for every dtype at default settings* — integers via the associative
slab splice, floats via delegation to the exact serial passes — plus
determinism: the slab partition is a pure function of the requested
thread count, so results never depend on pool scheduling, core count,
or oversubscription.  These tests force the parallel path with
``cutover_bytes=0`` so small grids exercise the splice/fold machinery
rather than the serial fallback.
"""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import (
    LaneKernel,
    ThreadedScan,
    resolve_threads,
    scan_into,
)
from repro.kernels.threaded import _slab_bounds
from repro.ops import get_op

THREADS = [1, 2, 3, 8]
TUPLE_SIZES = [1, 4, 33]


def _data(rng, n, dtype):
    dt = np.dtype(dtype)
    if dt.kind == "f":
        return rng.standard_normal(n).astype(dt)
    lo = 0 if dt.kind == "u" else -50
    return rng.integers(lo, 50, n).astype(dt)


def _assert_bitwise(got, want, msg=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, msg
    assert got.tobytes() == want.tobytes(), msg


def _slab_boundary_sizes(s, threads):
    """Lengths straddling every slab-partition edge case."""
    m = threads
    return sorted(
        {0, 1, s - 1, s, s + 1, s * (m - 1), s * m - 1, s * m, s * m + 1,
         s * (m + 3) + max(0, s - 2), s * 4 * m + 7}
    )


# -- bit-identity grid ---------------------------------------------------


@pytest.mark.parametrize("opname", ["add", "max", "xor"])
@pytest.mark.parametrize("dtype", ["int32", "int64", "uint64"])
@pytest.mark.parametrize("tuple_size", TUPLE_SIZES)
@pytest.mark.parametrize("threads", THREADS)
def test_threaded_scan_into_bit_identical(opname, dtype, tuple_size, threads):
    op = get_op(opname)
    rng = np.random.default_rng(hash((opname, dtype, tuple_size, threads)) % 2**32)
    for n in _slab_boundary_sizes(tuple_size, threads):
        values = _data(rng, n, dtype)
        for order in (1, 2, 3):
            for inclusive in (True, False):
                want = kernels.scan_into(
                    values, np.empty_like(values), op,
                    order=order, tuple_size=tuple_size, inclusive=inclusive,
                )
                got = scan_into(
                    values, np.empty_like(values), op,
                    order=order, tuple_size=tuple_size, inclusive=inclusive,
                    threads=threads, cutover_bytes=0,
                )
                _assert_bitwise(
                    got, want,
                    f"n={n} order={order} inclusive={inclusive} "
                    f"threads={threads}",
                )


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("tuple_size", [1, 4])
def test_threaded_float_default_is_exact_serial(threads, tuple_size):
    """Floats at default settings stay byte-identical — NaN, -0.0 and all."""
    op = get_op("add")
    rng = np.random.default_rng(99)
    values = rng.standard_normal(10 * tuple_size * threads + 3)
    values[::7] = -0.0
    values[3::11] = np.nan
    values[5::13] = np.inf
    for order in (1, 2, 3):
        want = kernels.scan_into(
            values, np.empty_like(values), op, order=order,
            tuple_size=tuple_size,
        )
        got = scan_into(
            values, np.empty_like(values), op, order=order,
            tuple_size=tuple_size, threads=threads, cutover_bytes=0,
        )
        _assert_bitwise(got, want, f"order={order} threads={threads}")


def test_threaded_float_inexact_is_deterministic():
    """``float_mode="regrouped"`` regroups float rounding but never
    randomizes it."""
    op = get_op("add")
    rng = np.random.default_rng(5)
    values = rng.standard_normal(4096)
    runs = [
        scan_into(
            values, np.empty_like(values), op, threads=4,
            float_mode="regrouped", cutover_bytes=0,
        )
        for _ in range(3)
    ]
    _assert_bitwise(runs[1], runs[0])
    _assert_bitwise(runs[2], runs[0])


def test_oversubscription_determinism():
    """threads=8 on any machine gives the same bytes as the partition says."""
    op = get_op("add")
    rng = np.random.default_rng(11)
    values = rng.integers(-100, 100, 100_003).astype(np.int64)
    def run():
        return scan_into(values, np.empty_like(values), op, tuple_size=3,
                         threads=8, cutover_bytes=0)

    want = run()
    for _ in range(3):
        got = run()
        _assert_bitwise(got, want)


# Order 3, tuple size 4, exclusive: the fused kind for int64; for floats
# three segments (plus a partial one) per pass.  None of the three has a
# slab path, so threads= must scan each serially, with the same bytes.
ENTRY_CASES = [("int64", None), ("float64", "exact"), ("float64", "compensated")]


@pytest.mark.parametrize("dtype,float_mode", ENTRY_CASES)
def test_every_in_memory_entry_matches_scan_into(dtype, float_mode):
    """Every in-memory entry point gives ``scan_into``'s serial bytes."""
    from repro import api
    from repro.core.host import host_prefix_sum
    from repro.plan import auto_scan

    rng = np.random.default_rng(31)
    values = _data(rng, 3 * 4 * 4096 + 123, dtype)
    shape = dict(order=3, tuple_size=4, inclusive=False)
    want = scan_into(
        values, np.empty_like(values), "add", **shape, float_mode=float_mode
    )
    entries = {
        "scan_into(threads=2)": scan_into(
            values, np.empty_like(values), "add", **shape,
            threads=2, cutover_bytes=0, float_mode=float_mode,
        ),
        "prefix_sum(engine='host')": api.prefix_sum(
            values, **shape, engine="host", float_mode=float_mode
        ),
        "host_prefix_sum(threads=2)": host_prefix_sum(
            values, **shape, threads=2, float_mode=float_mode
        ),
        "ThreadedScan(threads=2)": ThreadedScan(
            threads=2, cutover_bytes=0, float_mode=float_mode
        ).run(values, **shape).values,
        "auto_scan(force='serial')": auto_scan(
            values, **shape, force="serial", float_mode=float_mode
        ),
    }
    # Exact floats: only the serial plan reproduces the left fold; the
    # fused and compensated kinds have no slab path to force.
    with pytest.raises(ValueError, match="cannot force"):
        auto_scan(values, **shape, force="threaded:2", float_mode=float_mode)
    for name, got in entries.items():
        _assert_bitwise(got, want, name)


@pytest.mark.parametrize("bad", [-1, "two", 1.5])
@pytest.mark.parametrize("dtype,float_mode", ENTRY_CASES)
@pytest.mark.parametrize("entry", ["host_prefix_sum", "scan_into", "ScanSession"])
def test_threads_validated_for_every_dtype(entry, dtype, float_mode, bad):
    from repro.core.host import host_prefix_sum
    from repro.stream import ScanSession

    values = np.arange(10, dtype=dtype)
    with pytest.raises(ValueError, match="threads must be"):
        if entry == "host_prefix_sum":
            host_prefix_sum(values, threads=bad, float_mode=float_mode)
        elif entry == "scan_into":
            scan_into(
                values, np.empty_like(values), "add",
                threads=bad, float_mode=float_mode,
            )
        else:
            ScanSession(dtype=dtype, threads=bad, float_mode=float_mode).feed(
                values
            )


# -- slab partition and thread resolution --------------------------------


def test_slab_bounds_partition():
    for m in (2, 3, 7, 100, 101):
        for parts in (1, 2, 3, 8, m, m + 5):
            bounds = _slab_bounds(m, parts)
            assert bounds[0][0] == 0 and bounds[-1][1] == m
            for (lo, hi), (lo2, _hi2) in zip(bounds, bounds[1:]):
                assert hi == lo2 and hi > lo
            widths = [hi - lo for lo, hi in bounds]
            assert max(widths) - min(widths) <= 1


def test_resolve_threads():
    assert resolve_threads(3) == 3
    assert resolve_threads(1) == 1
    assert resolve_threads(None, n_bytes=0) == 1
    auto = resolve_threads(None)
    assert auto >= 1
    assert resolve_threads("auto") == auto
    assert resolve_threads(0) == auto
    with pytest.raises(ValueError):
        resolve_threads(-1)


# -- the parallel cutover ------------------------------------------------


def test_pinned_threads_stay_serial_below_the_cutover(monkeypatch):
    # A pinned thread count does not override the cutover: a 16 MiB
    # int64 order-1 chunk, below PARALLEL_CUTOVER_BYTES, where two slab
    # threads measured slower than one, must never reach the pool.
    from repro.kernels import threaded

    def no_pool(threads):
        raise AssertionError("slab driver threaded a chunk below the cutover")

    monkeypatch.setattr(threaded, "get_pool", no_pool)
    add = get_op("add")
    values = np.arange(2 << 20, dtype=np.int64)
    assert values.nbytes == 16 << 20
    got = scan_into(values, np.empty_like(values), add, threads=2)
    _assert_bitwise(got, kernels.lane_scan(values, add, 1))


# -- where threads= applies ----------------------------------------------


def test_runs_slabs_is_the_row_kind_only():
    from repro.kernels.threaded import runs_slabs

    assert runs_slabs("add", np.int64)
    assert runs_slabs("max", np.int64, order=1, tuple_size=4)
    assert runs_slabs("add", np.int64, order=3, tuple_size=1)
    assert runs_slabs("add", np.float64, float_mode="regrouped")
    # Order q >= 2 at s >= 2 is the serial tile loop's, for every op.
    assert not runs_slabs("add", np.int64, order=3, tuple_size=4)
    assert not runs_slabs("max", np.int64, order=3, tuple_size=4)
    assert not runs_slabs("add", np.float64, order=2, tuple_size=2,
                          float_mode="regrouped")
    assert not runs_slabs("add", np.float64, float_mode="compensated")
    assert not runs_slabs("add", np.float64)  # exact
    assert not runs_slabs("add", np.float64, float_mode="exact")


#: One shape per carry kind: (dtype, order, tuple_size, float_mode).
KIND_SHAPES = {
    "row": ("int64", 1, 3, None),
    "fused": ("int64", 3, 4, None),
    "compensated": ("float64", 1, 2, "compensated"),
}


@pytest.mark.parametrize("kind", sorted(KIND_SHAPES))
def test_threads_run_slabs_for_the_row_kind_only(kind, tmp_path, monkeypatch):
    """``threads=`` gives serial bytes on every surface for every kind;
    only the row kind reaches the slab driver and counts it, with the
    cutover zeroed."""
    from repro.kernels import threaded
    from repro.stream import ScanSession, scan_file, scan_file_sharded

    monkeypatch.setattr(threaded, "PARALLEL_CUTOVER_BYTES", 0)
    dtype, order, s, float_mode = KIND_SHAPES[kind]
    rng = np.random.default_rng(41)
    values = _data(rng, 3 * kernels.segment_span(s) + 5 * s, dtype)
    shape = dict(order=order, tuple_size=s)
    want = scan_into(
        values, np.empty_like(values), "add", **shape, float_mode=float_mode
    )
    _assert_bitwise(
        scan_into(values, np.empty_like(values), "add", **shape, threads=2,
                  float_mode=float_mode),
        want, "scan_into",
    )
    session = ScanSession(dtype=dtype, threads=2, float_mode=float_mode, **shape)
    _assert_bitwise(
        np.concatenate([session.feed(part.copy()) for part in np.array_split(values, 3)]),
        want, "ScanSession",
    )
    counts = {"ScanSession": session.counters.threaded_scans}
    raw = tmp_path / "in.bin"
    values.tofile(raw)
    for name, run in {
        "scan_file": lambda out: scan_file(
            raw, out, dtype=dtype, **shape, chunk_bytes=1 << 14, threads=2,
            float_mode=float_mode,
        ),
        "scan_file_sharded": lambda out: scan_file_sharded(
            raw, out, dtype=dtype, **shape, shards=2, workers=2, threads=4,
            chunk_bytes=1 << 14, float_mode=float_mode,
        ),
    }.items():
        out = tmp_path / f"{name}.bin"
        counts[name] = run(out).counters.threaded_scans
        _assert_bitwise(np.fromfile(out, dtype=dtype), want, name)
    if kind == "row":
        assert all(count > 0 for count in counts.values()), counts
    else:
        assert counts == dict.fromkeys(counts, 0)


@pytest.mark.parametrize("order,tuple_size", [(1, 1), (2, 3)])
def test_threaded_scans_count_only_slab_passes(order, tuple_size):
    # A 512 KiB feed sits below the parallel cutover: the slab driver
    # declines, so nothing is counted, for the row and fused kinds.
    from repro.stream import ScanSession

    values = np.arange(64 << 10, dtype=np.int64)
    shape = dict(dtype="int64", order=order, tuple_size=tuple_size)
    session = ScanSession(**shape, threads=2)
    serial = ScanSession(**shape)
    _assert_bitwise(session.feed(values.copy()), serial.feed(values.copy()))
    assert session.counters.threaded_scans == 0


# -- carry continuation (the kernel protocol) ----------------------------


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("tuple_size", [1, 4])
def test_threaded_kernel_feed_matches_serial(threads, tuple_size):
    op = get_op("add")
    rng = np.random.default_rng(hash((threads, tuple_size)) % 2**32)
    values = rng.integers(-50, 50, 20 * tuple_size * threads + 5).astype(np.int64)
    serial = LaneKernel(op, values.dtype, tuple_size)
    threaded = LaneKernel(
        op, values.dtype, tuple_size, threads=threads, cutover_bytes=0
    )
    splits = [0, 7, tuple_size * threads, len(values) // 2, len(values)]
    prev = 0
    for split in splits:
        chunk = values[prev:split]
        _assert_bitwise(
            threaded.feed(chunk.copy()), serial.feed(chunk.copy()),
            f"split at {split}",
        )
        prev = split
    _assert_bitwise(
        threaded.feed(values[prev:].copy()), serial.feed(values[prev:].copy())
    )


# -- the engine wrapper --------------------------------------------------


@pytest.mark.parametrize("threads", [2, 8])
def test_threaded_engine_contract(threads):
    rng = np.random.default_rng(21)
    values = rng.integers(-100, 100, 50_001).astype(np.int64)
    engine = ThreadedScan(threads=threads, cutover_bytes=0)
    for order in (1, 2):
        for inclusive in (True, False):
            result = engine.run(
                values, order=order, tuple_size=3, inclusive=inclusive
            )
            want = kernels.scan_into(
                values, np.empty_like(values), get_op("add"),
                order=order, tuple_size=3, inclusive=inclusive,
            )
            _assert_bitwise(result.values, want)
            # Order 2 at tuple size 3 is the fused kind: no slab path.
            assert result.threads == (threads if order == 1 else 1)


def test_threaded_engine_via_api():
    from repro import api

    rng = np.random.default_rng(23)
    values = rng.integers(-100, 100, 10_000).astype(np.int32)
    _assert_bitwise(
        api.prefix_sum(values, order=2, engine="threaded"),
        api.prefix_sum(values, order=2),
    )
    assert "threaded" in api.ENGINE_NAMES


# -- non-ufunc operators stay serial (and correct) -----------------------


def test_non_ufunc_op_falls_back_serial():
    from repro.ops import AssociativeOp

    op = AssociativeOp(
        name="add2",
        fn=lambda a, b: a + b,
        identity_fn=lambda dt: dt.type(0),
    )
    assert op.ufunc is None
    rng = np.random.default_rng(3)
    values = rng.integers(-50, 50, 977).astype(np.int64)
    want = kernels.lane_scan(values, op, 3, out=np.empty_like(values))
    got = scan_into(values, np.empty_like(values), op, tuple_size=3,
                    threads=4, cutover_bytes=0)
    _assert_bitwise(got, want)


def test_threaded_result_reports_the_slabs_that_ran():
    # Below the cutover, and with fewer than two whole rows, the slab
    # driver declines and the result says one thread scanned.
    values = np.arange(1 << 20)
    assert ThreadedScan(threads=2).run(values).threads == 1
    assert ThreadedScan(threads=2, cutover_bytes=0).run(values).threads == 2
    short = ThreadedScan(threads=2, cutover_bytes=0).run(values[:5], tuple_size=4)
    assert short.threads == 1
    _assert_bitwise(short.values, kernels.lane_scan(values[:5], get_op("add"), 4))
