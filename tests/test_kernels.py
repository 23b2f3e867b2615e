"""The shared kernel layer (`repro.kernels`) against the serial oracle.

The kernel layer is the one code path every engine's host side runs
through, so its contract is the strongest in the repo: bit identity
with `repro.reference` across op x dtype x order x tuple_size x
inclusive — including lengths not divisible by the tuple size, chunks
shorter than one stride, empty and 1-element inputs — and split-point
equivalence for the carry-continuation `feed()` API at arbitrary
(mid-tuple) boundaries, for integers and floats alike: every
continuation folds its carry into the chunk's head row and nowhere else.
"""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import LaneKernel
from repro.kernels import lane as lane_mod
from repro.ops import AssociativeOp, get_op
from repro.reference.serial import prefix_sum_serial

SIZES = [0, 1, 2, 5, 7, 16, 33, 100]
TUPLE_SIZES = [1, 2, 3, 5, 8]


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


# -- the grid: scan_into vs the serial reference -------------------------


@pytest.mark.parametrize("opname", ["add", "max", "xor"])
@pytest.mark.parametrize("dtype", ["int32", "int64", "uint32", "float64"])
@pytest.mark.parametrize("tuple_size", TUPLE_SIZES)
def test_scan_into_matches_reference(opname, dtype, tuple_size):
    op = get_op(opname)
    if op.integer_only and np.dtype(dtype).kind == "f":
        pytest.skip("integer-only operator")
    rng = np.random.default_rng(hash((opname, dtype, tuple_size)) % 2**32)
    for n in SIZES:
        values = _data(rng, n, dtype)
        for order in (1, 2, 3):
            for inclusive in (True, False):
                ref = prefix_sum_serial(
                    values, order=order, tuple_size=tuple_size,
                    op=op, inclusive=inclusive,
                )
                got = kernels.scan_into(
                    values, np.empty_like(values), op,
                    order=order, tuple_size=tuple_size, inclusive=inclusive,
                )
                _assert_bitwise(
                    got, ref,
                    f"n={n} order={order} inclusive={inclusive}",
                )


def test_lane_scan_in_place_aliasing():
    op = get_op("add")
    rng = np.random.default_rng(3)
    for s in TUPLE_SIZES:
        for n in SIZES:
            a = _data(rng, n, "int64")
            want = kernels.lane_scan(a, op, s)
            got = a.copy()
            kernels.lane_scan(got, op, s, out=got)
            _assert_bitwise(got, want)


def test_lane_scan_crosses_block_boundaries(monkeypatch):
    # Sizes straddling the cache-block row count the kernel runs with
    # exercise the blocked integer path's carry splice (the chunk-size
    # floor is lifted so 1 MiB inputs reach it); int64 s=4 sits just
    # below the blocked stride floor and takes the plain path.  A
    # prefix of an inclusive scan is the scan of the prefix, so one
    # serial reference per shape covers every size.
    monkeypatch.setattr(lane_mod, "BLOCKED_MIN_BYTES", 0)
    op = get_op("add")
    rng = np.random.default_rng(4)
    assert 4 * 8 < kernels.BLOCKED_MIN_STRIDE_BYTES <= 8 * 8
    for dtype, s in (("int64", 4), ("int64", 8), ("int64", 64), ("int32", 16)):
        rows = kernels.BLOCK_BYTES // (s * np.dtype(dtype).itemsize)
        sizes = (rows * s - 1, rows * s, rows * s + 1, 2 * rows * s + 5)
        a = _data(rng, max(sizes), dtype)
        ref = prefix_sum_serial(a, tuple_size=s, op=op)
        for n in sizes:
            _assert_bitwise(
                kernels.lane_scan(a[:n], op, s), ref[:n], f"{dtype} s={s} n={n}"
            )


class _CountingOp(AssociativeOp):
    """A built-in operator that counts the accumulate calls a scan makes
    (one per row block on the cache-blocked path, one in all on the
    plain path) and the elements it combines outside them."""

    def __init__(self, op):
        super().__init__(
            op.name, op._fn, op._identity_fn, ufunc=op.ufunc,
            integer_only=op.integer_only,
        )
        self.accumulates = self.applied = 0

    def accumulate(self, *args, **kwargs):
        self.accumulates += 1
        return super().accumulate(*args, **kwargs)

    def apply(self, a, b):
        out = super().apply(a, b)
        self.applied += out.size
        return out

    def apply_into(self, a, b, out):
        self.applied += out.size
        return super().apply_into(a, b, out)


@pytest.mark.parametrize("dtype, s", [("int64", 8), ("int32", 32)])
def test_lane_scan_blocks_only_from_the_size_floor(dtype, s):
    # The blocked path needs both a wide stride and a chunk of at least
    # BLOCKED_MIN_BYTES; just below the floor the scan is one plain
    # accumulate, at it one per BLOCK_BYTES row block.
    assert 2 << 20 < kernels.BLOCKED_MIN_BYTES <= 4 << 20
    itemsize = np.dtype(dtype).itemsize
    floor = kernels.BLOCKED_MIN_BYTES // itemsize
    a = _data(np.random.default_rng(5), floor, dtype)
    ref = np.cumsum(a.reshape(-1, s), axis=0, dtype=dtype).reshape(-1)
    for n, calls in ((floor - s, 1), (floor, kernels.BLOCKED_MIN_BYTES // kernels.BLOCK_BYTES)):
        op = _CountingOp(get_op("add"))
        _assert_bitwise(kernels.lane_scan(a[:n], op, s), ref[:n], f"{dtype} n={n}")
        assert op.accumulates == calls, (dtype, n)
    # A carry folded into the head row reaches every block of the
    # blocked path through each block's predecessor.
    carry = np.arange(1, s + 1, dtype=dtype) * 1000
    got = kernels.lane_scan(a, get_op("add"), s, head=a[:s] + carry)
    _assert_bitwise(got, ref + np.tile(carry, floor // s), f"{dtype} carry")


@pytest.mark.parametrize("dtype", ["int64", "float64"])
@pytest.mark.parametrize("inplace", [True, False])
def test_continuation_folds_the_head_row_only(dtype, inplace):
    # A continuation combines at most s more elements outside accumulate
    # than the same chunk scanned from a stream start (a tail's fold and
    # the blocked path's per-block fold are the scan's own).  A fold
    # over the chunk would combine all n.  The last shape is past the
    # blocked-path floor at a 64 B stride.
    rng = np.random.default_rng(53)
    itemsize = np.dtype(dtype).itemsize
    shapes = [(s, n) for s in range(1, 9) for n in (s - 1 or 1, 5 * s + 3, 4099)]
    shapes.append((64 // itemsize, kernels.BLOCKED_MIN_BYTES // itemsize + 11))
    for s, n in shapes:
        values = _data(rng, 2 * s + n, dtype)
        want = prefix_sum_serial(values, tuple_size=s, op=get_op("add"))
        costs = []
        for first in (2 * s - 1, 0):  # a continuation, then a fresh scan
            op = _CountingOp(get_op("add"))
            kernel = LaneKernel(op, dtype, s)
            kernel.feed(values[:first].copy())
            chunk = values[first : first + n].copy()
            op.applied = 0
            got = kernel.feed(chunk, inplace=inplace)
            _assert_bitwise(got, want[first : first + n], f"s={s} n={n}")
            if not inplace:
                _assert_bitwise(chunk, values[first : first + n])
            costs.append(op.applied)
        assert costs[0] - costs[1] <= s, (s, n, costs)


def _live_only_reference(op, s, q, start, values):
    """Per-lane serial oracle of a stream primed with 100 at every order
    at ``start < s``: lanes below ``start`` continue from it, the rest
    scan from nothing."""
    want = np.empty_like(values)
    for phase in range(s):
        x = values[phase::s]
        for _ in range(q):
            if (start + phase) % s < start:
                x = op.accumulate(np.concatenate([np.full(1, 100, x.dtype), x]))[1:]
            else:
                x = op.accumulate(x)
        want[phase::s] = x
    return want


def test_primed_below_s_never_folds_unseen_lanes():
    # A kernel primed at start < s has exactly the lanes below start
    # live: the primed carry of every other lane is never folded, at
    # any tuple size, order or dtype, on any path.
    base = np.arange(1, 41)
    cases = [(op, dtype, s, q) for op, dtype in (
        ("add", np.int64), ("max", np.int32), ("add", np.float64),
    ) for s in (1, 2, 3, 5) for q in (1, 2)]
    for op, dtype, s, q in cases:
        values = base.astype(dtype)
        prime = np.full((q, s), 100, dtype=dtype)
        for start in range(s):
            primed = LaneKernel(op, dtype, s, start=start, order=q, prime=prime)
            got = primed.feed(values.copy())
            want = _live_only_reference(get_op(op), s, q, start, values)
            _assert_bitwise(got, want, f"{op} {dtype} s={s} q={q} start={start}")
    # Nothing below s is live at start 0: the feed is the unprimed one.
    primed = LaneKernel("add", np.int64, tuple_size=2, order=2,
                        prime=np.full((2, 2), 100))
    plain = LaneKernel("add", np.int64, tuple_size=2, order=2)
    _assert_bitwise(primed.feed(np.arange(1, 9)), plain.feed(np.arange(1, 9)))


# -- feed(): split-point equivalence -------------------------------------


@pytest.mark.parametrize("tuple_size", [1, 3, 5])
def test_feed_split_equivalence_int(tuple_size):
    op = get_op("add")
    rng = np.random.default_rng(7)
    n = 13
    a = _data(rng, n, "int64")
    one_shot = kernels.lane_scan(a, op, tuple_size)
    # Every two-cut split, including empty parts and mid-tuple edges.
    for cut1 in range(n + 1):
        for cut2 in range(cut1, n + 1):
            kernel = LaneKernel(op, np.int64, tuple_size)
            parts = [
                np.asarray(kernel.feed(part.copy()))
                for part in (a[:cut1], a[cut1:cut2], a[cut2:])
            ]
            _assert_bitwise(
                np.concatenate(parts), one_shot,
                f"s={tuple_size} cuts=({cut1},{cut2})",
            )


@pytest.mark.parametrize("tuple_size", [1, 2, 5])
def test_feed_split_equivalence_float_bit_exact(tuple_size):
    # The exact mode's whole contract: float rounding (and signed
    # zeros) reproduced bit for bit at any split point.
    op = get_op("add")
    rng = np.random.default_rng(11)
    n = 23
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    a[rng.integers(0, n, 4)] = -0.0
    one_shot = kernels.lane_scan(a, op, tuple_size)
    for cut in range(n + 1):
        kernel = LaneKernel(op, np.float64, tuple_size)
        assert kernel.float_mode == "exact"
        parts = [np.asarray(kernel.feed(p.copy())) for p in (a[:cut], a[cut:])]
        _assert_bitwise(np.concatenate(parts), one_shot, f"cut={cut}")


def test_feed_primed_continuation():
    op = get_op("add")
    rng = np.random.default_rng(13)
    a = _data(rng, 37, "int64")
    for s in (1, 4):
        for lo in (0, 1, 3, 10):
            reference = LaneKernel(op, np.int64, s)
            reference.feed(a[:lo].copy())
            primed = LaneKernel(
                op, np.int64, s, start=lo,
                prime=reference.carry.copy(),
            )
            want = reference.feed(a[lo:].copy())
            got = primed.feed(a[lo:].copy())
            _assert_bitwise(got, want, f"s={s} lo={lo}")
            _assert_bitwise(primed.carry, reference.carry)


def test_feed_exact_mode_does_not_mutate_input():
    # Floats follow the one continuation rule too: inplace=False keeps
    # the chunk, the stream start and the head-folded continuation alike.
    op = get_op("add")
    a = np.array([1.5, -2.5, 3.5, 4.5, 5.5])
    snapshot = a.copy()
    kernel = LaneKernel(op, np.float64, 2)
    first = kernel.feed(a, inplace=False)
    second = kernel.feed(a, inplace=False)
    _assert_bitwise(a, snapshot)
    _assert_bitwise(np.concatenate([first, second]),
                    kernels.lane_scan(np.concatenate([a, a]), op, 2))


# -- the helper kernels --------------------------------------------------


def test_phase_totals_and_lane_totals():
    op = get_op("add")
    a = np.arange(1, 8, dtype=np.int64)  # n=7
    # s=3, pos=2: phases 0..2 map to lanes 2,0,1
    scanned = kernels.lane_scan(a, op, 3)
    totals = kernels.phase_totals(scanned, 3)
    assert totals.tolist() == [scanned[6], scanned[4], scanned[5]]
    lanes = kernels.lane_totals(scanned, op, 3, pos=2)
    assert lanes.tolist() == [scanned[4], scanned[5], scanned[6]]
    # Short chunk: only the phases with elements are reported.
    assert kernels.phase_totals(a[:2], 3).tolist() == [1, 2]
    short = kernels.lane_totals(a[:2], op, 3, pos=1)
    assert short.tolist() == [0, 1, 2]  # lane 0 absent -> identity
    assert kernels.phase_totals(np.array([], dtype=np.int64), 3).size == 0


def test_fold_lanes_broadcast_and_fold_head_masked():
    op = get_op("add")
    a = np.ones(10, dtype=np.int64)
    carry = np.array([10, 20, 30], dtype=np.int64)
    full = a.copy()
    kernels.fold_lanes(full, op, carry, pos=1, tuple_size=3)
    # phase p holds lane (1 + p) % 3
    assert full.tolist() == [21, 31, 11, 21, 31, 11, 21, 31, 11, 21]
    # The head fold touches each live phase's first element only; the
    # row and the mask are in phase order.
    row = carry[kernels.phase_perm(1, 3)]
    live = np.array([False, True, True])
    masked = kernels.fold_head(a.copy(), op, row, live)
    assert masked.tolist() == [1, 31, 11, 1, 1, 1, 1, 1, 1, 1]
    assert kernels.fold_head(a[:2].copy(), op, row, None).tolist() == [21, 31]
    # Unseen lanes take nothing, not even an identity: -0.0 stays.
    zeros = np.full(3, -0.0)
    kernels.fold_head(zeros, op, np.zeros(3), np.array([True, False, False]))
    assert np.signbit(zeros).tolist() == [False, True, True]
    looped = _looped_concat_op()
    got = kernels.fold_head(np.array([1, 2, 3]), looped, np.array([1, 1, 1]), live)
    assert got.tolist() == [1, 6, 7]


def test_exclusive_shift_heads_and_tail():
    heads = np.array([100, 200], dtype=np.int64)
    incl = np.arange(1, 6, dtype=np.int64)
    out = kernels.exclusive_shift(incl, heads)
    assert out.tolist() == [100, 200, 1, 2, 3]
    short = kernels.exclusive_shift(incl[:1], heads)
    assert short.tolist() == [100]


# -- satellite regression: non-ufunc accumulate with out= ----------------


def _looped_concat_op():
    return AssociativeOp(
        "concat-low-bits",
        fn=lambda a, b: (a * 4 + (b & 3)).astype(a.dtype),
        identity_fn=lambda dt: 0,
        commutative=False,
        integer_only=True,
    )


def test_non_ufunc_accumulate_scans_directly_into_out():
    op = _looped_concat_op()
    a = np.array([1, 2, 3, 1, 2], dtype=np.int64)
    want = op.accumulate(a)
    out = np.empty_like(a)
    got = op.accumulate(a, out=out)
    assert got is out
    _assert_bitwise(out, want)
    _assert_bitwise(a, np.array([1, 2, 3, 1, 2], dtype=np.int64))  # untouched
    aliased = a.copy()
    op.accumulate(aliased, out=aliased)
    _assert_bitwise(aliased, want)


def test_non_ufunc_op_through_the_kernel_layer():
    op = _looped_concat_op()
    rng = np.random.default_rng(17)
    a = rng.integers(0, 4, 11).astype(np.int64)
    for s in (1, 2, 3):
        ref = prefix_sum_serial(a, tuple_size=s, op=op)
        _assert_bitwise(kernels.lane_scan(a, op, s), ref, f"s={s}")


# -- satellite: the strided (non-contiguous view) fast path --------------


@pytest.mark.parametrize("opname", ["add", "max", "xor"])
@pytest.mark.parametrize("tuple_size", [1, 2, 3, 5])
def test_lane_scan_strided_views_match_reference(opname, tuple_size):
    """Uniformly-strided 1-D views take the as_strided matrix path."""
    op = get_op(opname)
    rng = np.random.default_rng(hash((opname, tuple_size)) % 2**32)
    base = rng.integers(-50, 50, 4 * 97 + 1).astype(np.int64)
    views = [
        base[::2],          # stride 2
        base[1::3],         # offset + stride 3
        base[::-1],         # negative stride
        base[::4][::-1],    # composed
    ]
    for view in views:
        src = view.copy()   # contiguous copy = the oracle input
        ref = prefix_sum_serial(src, tuple_size=tuple_size, op=op)
        got = kernels.lane_scan(view, op, tuple_size, out=np.empty_like(src))
        _assert_bitwise(got, ref, f"stride={view.strides}")


def test_lane_scan_strided_in_place_aliasing():
    """``out is src`` on a strided view scans in place through the base."""
    op = get_op("add")
    rng = np.random.default_rng(31)
    base = rng.integers(-50, 50, 200).astype(np.int64)
    keep = base.copy()
    view = base[::2]
    ref = prefix_sum_serial(view.copy(), tuple_size=3, op=op)
    kernels.lane_scan(view, op, 3, out=view)
    _assert_bitwise(view.copy(), ref)
    _assert_bitwise(base[1::2], keep[1::2])  # untouched interleaved half


def test_lane_scan_strided_carry_and_tail():
    op = get_op("add")
    rng = np.random.default_rng(37)
    s = 3
    base = rng.integers(-50, 50, 2 * (7 * s + 2)).astype(np.int64)
    view = base[::2]                       # length 7*s + 2: ragged tail
    keep = view.copy()
    carry = rng.integers(-50, 50, s).astype(np.int64)
    want = view.copy()
    for phase in range(s):                 # per-lane oracle
        lane = want[phase::s]
        op.accumulate(lane, out=lane)
        lane += carry[phase]
    got = kernels.lane_scan(view, op, s, out=np.empty(view.shape, view.dtype),
                            head=view[:s] + carry)
    _assert_bitwise(got, want)
    _assert_bitwise(view.copy(), keep)  # the head goes to out, not src


def test_lane_scan_strided_non_ufunc_falls_back_per_lane():
    op = _looped_concat_op()
    rng = np.random.default_rng(41)
    base = rng.integers(0, 4, 46).astype(np.int64)
    view = base[::2]
    ref = prefix_sum_serial(view.copy(), tuple_size=2, op=op)
    got = kernels.lane_scan(view, op, 2, out=np.empty_like(view.copy()))
    _assert_bitwise(got, ref)


# -- the s == 1 lane-pair path -------------------------------------------

PAIR_OPS = ["add", "max", "min", "xor", "and", "or"]
PAIR_DTYPES = ["int32", "uint32", "int64", "uint64"]


def _pair_lengths(dtype):
    lo = lane_mod._PAIR_MIN_ELEMENTS
    tile = lane_mod._PAIR_TILE_BYTES // np.dtype(dtype).itemsize
    return [
        lo - 1, lo, lo + 1, lo + 3,
        tile - 1, tile, tile + 1,
        2 * tile + 7, 3 * tile + 1,
    ]


def _full_range(rng, n, dtype):
    # Full-width draws, so add wraps around on nearly every element.
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)


def _accumulate_oracle(op, values, carry):
    dt = values.dtype
    want = op.ufunc.accumulate(values, dtype=dt)
    if carry is not None:
        want = op.ufunc(carry[0], want, dtype=dt)
    return want


@pytest.fixture
def pair_calls(monkeypatch):
    """Count the chunks that take the lane-pair path."""
    calls = []
    real = lane_mod._pair_scan

    def spy(src, op, out, head):
        calls.append(src.size)
        return real(src, op, out, head)

    monkeypatch.setattr(lane_mod, "_pair_scan", spy)
    return calls


@pytest.mark.parametrize("opname", PAIR_OPS)
@pytest.mark.parametrize("dtype", PAIR_DTYPES)
def test_pair_path_matches_1d_accumulate(opname, dtype, pair_calls):
    op = get_op(opname)
    rng = np.random.default_rng(hash((opname, dtype, "pair")) % 2**32)
    for n in _pair_lengths(dtype):
        values = _full_range(rng, n, dtype)
        for carry in (None, _full_range(rng, 1, dtype)):
            want = _accumulate_oracle(op, values, carry)
            msg = f"n={n} carry={carry is not None}"
            # The carry folded into the head row, the continuation rule.
            head = None if carry is None else op.apply(carry, values[:1])

            inplace = values.copy()
            kernels.lane_scan(inplace, op, 1, out=inplace, head=head)
            _assert_bitwise(inplace, want, "in place " + msg)

            src = values.copy()
            distinct = kernels.lane_scan(src, op, 1, head=head)
            _assert_bitwise(distinct, want, "distinct " + msg)
            _assert_bitwise(src, values, "source untouched " + msg)

            base = _full_range(rng, 2 * n, dtype)
            view = base[::2]
            view[...] = values
            odd = base[1::2].copy()
            kernels.lane_scan(view, op, 1, out=view, head=head)
            _assert_bitwise(view.copy(), want, "strided " + msg)
            _assert_bitwise(base[1::2], odd, "interleaved half " + msg)

            engaged = n >= lane_mod._PAIR_MIN_ELEMENTS
            assert (n in pair_calls) == engaged, msg
            pair_calls.clear()


def test_pair_path_gate(pair_calls):
    rng = np.random.default_rng(43)
    n = 3 * lane_mod._PAIR_TILE_BYTES // 8 + 1
    ints = rng.integers(-50, 50, n).astype(np.int64)
    custom_add = AssociativeOp(
        "custom-add", fn=np.add, identity_fn=lambda dt: 0, ufunc=np.add,
    )
    declined = [
        (get_op("add"), rng.standard_normal(n)),
        (get_op("max"), rng.standard_normal(n).astype(np.float32)),
        (get_op("mul"), rng.integers(-3, 4, n).astype(np.int64)),
        (custom_add, ints),
        (_looped_concat_op(), ints[: lane_mod._PAIR_MIN_ELEMENTS] & 3),
    ]
    for op, values in declined:
        want = op.accumulate(values)
        _assert_bitwise(kernels.lane_scan(values, op, 1), want, op.name)
    assert pair_calls == []
    kernels.lane_scan(ints, get_op("add"), 1)
    assert pair_calls == [n]


def test_pair_path_byte_ceiling():
    # np.empty does not touch its pages, so the ceiling-sized arrays
    # cost no memory.
    op = get_op("add")
    for dtype in PAIR_DTYPES:
        top = lane_mod._PAIR_MAX_BYTES // np.dtype(dtype).itemsize
        at = np.empty(top, dtype=dtype)
        above = np.empty(top + 1, dtype=dtype)
        assert lane_mod._pair_supported(at, op, at)
        assert not lane_mod._pair_supported(above, op, above)


def test_pair_path_concurrent_callers():
    # Threaded slabs call lane_scan at once: each call owns its scratch
    # tile.  A shared buffer would mix tiles between callers.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    op = get_op("add")
    rng = np.random.default_rng(47)
    n = 3 * lane_mod._PAIR_TILE_BYTES // 8 + 1
    inputs = [_full_range(rng, n, "int64") for _ in range(8)]
    wants = [_accumulate_oracle(op, x, None) for x in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(kernels.lane_scan, x, op, 1) for x in inputs * 4
            ]
            outs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(outs):
        _assert_bitwise(got, wants[i % len(inputs)], f"call {i}")
