"""BatchedLaneKernel: coalesced multi-stream dispatch, bit-exact.

The batched kernel must be invisible: feeding B sessions through one
:func:`repro.serve.feed_batch` dispatch (``BatchedLaneKernel.scan`` over
the sessions' own ``LaneKernel`` state) has to leave every output,
carry, live-lane mask and position bit-identical to B independent
``ScanSession.feed`` calls.  These tests sweep op/dtype/tuple-size over
ragged chunk mixes (mixed positions, chunks shorter than one stride so
some lanes are still dead, empty chunks, fresh and restored sessions),
run compensated float sessions over the same kind of mix (segment
crossings, cuts on the segment grid, signed zeros, infinities, NaN),
and pin down the eligibility rule, the staging-buffer reuse and the
occupancy counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_int_array
from repro.kernels import BatchedLaneKernel, batchable_op_dtype, segment_span
from repro.ops import get_op
from repro.serve import feed_batch
from repro.stream import ScanSession

GRID = [
    ("add", np.int64, 1),
    ("add", np.int32, 4),
    ("max", np.int64, 3),
    ("min", np.int32, 2),
    ("xor", np.uint64, 2),
    ("mul", np.int32, 1),
]


def _sessions(op_name, dtype, s, count):
    # Alternate the flavours: the exclusive shift is a per-session
    # epilogue, so inclusive and exclusive sessions share a batch.
    return [
        ScanSession(op=op_name, tuple_size=s, dtype=dtype, inclusive=i % 2 == 0)
        for i in range(count)
    ]


def _assert_same_state(a: ScanSession, b: ScanSession):
    assert a.offset == b.offset
    np.testing.assert_array_equal(a.kernel.carry, b.kernel.carry)
    np.testing.assert_array_equal(a.kernel.active, b.kernel.active)
    assert a.counters.chunks == b.counters.chunks
    assert a.counters.elements == b.counters.elements


def _assert_same_outputs(got, want):
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype


@pytest.mark.parametrize("op_name,dtype,s", GRID)
def test_feed_many_matches_sequential_feeds(rng, op_name, dtype, s):
    lo, hi = (0, 100) if np.dtype(dtype).kind == "u" else (-50, 50)
    streams = []
    for _ in range(5):
        # Lengths below one stride leave lanes dead for a round.
        lengths = rng.integers(0, 8 * s, size=4)
        streams.append(
            [make_int_array(rng, n, dtype=dtype, lo=lo, hi=hi) for n in lengths]
        )
    sequential = _sessions(op_name, dtype, s, len(streams))
    seq_outs = [
        [session.feed(c) for c in chunks]
        for session, chunks in zip(sequential, streams)
    ]
    batched = _sessions(op_name, dtype, s, len(streams))
    kernel = BatchedLaneKernel(get_op(op_name), dtype, s)
    bat_outs = [[] for _ in streams]
    for r in range(4):
        live = [i for i in range(len(streams)) if (r + i) % 4]  # ragged rounds
        for i in sorted(set(range(len(streams))) - set(live)):
            bat_outs[i].append(batched[i].feed(streams[i][r]))
        produced = feed_batch(
            [batched[i] for i in live], [streams[i][r] for i in live], kernel
        )
        for i, out in zip(live, produced):
            bat_outs[i].append(out)
    for i in range(len(streams)):
        _assert_same_state(sequential[i], batched[i])
        _assert_same_outputs(bat_outs[i], seq_outs[i])


def test_ragged_batch_with_empty_and_fresh_streams(rng):
    sessions = _sessions("add", np.int64, 2, 3)
    sessions[0].feed(make_int_array(rng, 11, dtype=np.int64))  # mid-stream
    chunks = [
        make_int_array(rng, 8, dtype=np.int64),
        np.array([], dtype=np.int64),  # empty: no-op but valid
        make_int_array(rng, 1, dtype=np.int64),  # fresh, one lane stays dead
    ]
    # Sequential oracle sharing the same pre-state.
    oracle = _sessions("add", np.int64, 2, 3)
    oracle[0].load_state_dict(sessions[0].state_dict())
    expected = [o.feed(c) for o, c in zip(oracle, chunks)]

    produced = feed_batch(sessions, chunks)
    _assert_same_outputs(produced, expected)
    for got, want in zip(sessions[1:], oracle[1:]):
        _assert_same_state(got, want)
    assert sessions[0].offset == oracle[0].offset == 19
    np.testing.assert_array_equal(sessions[0].kernel.carry, oracle[0].kernel.carry)
    assert not sessions[2].kernel.active[1]


def test_occupancy_counters(rng):
    kernel = BatchedLaneKernel(get_op("add"), np.dtype(np.int64), 1)
    sessions = _sessions("add", np.int64, 1, 4)
    feed_batch(sessions, [make_int_array(rng, 16, dtype=np.int64)] * 4, kernel)
    feed_batch(sessions[:2], [make_int_array(rng, 16, dtype=np.int64)] * 2, kernel)
    assert kernel.dispatches == 2
    assert kernel.streams_fed == 6
    assert kernel.occupancy() == pytest.approx(3.0)
    assert [s.counters.batched_feeds for s in sessions] == [2, 2, 1, 1]


def test_batchable_op_dtype_gates():
    assert batchable_op_dtype(get_op("add"), np.dtype(np.int64))
    assert batchable_op_dtype(get_op("xor"), np.dtype(np.uint32))
    assert not batchable_op_dtype(get_op("add"), np.dtype(np.float64))


def test_feed_many_rejects_mismatched_kernels(rng):
    sessions = _sessions("add", np.int64, 2, 1)
    chunk = [make_int_array(rng, 4, dtype=np.int64)]
    wrong_s = BatchedLaneKernel(get_op("add"), np.dtype(np.int64), 3)
    with pytest.raises(ValueError, match="batch key"):
        feed_batch(sessions, chunk, wrong_s)
    wrong_dtype = BatchedLaneKernel(get_op("add"), np.dtype(np.int32), 2)
    with pytest.raises(ValueError, match="batch key"):
        feed_batch(sessions, chunk, wrong_dtype)
    wrong_op = BatchedLaneKernel(get_op("max"), np.dtype(np.int64), 2)
    with pytest.raises(ValueError, match="batch key"):
        feed_batch(sessions, chunk, wrong_op)
    assert sessions[0].offset == 0  # nothing was fed


def test_staging_buffer_reuse_does_not_leak_state(rng):
    """A large batch followed by a small one reuses the staging slab;
    stale identity-padding or carries must not bleed through."""
    kernel = BatchedLaneKernel(get_op("add"), np.dtype(np.int64), 1)
    big = _sessions("add", np.int64, 1, 6)
    feed_batch(big, [make_int_array(rng, 64, dtype=np.int64) for _ in big], kernel)
    small = _sessions("add", np.int64, 1, 2)
    chunks = [make_int_array(rng, 5, dtype=np.int64) for _ in small]
    oracle = _sessions("add", np.int64, 1, 2)
    expected = [o.feed(c) for o, c in zip(oracle, chunks)]
    _assert_same_outputs(feed_batch(small, chunks, kernel), expected)
    for got, want in zip(small, oracle):
        _assert_same_state(got, want)


# -- compensated float sessions ----------------------------------------------


def _comp_sessions(s, order, count):
    return [
        ScanSession(op="add", order=order, tuple_size=s, dtype=np.float64,
                    float_mode="compensated", inclusive=i % 2 == 0)
        for i in range(count)
    ]


def _comp_stream(rng, s, specials, on_grid):
    """One stream's ragged chunks: empty, shorter than ``s``, crossing a
    segment boundary, a few elements, and (``on_grid``) ending exactly
    on a segment boundary."""
    span = segment_span(s)
    edge = "boundary" if on_grid else "small"
    chunks, pos = [], 0
    for kind in rng.permutation([edge, "small", "empty", "short", "cross", edge]):
        if kind == "empty":
            n = 0
        elif kind == "short":
            n = int(rng.integers(1, s)) if s > 1 else 1
        elif kind == "boundary":
            n = span - pos % span
        elif kind == "cross":
            n = span - pos % span + int(rng.integers(1, 3 * s + 2))
        else:
            n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 16, n)
        if n and specials:
            at = rng.integers(0, n, min(n, len(specials)))
            x[at] = specials[: at.size]
        chunks.append(x)
        pos += n
    return chunks


def _assert_same_comp_state(a: ScanSession, b: ScanSession):
    assert a.offset == b.offset
    assert a.kernel.comp.tobytes() == b.kernel.comp.tobytes()
    assert a.kernel.carry.tobytes() == b.kernel.carry.tobytes()


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("on_grid", [False, True])
def test_compensated_feed_batch_matches_sequential_feeds(rng, s, order, on_grid):
    # Signed zeros in most streams; one stream each meets +-inf and NaN.
    specials = [[0.0, -0.0], [-0.0], [], [np.inf, -0.0], [np.nan], [-np.inf]]
    streams = [_comp_stream(rng, s, sp, on_grid) for sp in specials]
    sequential = _comp_sessions(s, order, len(streams))
    seq_outs = [
        [session.feed(c) for c in chunks]
        for session, chunks in zip(sequential, streams)
    ]
    batched = _comp_sessions(s, order, len(streams))
    bat_outs = [[] for _ in streams]
    for r in range(len(streams[0])):
        live = [i for i in range(len(streams)) if (r + i) % 5]  # ragged rounds
        for i in sorted(set(range(len(streams))) - set(live)):
            bat_outs[i].append(batched[i].feed(streams[i][r]))
        produced = feed_batch(
            [batched[i] for i in live], [streams[i][r] for i in live]
        )
        for i, out in zip(live, produced):
            bat_outs[i].append(out)
    for i in range(len(streams)):
        _assert_same_comp_state(sequential[i], batched[i])
        for got, want in zip(bat_outs[i], seq_outs[i]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_compensated_batch_ending_on_segment_boundary_crosses_chain(rng, order):
    """A batched chunk that ends exactly on a segment boundary must fold
    the finished segment into the double-double chain, as a solo feed
    does; otherwise the stream drifts off the fixed segment grid."""
    from repro import prefix_sum

    s, B = 2, 3
    span = segment_span(s)
    xs = [rng.standard_normal(span + 50) * 1e8 for _ in range(B)]
    batched = _comp_sessions(s, order, B)
    solo = _comp_sessions(s, order, B)
    for i, x in enumerate(xs):  # stagger the streams inside segment 0
        batched[i].feed(x[: 3 * i])
        solo[i].feed(x[: 3 * i])
    feed_batch(batched, [x[3 * i : span] for i, x in enumerate(xs)])
    for i, x in enumerate(xs):
        solo[i].feed(x[3 * i : span])
        assert batched[i].state_dict() == solo[i].state_dict()
    tails = feed_batch(batched, [x[span:] for x in xs])
    for i, x in enumerate(xs):
        want = prefix_sum(x, order=order, tuple_size=s, engine="host",
                          float_mode="compensated", inclusive=i % 2 == 0)
        assert tails[i].tobytes() == want[span:].tobytes()
