"""Layout invariance for every carry kind of :mod:`repro.kernels.splice`.

One property per kind, in two checks: the slab driver equals the serial
kernel bit for bit at any thread count, and splicing random region cuts
through :func:`repro.kernels.splice` then finishing every region from
its incoming carry equals it too — folded into the slab's local scan,
and rescanned by the kind's shard kernel (whose reduce form must end on
the slab's aggregate).
Each kind is one entry of ``CASES``: how to draw an input and the carry
entering it, the serial kernel, the kind's threaded entry point and its
in-memory buffers.  A new carry kind is tested by adding one entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    fused_lane_scan,
    lane_scan,
    lane_scan_compensated,
    segment_span,
    threaded_fused_lane_scan,
    threaded_lane_scan,
)
from repro.kernels.compensated import HI, LO, _scan_serial, fresh_state
from repro.kernels.splice import CompensatedCarry, FusedCarry, RowCarry, splice


class Row:
    """The plain row: wrapping ``int64`` ``add`` or ``int32`` ``max``."""

    def __init__(self, op, dtype, s):
        self.op, self.dtype, self.s = op, np.dtype(dtype), s

    def kind(self):
        return RowCarry(self.op, self.dtype, self.s)

    def draw(self, rng):
        info = np.iinfo(self.dtype)
        x = rng.integers(info.min, info.max, 3_001 * self.s + self.s // 2)
        carry = rng.integers(info.min, info.max, self.s)
        return x.astype(self.dtype), carry.astype(self.dtype)

    def buffers(self, x):
        return (x, np.empty_like(x))

    def serial(self, x, carry):
        return lane_scan(x, self.kind().op, self.s, carry=carry), None

    def threaded(self, x, carry, threads):
        out = threaded_lane_scan(
            x, self.kind().op, self.s, carry=carry, threads=threads,
            cutover_bytes=0,
        )
        return out, None


class Fused(Row):
    """The fused ``(q, s)`` matrix: wrapping ``int64`` ``add``."""

    def __init__(self, q, s):
        super().__init__("add", np.int64, s)
        self.q = q

    def kind(self):
        return FusedCarry("add", self.dtype, self.s, self.q)

    def draw(self, rng):
        x, _ = super().draw(rng)
        info = np.iinfo(self.dtype)
        carry = rng.integers(info.min, info.max, (self.q, self.s))
        return x, carry.astype(self.dtype)

    def buffers(self, x):
        return (x, x)

    def serial(self, x, carry):
        return fused_lane_scan(x, "add", self.s, self.q, carry), carry

    def threaded(self, x, carry, threads):
        threaded_fused_lane_scan(
            x, "add", self.s, self.q, carry, threads=threads, cutover_bytes=0
        )
        return x, carry


class Compensated:
    """The compensated chain: ``float64`` ``add`` on a cancellation-heavy
    input, entering at a segment boundary with a live ``(H, G)``."""

    def __init__(self, s):
        self.s = s

    def kind(self):
        return CompensatedCarry(np.float64, self.s)

    def draw(self, rng):
        n = 6 * segment_span(self.s)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 16, n)
        carry = self.kind().identity()
        carry[0] = rng.standard_normal(self.s) * 1e12
        carry[1] = rng.standard_normal(self.s) * 1e-6
        return x, carry

    def buffers(self, x):
        return (x, np.empty_like(x), np.empty_like(x))

    def _state(self, carry):
        state = fresh_state(np.float64, self.s)
        state[[HI, LO]] = carry[:2]
        return state

    def serial(self, x, carry):
        state = self._state(carry)
        out = _scan_serial(x, self.s, state, 0, np.empty_like(x))
        return out, state[[HI, LO]]

    def threaded(self, x, carry, threads):
        state = self._state(carry)
        out = lane_scan_compensated(
            x, "add", self.s, state, 0, threads=threads, cutover_bytes=0
        )
        return out, state[[HI, LO]]


CASES = {
    "row-add-int64-s3": Row("add", np.int64, 3),
    "row-max-int32-s1": Row("max", np.int32, 1),
    "fused-q3-s4": Fused(3, 4),
    "compensated-s2": Compensated(2),
}


def _assert_same(got, want):
    if want is not None:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_slab_driver_matches_serial(name, threads):
    case = CASES[name]
    x, carry = case.draw(np.random.default_rng(threads))
    want, want_carry = case.serial(x.copy(), carry.copy())
    got, got_carry = case.threaded(x.copy(), carry.copy(), threads)
    _assert_same(got, want)
    _assert_same(got_carry, want_carry)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_random_cuts_splice_and_fold_match_serial(name, seed):
    case = CASES[name]
    rng = np.random.default_rng(100 + seed)
    x, carry = case.draw(rng)
    want, want_carry = case.serial(x.copy(), carry.copy())
    kind = case.kind()
    units = x.size // kind.unit
    cuts = np.sort(rng.choice(np.arange(1, units), rng.integers(1, 6), replace=False))
    edges = [0, *(int(c) * kind.unit for c in cuts), units * kind.unit]
    bounds = list(zip(edges[:-1], edges[1:]))
    buf = case.buffers(x.copy())
    aggregates = [kind.local(buf, lo, hi) for lo, hi in bounds]
    # The shard form of the reduce: the kind's unprimed kernel fed the
    # region in pieces ends on the slab's aggregate (the compensated
    # slab's has two extra rows for chain states).
    for (lo, hi), agg in zip(bounds, aggregates):
        kernel = kind.kernel(lo)
        for pos in range(lo, hi, 257 * kind.s):
            kernel.feed(x[pos : min(pos + 257 * kind.s, hi)].copy())
        reduced = kind.aggregate(kernel)
        _assert_same(reduced, agg[tuple(slice(0, d) for d in reduced.shape)])
    counts = [np.full(kind.s, (hi - lo) // kind.s) for lo, hi in bounds]
    seen = [np.ones(kind.s, dtype=bool)] * len(bounds)
    incoming, running = splice(kind, carry, aggregates, counts, seen)
    # The shard form: each region rescanned in pieces by the kind's
    # kernel started from its incoming carry.  Starting one unit late
    # keeps the lane phases (and the segment grid) and makes every lane
    # live, as the drawn carry's lanes are.
    rescanned = np.empty_like(x)
    for (lo, hi), c, agg, lanes in zip(bounds, incoming, aggregates, seen):
        kind.fold_slab(buf, lo, hi, c, agg, lanes)
        kernel = kind.kernel(lo + kind.unit, c)
        for pos in range(lo, hi, 257 * kind.s):
            end = min(pos + 257 * kind.s, hi)
            rescanned[pos:end] = kernel.feed(x[pos:end].copy())
    if x.size > edges[-1]:
        kernel = kind.kernel(edges[-1] + kind.unit, running.copy())
        rescanned[edges[-1] :] = kernel.feed(x[edges[-1] :].copy())
        kind.tail(buf, edges[-1], running)
    else:  # the carry's heads are the last value of every lane
        heads = kind.kernel(edges[-1] + kind.unit, running).heads()
        _assert_same(heads, want[-kind.s :])
    _assert_same(buf[1], want)
    _assert_same(rescanned, want)
    if want_carry is not None:
        _assert_same(running[: len(want_carry)], want_carry)
