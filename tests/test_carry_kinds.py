"""Layout invariance for every carry kind of :mod:`repro.kernels.splice`.

One property per kind, in two checks: ``threads=`` equals the serial
kernel bit for bit at any thread count — on the slab driver for the row
kind, and through the gate that scans the fused and compensated kinds
serially — and splicing random region cuts through
:func:`repro.kernels.splice` then finishing every region from its
incoming carry equals it too.  Region aggregates come from the kind's
shard reduce kernel; every kind rescans each region with its shard
kernel, and the row kind also folds the carry into its slabs' local
scans (:mod:`repro.kernels.threaded`).
Each kind is one entry of ``CASES``: how to draw an input and the carry
entering it, the serial kernel and the kind's ``threads=`` entry point.
A new carry kind is tested by adding one entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import LaneKernel, fused_lane_scan, lane_scan, segment_span
from repro.kernels.compensated import HI, LO, _scan_serial, fresh_state
from repro.kernels.splice import CompensatedCarry, FusedCarry, RowCarry, splice
from repro.kernels.threaded import slab_fold, slab_local, slab_scan, slab_tail


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

    def head(self, x, carry):
        """The entering carry folded into the chunk's head row."""
        return self.kind().op.apply(carry, x[: self.s])

    def serial(self, x, carry):
        return lane_scan(x, self.kind().op, self.s, head=self.head(x, carry)), None

    def threaded(self, x, carry, threads):
        # The slab driver runs at every count but one, where it declines
        # and the serial kernel scans, as in LaneKernel.
        op, out, head = self.kind().op, np.empty_like(x), self.head(x, carry)
        ran = slab_scan(x, out, op, self.s, head, threads=threads, cutover_bytes=0)
        assert ran == (threads > 1)
        if not ran:
            lane_scan(x, op, self.s, out=out, head=head)
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

    def serial(self, x, carry):
        carry = fused_lane_scan(x, "add", self.s, self.q, carry)
        return x, carry

    def threaded(self, x, carry, threads):
        # No slab path: the kernel keeps threads=None and scans serially.
        # Starting one row late keeps the lane phases and makes every
        # lane live, as the drawn carry's lanes are.
        kernel = LaneKernel(
            "add", self.dtype, self.s, start=self.s, prime=carry,
            order=self.q, threads=threads, cutover_bytes=0,
        )
        out = kernel.feed(x)
        assert kernel.threads is None and kernel.counters.threaded_scans == 0
        return out, kernel.carry


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

    def _state(self, carry):
        state = fresh_state(np.float64, self.s)
        state[[HI, LO]] = carry[:2]
        return state

    def serial(self, x, carry):
        state = self._state(carry)
        out = _scan_serial(x, self.s, state, 0, np.empty_like(x))
        return out, state[[HI, LO]]

    def threaded(self, x, carry, threads):
        # No slab path: the kernel keeps threads=None and scans serially.
        kernel = LaneKernel(
            "add", np.float64, self.s, float_mode="compensated",
            threads=threads, cutover_bytes=0,
        )
        kernel.load_state(0, kernel.carry, self._state(carry)[None])
        out = kernel.feed(x)
        assert kernel.threads is None and kernel.counters.threaded_scans == 0
        return out, kernel.comp[0][[HI, LO]]


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
    # The reduce: the kind's unprimed shard kernel fed the region in
    # pieces.
    aggregates = []
    for lo, hi in bounds:
        kernel = kind.kernel(lo)
        for pos in range(lo, hi, 257 * kind.s):
            kernel.feed(x[pos : min(pos + 257 * kind.s, hi)].copy())
        aggregates.append(kind.aggregate(kernel))
    counts = [np.full(kind.s, (hi - lo) // kind.s) for lo, hi in bounds]
    seen = [np.ones(kind.s, dtype=bool)] * len(bounds)
    incoming, running = splice(kind, carry, aggregates, counts, seen)
    # The shard form: each region rescanned in pieces by the kind's
    # kernel started from its incoming carry.  Starting one unit late
    # keeps the lane phases (and the segment grid) and makes every lane
    # live, as the drawn carry's lanes are.
    rescanned = np.empty_like(x)
    for (lo, hi), c in zip(bounds, incoming):
        kernel = kind.kernel(lo + kind.unit, c)
        for pos in range(lo, hi, 257 * kind.s):
            end = min(pos + 257 * kind.s, hi)
            rescanned[pos:end] = kernel.feed(x[pos:end].copy())
    final = running
    if x.size > edges[-1]:
        kernel = kind.kernel(edges[-1] + kind.unit, running.copy())
        rescanned[edges[-1] :] = kernel.feed(x[edges[-1] :].copy())
        final = kernel.carry  # the carry after the partial row
    else:  # the carry's heads are the last value of every lane
        heads = kind.kernel(edges[-1] + kind.unit, running).heads()
        _assert_same(heads, want[-kind.s :])
    _assert_same(rescanned, want)
    if want_carry is not None:
        _assert_same(final[: len(want_carry)], want_carry)
    if isinstance(kind, (FusedCarry, CompensatedCarry)):
        return
    # The slab form (row kind only): each region scanned locally ends on
    # the reduce's aggregate, and folding its incoming carry finishes it.
    out = np.empty_like(x)
    for (lo, hi), c, agg in zip(bounds, incoming, aggregates):
        _assert_same(slab_local(kind, x, out, lo, hi), agg)
        slab_fold(kind, out, lo, hi, c)
    if x.size > edges[-1]:
        slab_tail(kind, x, out, edges[-1], running)
    _assert_same(out, want)
