"""Carry kinds and the one splice, written once for every parallel scan.

A parallel scan cuts its input into regions — shards of one file
(:mod:`repro.stream.sharded`), or slabs of one in-memory chunk for the
row kind (:func:`repro.kernels.threaded.slab_scan`) — reduces each
region locally from a zero carry, splices the region aggregates with a
short exclusive scan on the host, and then finishes each region from
its incoming carry: the paper's two-level carry propagation (§2.2), as
in LightScan and the CPU SIMD partition scans.  Shards rescan their
input with a kernel started from it (:meth:`RowCarry.kernel`).  Only the
*carry kind* differs:

* :class:`RowCarry` — one order's ``(s,)`` row of lane totals (any op);
* :class:`FusedCarry` — the fused ``(q, s)`` order-total matrix
  (integer ``add``), spliced by the binomial identity;
* :class:`CompensatedCarry` — the compensated double-double chain
  (float ``add``).

Each kind supplies what the sharded driver uses: the identity,
``combine``, the shard kernel and the aggregate read off it,
encode/decode of an aggregate for the manifest, and ``unit``, the grid
regions start on.  :func:`splice` is the one exclusive scan over
aggregates.  Carries are in the lane order of the frame the regions are
cut from: global lanes for shards, chunk phases for slabs (slabs start
on whole rows).  The row kind's slab steps live beside their one driver
in :mod:`repro.kernels.threaded`.
"""

from __future__ import annotations

import base64

import numpy as np

from repro.kernels.compensated import (
    HI,
    LO,
    CompensatedCollectKernel,
    _dd_render,
    fresh_state,
    segment_span,
)
from repro.kernels.lane import LaneKernel, fused_combine
from repro.ops import ADD, get_op
from repro.ops.eft import NEG_ZERO, dd_add


class RowCarry:
    """The plain ``(s,)`` carry row of one order's pass (any operator)."""

    def __init__(self, op, dtype, tuple_size: int):
        self.op = get_op(op)
        self.dtype = np.dtype(dtype)
        self.s = int(tuple_size)
        #: Elements per grid unit: regions start on whole lane rows.
        self.unit = self.s

    def shape(self, elements: int = 0) -> tuple:
        """Shape of a region's aggregate (and of the carry)."""
        return (self.s,)

    def identity(self) -> np.ndarray:
        """The carry before any region."""
        return np.full(self.shape(), self.op.identity(self.dtype), dtype=self.dtype)

    def combine(self, running, agg, counts, seen):
        """The carry after a region with aggregate ``agg``, per-lane
        element ``counts`` and ``seen`` lanes (an element before it):
        seen lanes combine, lanes first met take ``agg``, untouched
        lanes keep ``running``."""
        combined = np.where(seen, self.op.apply(running, agg), agg)
        return np.where(counts > 0, combined, running)

    def kernel(self, start, carry=None, **options):
        """A shard's kernel at global index ``start``.  Without
        ``carry`` it is the reduce pass's: :meth:`aggregate` reads the
        shard's aggregate off it (per-lane reduces for integers,
        :class:`LaneReduce`; an unprimed scan for floats, whose reduce
        would lose a ``-0.0`` total).  With the shard's incoming
        ``carry`` it is the scan pass's :class:`repro.kernels.LaneKernel`,
        whose output is final as written.  ``options`` (``engine``,
        ``threads``) go to the :class:`repro.kernels.LaneKernel`."""
        if carry is None and self.dtype.kind in "iu":
            return LaneReduce(self.op, self.dtype, self.s, start)
        return LaneKernel(
            self.op, self.dtype, self.s, start=start, prime=carry,
            float_mode="regrouped", **options,
        )

    def aggregate(self, kernel) -> np.ndarray:
        """A shard's aggregate, read off the kernel that reduced it."""
        return kernel.carry[0].copy()

    def encode(self, agg) -> str:
        """An aggregate as manifest text."""
        return base64.b64encode(np.ascontiguousarray(agg).tobytes()).decode("ascii")

    def decode(self, blob, elements: int) -> np.ndarray:
        """A region of ``elements``'s aggregate from :meth:`encode` text;
        ``ValueError`` unless the text is base64 of exactly the kind's
        shape."""
        shape = self.shape(elements)
        raw = base64.b64decode(blob, validate=True)
        expected = int(np.prod(shape)) * self.dtype.itemsize
        if len(raw) != expected:
            raise ValueError(f"{len(raw)} bytes, expected {expected} (shape {shape})")
        return np.frombuffer(raw, dtype=self.dtype).reshape(shape).copy()


class FusedCarry(RowCarry):
    """The fused ``(q, s)`` order-total matrix (integer ``add``; row
    ``j - 1`` holds the order-``j`` totals).  It splices by the binomial
    identity (:func:`repro.kernels.fused_combine`), exact mod
    ``2**w``."""

    def __init__(self, op, dtype, tuple_size: int, order: int):
        super().__init__(op, dtype, tuple_size)
        self.q = int(order)

    def shape(self, elements: int = 0) -> tuple:
        return (self.q, self.s)

    def combine(self, running, agg, counts, seen):
        return fused_combine(running, agg, counts)

    def kernel(self, start, carry=None, **options):
        """Both passes scan at order ``q``: a shard's order-``j`` totals
        need its order-``(j - 1)`` values."""
        return LaneKernel(
            self.op, self.dtype, self.s, start=start, prime=carry,
            order=self.q, **options,
        )

    def aggregate(self, kernel) -> np.ndarray:
        return kernel.carry.copy()


class CompensatedCarry(RowCarry):
    """The compensated double-double chain (float ``add`` only).

    Regions are whole segments of the fixed segment grid of
    :mod:`repro.kernels.compensated`.  A region's aggregate is its
    ``(K, 2, s)`` per-segment ``(T, F)`` totals; the carry is ``(3, s)``:
    the chain state ``(H, G)`` and the last row rendered so far.
    Combine replays the sequential ``dd_add`` chain over the region's
    segments — the same steps in the same order for any cut into
    regions, so every layout gives the same bits.
    """

    def __init__(self, dtype, tuple_size: int):
        super().__init__(ADD, dtype, tuple_size)
        self.unit = segment_span(self.s)

    def shape(self, elements: int = 0) -> tuple:
        return (-(-int(elements) // self.unit), 2, self.s)

    def identity(self) -> np.ndarray:
        return np.full((3, self.s), NEG_ZERO, dtype=self.dtype)

    def combine(self, running, agg, counts, seen):
        """Replay ``dd_add`` over the region's segments — sequential by
        definition (``dd_add`` is not associative), one step each."""
        if not len(agg):
            return running
        hi, lo = running[0], running[1]
        for k in range(len(agg)):
            before = hi, lo
            hi, lo = dd_add(hi, lo, agg[k, 0], agg[k, 1])
        last = np.empty(self.s, dtype=self.dtype)
        _dd_render(agg[-1, 0], agg[-1, 1], *before, last)
        return np.stack([hi, lo, last])

    def kernel(self, start, carry=None, **options):
        """The reduce pass collects segment totals
        (:class:`repro.kernels.CompensatedCollectKernel`); the scan pass
        is the serial compensated scan from the chain state ``(H, G)``
        entering the shard, with fresh in-segment partials (shards start
        on the segment grid).  At each segment end it crosses into the
        chain with the same ``dd_add`` on the same totals the splice
        made, so it renders the same bits."""
        if carry is None:
            return CompensatedCollectKernel(self.op, self.dtype, self.s, start=start)
        kernel = LaneKernel(
            self.op, self.dtype, self.s, float_mode="compensated", **options
        )
        state = fresh_state(self.dtype, self.s)
        state[[HI, LO]] = carry[:2]
        kernel.load_state(start, carry[2], state)
        return kernel

    def aggregate(self, kernel) -> np.ndarray:
        return kernel.segment_totals()


class LaneReduce:
    """The row kind's integer reduce-pass kernel: each chunk's per-lane
    ``op`` reduce, combined into the running ``(1, s)`` lane totals a
    zero-carry scan would end on — exact, and several times cheaper
    than the scan at ``s == 1``."""

    def __init__(self, op, dtype, tuple_size: int, start: int):
        self.op = op
        self.s = tuple_size
        self.pos = start
        self.carry = np.full((1, tuple_size), op.identity(dtype), dtype=dtype)

    def feed(self, chunk: np.ndarray) -> None:
        row = self.carry[0]
        for p in range(min(self.s, chunk.size)):
            lane = (self.pos + p) % self.s
            row[lane] = self.op.apply(row[lane], self.op.reduce(chunk[p :: self.s]))
        self.pos += chunk.size


def splice(kind, running, aggregates, counts, seen):
    """Exclusive scan of region aggregates: the carry entering each region.

    ``running`` enters the first region; ``counts[i]`` and ``seen[i]``
    are region ``i``'s per-lane element counts and the lanes with an
    element before it.  Returns ``(incoming, running)``: the carry
    entering each region and the carry after the last.
    """
    incoming = []
    for i, agg in enumerate(aggregates):
        incoming.append(running)
        if (counts[i] > 0).any():
            running = kind.combine(running, agg, counts[i], seen[i])
    return incoming, running
