"""Batched multi-stream lane scans: B carry continuations, one dispatch.

The serving workload (:mod:`repro.serve`) is thousands of small
concurrent streams, not one giant array.  Feeding each stream through
its own :class:`~repro.kernels.LaneKernel` costs a full Python/numpy
dispatch per chunk — tens of microseconds of interpreter overhead to
scan a kilobyte.  This module coalesces ``B`` *compatible* pending
feeds (same operator, dtype, tuple size and order) into one staged
accumulate per scan pass, so the per-feed overhead is paid once per
batch instead of once per stream.  It is the paper's tuple idea along a
second axis: ``s`` interleaved sums are one scan, and so are ``B``
streams.

Staging by prepending the carry
-------------------------------

Stream ``i``'s chunk (length ``n_i``, first element at stream position
``pos_i``) is laid into block ``i`` of a ``(B, rows + 1, s)`` buffer
from row 1 on, where ``rows = ceil(max_i n_i / s)``; the tail of each
block is padded with the operator's identity, and row 0 holds the
stream's carry head in chunk-phase order.  One ``accumulate(axis=1)``
then continues every lane of every stream at once.  Identity padding
keeps each lane constant past its last real element (``op(x, e) ==
x``), so the last staged row is each lane's new running total, and an
untouched lane's total is the head it started from.  One staging helper
serves the three carry kinds:

* **row** (integer ufunc operators): row 0 is the carry row, with the
  identity on lanes the stream has not reached.  One accumulate per
  order is the whole pass and the last row is the new carry.
* **compensated** (float ``add``; :mod:`repro.kernels.compensated`):
  row 0 is the naive in-segment partial.  The accumulate continues the
  naive chain, ``two_sum_err`` recovers every rounding error, a second
  staged accumulate continues the error chain, and one broadcast
  renders with each stream's ``(H, G)``.  A chunk that ends exactly on
  a segment boundary then crosses into the double-double chain, as a
  solo feed does; a chunk that would cross *inside* is fed alone by
  :func:`repro.serve.feed_batch`.
* **fused** (integer ``add``, order ``q >= 2``, inside
  :func:`repro.kernels.fused_supported`, every chunk at least ``q * s``
  elements): row 0 is the identity and each stream's binomial carry
  deltas (:func:`repro.kernels.fused_deltas`) are injected into rows
  ``1..q``; ``q`` accumulates then give every order in one staging, and
  each order's totals are harvested at each lane's last real row.

Every kind is **bit-identical** to feeding each stream's
:class:`LaneKernel` alone, because its regrouping is exact: integer
arithmetic is truly associative (wraparound included), and the
compensated carry is defined on a fixed segment grid.  Exact-mode
floats are fed per stream (:class:`LaneKernel`'s head fold); looped
operators have no batched accumulate to win from.

:class:`BatchedLaneKernel` owns a grow-only staging buffer (batches
re-use the allocation) and two occupancy counters, ``dispatches`` and
``streams_fed``, from which the service derives its batch-occupancy
gauge (``streams_fed / dispatches``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.compensated import (
    EPART,
    HI,
    LO,
    VPART,
    _dd_render,
    compensated_supported,
    cross_segment,
    segment_span,
)
from repro.kernels.lane import fused_deltas, fused_supported
from repro.ops import AssociativeOp, get_op
from repro.ops.eft import NEG_ZERO, canonicalize_errors, two_sum_err


def batchable_op_dtype(op: AssociativeOp, dtype) -> bool:
    """Whether ``(op, dtype)`` may take the batched row kind.

    True exactly when the identity-padding argument above is bit-exact:
    a real-ufunc operator over a fixed-width integer dtype.
    """
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        return False
    return op.ufunc is not None and resolved.kind in "iu"


class BatchedLaneKernel:
    """One kernel dispatch servicing ``B`` independent scan streams.

    Parameters
    ----------
    op / dtype / tuple_size:
        The batch compatibility key: every stream fed through this
        kernel must share all three (the server groups pending feeds by
        exactly this key).  A real-ufunc operator over a fixed-width
        integer dtype takes the row kind (fused at order ``q >= 2``
        where the gate allows); float ``add`` takes the compensated
        kind.  Anything else raises ``TypeError``.

    :meth:`scan` runs every pass of one batched feed over the streams'
    own :class:`~repro.kernels.LaneKernel` state;
    :func:`repro.serve.feed_batch` drives it.
    """

    def __init__(self, op, dtype, tuple_size: int = 1):
        self.op = get_op(op)
        self.dtype = self.op.check_dtype(dtype)
        self.compensated = compensated_supported(self.op, self.dtype)
        if not (self.compensated or batchable_op_dtype(self.op, self.dtype)):
            raise TypeError(
                f"batched dispatch requires a ufunc operator over a "
                f"fixed-width integer dtype, or float add (compensated); got "
                f"op={self.op.name!r}, dtype={self.dtype.name}"
            )
        self.s = int(tuple_size)
        if self.s < 1:
            raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
        #: Kernel dispatches issued (each services a whole batch).
        self.dispatches = 0
        #: Stream feeds serviced across all dispatches; the occupancy
        #: gauge is ``streams_fed / dispatches``.
        self.streams_fed = 0
        # NEG_ZERO, not +0.0, is float add's exact identity.
        self._identity = NEG_ZERO if self.compensated else self.op.identity(self.dtype)
        self._staged: Optional[np.ndarray] = None

    def occupancy(self) -> float:
        """Mean streams serviced per dispatch (0.0 before any feed)."""
        return self.streams_fed / self.dispatches if self.dispatches else 0.0

    def scan(self, lanes: Sequence, chunks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every scan pass of one batched feed.

        ``chunks[i]`` (non-empty, the kernel's dtype) continues
        ``lanes[i]``, a :class:`~repro.kernels.LaneKernel` of the
        kernel's operator, dtype and tuple size; all share one order.
        Each kernel's carry (and compensated state) advances in place;
        positions do not (the caller's ``advance`` moves them).  Returns
        the ``B`` inclusive outputs as fresh arrays.
        """
        B, s, q = len(chunks), self.s, lanes[0].order
        ns = [int(c.size) for c in chunks]
        width = (-(-max(ns) // s) + 1) * s
        if self._staged is None or self._staged.size < B * width:
            self._staged = np.empty(B * width, dtype=self.dtype)
        flat = self._staged[: B * width].reshape(B, width)
        pos = np.array([k.pos for k in lanes], dtype=np.int64).reshape(B, 1)
        perms = (pos + np.arange(s)) % s  # (B, s): phase p -> global lane
        if self.compensated:
            self._compensated(lanes, chunks, flat, ns, pos, perms)
        elif q > 1 and fused_supported(self.op, self.dtype, q, s) and min(ns) >= q * s:
            self._fused(lanes, chunks, flat, ns, perms)
        else:
            self._rows(lanes, chunks, flat, ns, pos, perms)
        self.dispatches += 1
        self.streams_fed += B
        return [flat[i, s : s + n].copy() for i, n in enumerate(ns)]

    # -- the staging helper and the three kinds --------------------------

    def _stage(self, flat, head, ns, chunks=None) -> np.ndarray:
        """Row 0 of every block takes ``head`` (``(B, s)``, phase order);
        stream ``i``'s values sit from row 1 (``chunks`` copied in, or
        the previous pass's output left in place) and are padded with
        the identity past ``ns[i]``.  Returns the ``(B, rows + 1, s)``
        view."""
        s, width = self.s, flat.shape[1]
        flat[:, :s] = head
        for i, n in enumerate(ns):
            if chunks is not None:
                flat[i, s : s + n] = chunks[i]
            if s + n < width:
                flat[i, s + n :] = self._identity
        return flat.reshape(len(ns), -1, s)

    def _rows(self, lanes, chunks, flat, ns, pos, perms) -> None:
        dead = perms >= pos
        for j in range(lanes[0].order):
            carries = np.stack([k.carry[j] for k in lanes])
            head = np.take_along_axis(carries, perms, axis=1)
            head[dead] = self._identity
            staged = self._stage(flat, head, ns, chunks if j == 0 else None)
            with np.errstate(over="ignore"):
                self.op.accumulate(staged, axis=1, out=staged)
            np.put_along_axis(carries, perms, staged[:, -1], axis=1)
            for k, row in zip(lanes, carries):
                k.carry[j] = row

    def _fused(self, lanes, chunks, flat, ns, perms) -> None:
        s, q = self.s, lanes[0].order
        carries = np.stack([k.carry for k in lanes])  # (B, q, s)
        phase = np.take_along_axis(carries, perms[:, None, :], axis=2)
        staged = self._stage(flat, self._identity, ns, chunks)
        # Each lane's last real row: identity padding keeps lanes
        # constant only through the first accumulate.
        harvest = ((np.asarray(ns)[:, None] - 1 - np.arange(s)) // s + 1)[:, None, :]
        with np.errstate(over="ignore"):
            # fused_deltas takes the order axis first; one call covers
            # the whole batch.
            deltas = fused_deltas(np.ascontiguousarray(phase.transpose(1, 0, 2)))
            staged[:, 1 : q + 1] += deltas.transpose(1, 0, 2)
            for j in range(q):
                self.op.accumulate(staged, axis=1, out=staged)
                phase[:, j] = np.take_along_axis(staged, harvest, axis=1)[:, 0]
        np.put_along_axis(carries, perms[:, None, :], phase, axis=2)
        for k, carry in zip(lanes, carries):
            k.carry[...] = carry
            k.counters.fused_order_scans += 1

    def _compensated(self, lanes, chunks, flat, ns, pos, perms) -> None:
        s = self.s
        ends = [(int(p) + n) % segment_span(s) == 0 for p, n in zip(pos[:, 0], ns)]
        for j in range(lanes[0].order):
            states = np.stack([k.comp[j] for k in lanes])  # (B, 4, s)
            phase = np.take_along_axis(states, perms[:, None, :], axis=2)
            staged = self._stage(flat, phase[:, VPART], ns, chunks if j == 0 else None)
            raw = staged[:, 1:].copy()
            np.add.accumulate(staged, axis=1, out=staged)
            L = staged[:, 1:]
            err = np.empty_like(staged)
            err[:, 0] = phase[:, EPART]
            err[:, 1:] = two_sum_err(staged[:, :-1], raw, L)
            canonicalize_errors(err[:, 1:])
            np.add.accumulate(err, axis=1, out=err)
            phase[:, VPART] = staged[:, -1]
            phase[:, EPART] = err[:, -1]
            _dd_render(L, err[:, 1:], phase[:, None, HI], phase[:, None, LO], L)
            np.put_along_axis(states, perms[:, None, :], phase, axis=2)
            for i, k in enumerate(lanes):
                k.comp[j] = states[i]
                k.record_totals(k.carry[j], flat[i, s : s + ns[i]])
                if ends[i]:
                    cross_segment(k.comp[j])
