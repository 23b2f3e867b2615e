"""Batched multi-stream lane scans: B carry continuations, one dispatch.

The serving workload (:mod:`repro.serve`) is thousands of small
concurrent streams, not one giant array.  Feeding each stream through
its own :class:`~repro.kernels.LaneKernel` costs a full Python/numpy
dispatch per chunk — tens of microseconds of interpreter overhead to
scan a kilobyte.  This module coalesces ``B`` *compatible* pending
feeds (same operator, dtype, and tuple size) into **one** lane-block
accumulate per dispatch, so the per-feed overhead is paid once per
batch instead of once per stream.

The identity-padding trick
--------------------------

Stream ``i``'s chunk (length ``n_i``, first element at global stream
position ``pos_i``) is laid into row-major block ``i`` of a staged
``(B, M, s)`` buffer, where ``M = ceil(max_i n_i / s)``; the unused
tail of each block is filled with the operator's identity.  One
``op.accumulate(axis=1)`` then scans *all* ``B`` lane blocks — every
lane of every stream — in a single ufunc call, and one broadcast
``op(carry, x)`` over the staged buffer folds all ``B`` phase-order
carry rows at once.  Identity padding is what makes unequal chunk
lengths free:

* scanned values at padded positions repeat the lane's last real value
  (``op(x, e) == x``), so the **final staged row is exactly the
  per-lane running totals** — the new carries — for every touched
  lane, with no per-stream tail handling;
* a lane the stream has not reached yet (``lane >= pos_i`` while
  ``pos_i < s``) gets the identity in its carry slot, and folding the
  identity is a no-op.

Both properties need ``op(e, x) == x == op(x, e)`` to hold *exactly*,
which is why the batched path is restricted to the truly associative
fixed-width integer dtypes (wraparound included) with real-ufunc
operators: there it is **bit-identical** to feeding each stream's
:class:`LaneKernel` individually — which is what
:func:`repro.serve.feed_batch` stands in for: it stages every
session's own kernel state (``ScanSession.kernel``) through these
primitives and writes it back.  Floats are only pseudo-associative
and keep the per-stream exact prepend path (compensated float streams
batch through :class:`repro.kernels.BatchedCompensatedKernel`
instead); looped operators have no batched accumulate to win from.

:class:`BatchedLaneKernel` owns a grow-only staging buffer (batches
re-use the allocation) and two occupancy counters, ``dispatches`` and
``streams_fed``, from which the service derives its batch-occupancy
gauge (``streams_fed / dispatches``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.lane import fused_deltas, fused_supported
from repro.ops import AssociativeOp, get_op


def batchable_op_dtype(op: AssociativeOp, dtype) -> bool:
    """Whether ``(op, dtype)`` may take the batched dispatch path.

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
        exactly this key).  ``dtype`` must be a fixed-width integer and
        ``op`` a real-ufunc operator — see the module docs for why the
        batched path cannot cover floats or looped operators.

    :meth:`stage_scan` is the primitive (one inclusive continuation
    pass over B chunks, carries updated in place) and
    :meth:`stage_scan_fused` its single-pass order-``q`` sibling;
    :func:`repro.serve.feed_batch` drives them over the sessions'
    own :class:`~repro.kernels.LaneKernel` state.
    """

    def __init__(self, op, dtype, tuple_size: int = 1):
        self.op = get_op(op)
        self.dtype = self.op.check_dtype(dtype)
        if not batchable_op_dtype(self.op, self.dtype):
            raise TypeError(
                f"batched dispatch requires a fixed-width integer dtype and "
                f"a ufunc operator; got op={self.op.name!r}, "
                f"dtype={self.dtype.name}"
            )
        self.s = int(tuple_size)
        if self.s < 1:
            raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
        #: Kernel dispatches issued (each services a whole batch).
        self.dispatches = 0
        #: Stream feeds serviced across all dispatches; the occupancy
        #: gauge is ``streams_fed / dispatches``.
        self.streams_fed = 0
        self._staged: Optional[np.ndarray] = None

    def occupancy(self) -> float:
        """Mean streams serviced per dispatch (0.0 before any feed)."""
        return self.streams_fed / self.dispatches if self.dispatches else 0.0

    def _staging(self, size: int) -> np.ndarray:
        if self._staged is None or self._staged.size < size:
            self._staged = np.empty(size, dtype=self.dtype)
        return self._staged[:size]

    # -- the batched primitive -------------------------------------------

    def stage_scan(
        self,
        chunks: Sequence[np.ndarray],
        carries: np.ndarray,
        positions: Sequence[int],
    ) -> List[np.ndarray]:
        """One batched inclusive lane-scan pass continuing ``B`` streams.

        Parameters
        ----------
        chunks:
            ``B`` non-empty 1-D arrays of the kernel's dtype; chunk
            ``i``'s first element sits at global stream index
            ``positions[i]``.
        carries:
            ``(B, s)`` matrix of per-stream carry rows in **lane
            order**, updated in place.  Lane ``l`` of stream ``i`` is
            live iff ``l < positions[i]``; dead lanes must hold the
            identity (both :class:`LaneKernel` and the streaming
            session maintain exactly that invariant).
        positions:
            Global stream offsets; **not** advanced (an order-``q``
            feed runs ``q`` passes at the same offset, the caller
            advances once).

        Returns the ``B`` scanned chunks as fresh arrays, bit-identical
        to ``lane_scan`` + carry fold per stream.
        """
        B = len(chunks)
        if B == 0:
            return []
        if carries.shape != (B, self.s):
            raise ValueError(
                f"carries must have shape {(B, self.s)}, got {carries.shape}"
            )
        op, s = self.op, self.s
        ns = [int(c.size) for c in chunks]
        if min(ns) == 0:
            raise ValueError("batched chunks must be non-empty")
        rows = -(-max(ns) // s)  # ceil
        span = rows * s
        identity = op.identity(self.dtype)
        flat = self._staging(B * span)
        staged = flat.reshape(B, rows, s)
        uniform = all(n == span for n in ns)
        for i, chunk in enumerate(chunks):
            base = i * span
            flat[base : base + ns[i]] = chunk
            if not uniform and ns[i] < span:
                flat[base + ns[i] : base + span] = identity
        with np.errstate(over="ignore"):
            op.accumulate(staged, axis=1, out=staged)

        pos = np.asarray(positions, dtype=np.int64).reshape(B, 1)
        # perms[i, p] = global lane of stream i's chunk phase p.
        perms = (pos + np.arange(s)) % s
        live = perms < pos
        if live.any():
            carry_phase = np.take_along_axis(carries, perms, axis=1)
            if not live.all():
                carry_phase[~live] = identity
            op.apply_into(carry_phase[:, None, :], staged, out=staged)

        # New carries: the final staged row *is* the per-lane running
        # totals (identity padding keeps each lane constant past its
        # last real element).  Only phases the chunk touched (p < n_i)
        # are written back, so dead lanes keep their identity.
        finals = staged[:, -1, :]
        touched = np.arange(s) < np.minimum(np.asarray(ns), s).reshape(B, 1)
        flat_lanes = (perms + np.arange(B).reshape(B, 1) * s)[touched]
        carries.reshape(-1)[flat_lanes] = finals[touched]

        outs = [
            flat[i * span : i * span + ns[i]].copy() for i in range(B)
        ]
        self.dispatches += 1
        self.streams_fed += B
        return outs

    # -- the fused order-q primitive -------------------------------------

    def stage_scan_fused(
        self,
        chunks: Sequence[np.ndarray],
        carries: np.ndarray,
        positions: Sequence[int],
        order: int,
    ) -> List[np.ndarray]:
        """One batched **fused** order-``q`` continuation pass.

        The order-``q`` analogue of :meth:`stage_scan`: stages the
        ``B`` chunks once, injects each stream's binomial carry deltas
        (:func:`repro.kernels.fused_deltas`) into its first ``q``
        staged rows, runs ``q`` batched ``axis=1`` accumulates, and
        harvests every order's new running totals at each lane's last
        *real* row — identity padding keeps lanes constant only through
        the first accumulate, so for ``q >= 2`` the final staged row is
        not the totals and the harvest indexes ``(n_i - 1 - c) // s``
        per column instead.

        ``carries`` is the ``(B, q, s)`` stack of per-stream order-total
        matrices in **lane order** (row ``j-1`` = ``T_j``), updated in
        place.  Every chunk must have ``n_i >= q * s`` elements (so the
        injected delta rows are fully real and every harvest row sits
        past the delta turbulence); the caller gates on that, on
        :func:`repro.kernels.fused_supported`, and falls back to ``q``
        :meth:`stage_scan` passes otherwise.  Bit-identical to the
        pass-per-order dispatches for every fixed-width integer dtype.
        """
        B = len(chunks)
        if B == 0:
            return []
        op, s, q = self.op, self.s, int(order)
        if carries.shape != (B, q, s):
            raise ValueError(
                f"carries must have shape {(B, q, s)}, got {carries.shape}"
            )
        if not fused_supported(op, self.dtype, q, s):
            raise ValueError(
                f"(op={op.name!r}, dtype={self.dtype.name}, order={q}, "
                f"s={s}) is outside the fused gate"
            )
        ns = [int(c.size) for c in chunks]
        if min(ns) < q * s:
            raise ValueError(
                f"fused batched chunks need >= order * tuple_size = {q * s} "
                f"elements, got {min(ns)}"
            )
        rows = -(-max(ns) // s)
        span = rows * s
        identity = op.identity(self.dtype)
        flat = self._staging(B * span)
        staged = flat.reshape(B, rows, s)
        uniform = all(n == span for n in ns)
        for i, chunk in enumerate(chunks):
            base = i * span
            flat[base : base + ns[i]] = chunk
            if not uniform and ns[i] < span:
                flat[base + ns[i] : base + span] = identity

        pos = np.asarray(positions, dtype=np.int64).reshape(B, 1)
        perms = (pos + np.arange(s)) % s  # (B, s): phase p -> global lane
        # Phase-order carry stacks: fused_deltas is shape-agnostic past
        # its leading order axis, so one call covers the whole batch.
        carry_phase = np.take_along_axis(carries, perms[:, None, :], axis=2)
        with np.errstate(over="ignore"):
            deltas = fused_deltas(
                np.ascontiguousarray(carry_phase.transpose(1, 0, 2))
            )
            staged[:, :q, :] += deltas.transpose(1, 0, 2)
            # Last real row of each lane column: every n_i >= q*s, so
            # all s columns are touched and every index is >= q - 1.
            harvest = (
                (np.asarray(ns).reshape(B, 1) - 1 - np.arange(s)) // s
            )[:, None, :]
            for j in range(q):
                op.accumulate(staged, axis=1, out=staged)
                carry_phase[:, j, :] = np.take_along_axis(
                    staged, harvest, axis=1
                )[:, 0, :]
        np.put_along_axis(carries, perms[:, None, :], carry_phase, axis=2)

        outs = [
            flat[i * span : i * span + ns[i]].copy() for i in range(B)
        ]
        self.dispatches += 1
        self.streams_fed += B
        return outs
