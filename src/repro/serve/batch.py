"""Batched session feeds: B ``ScanSession.feed`` calls, one dispatch.

:func:`feed_batch` is the server's throughput core.  Given ``B``
*distinct*, batch-compatible sessions (same operator, dtype, order and
tuple size — see :func:`batch_key`) and one pending chunk each, it
produces outputs **bit-identical** to ``[s.feed(c) for s, c in ...]``
in one :meth:`repro.kernels.BatchedLaneKernel.scan` dispatch instead of
``B`` feeds.  For the serving workload — thousands of small concurrent
streams — this converts per-feed Python dispatch overhead into one
amortized batch dispatch.

The kernel runs every scan pass over each session's own carry state
machine (``session.kernel``, a :class:`repro.kernels.LaneKernel`);
:func:`feed_batch` keeps the rest of ``feed``: validation, empty chunks
(scan no-ops that still count as feed calls), the exclusive lane-shift
from the kernel's pre-chunk ``heads()``, one ``advance`` for the
position and seen-lane bookkeeping, and the counters.

Batch eligibility is the same rule as every other fast path in the
repo: fixed-width integers under a real-ufunc operator (exact
regrouping), or float ``add`` sessions opened with
``float_mode="compensated"`` (their error-free carry is defined on a
fixed segment grid, so the batched regrouping is deterministic), on
the plain host path (no delegated engine, no pinned slab thread
count).  A compensated chunk that would cross a segment boundary
inside it is fed alone: the crossing advances the per-stream
double-double chain mid-chunk, a sequential step.  Exact-mode floats
have no batch key (identity padding is not exact for them); the caller
simply feeds those sessions individually, through the head fold.

Sessions the planner opened with ``threads="auto"`` batch too: below
the threaded kernel's parallel cutover
(:data:`repro.kernels.threaded.PARALLEL_CUTOVER_BYTES`) their chunks
would take the serial kernel anyway, and at or above it
:func:`feeds_solo` sends the feed to its own slab-parallel ``feed`` —
the same per-chunk rule the threaded kernel applies — when the
session's carry kind has a slab path at all
(:func:`repro.kernels.threaded.runs_slabs`: the row kind only).
Either layout is bit-identical (integer regrouping is exact;
compensated carries are layout-invariant).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.kernels import BatchedLaneKernel, batchable_op_dtype, segment_span
from repro.stream.errors import SessionStateError
from repro.stream.session import ScanSession


def batch_key(session: ScanSession):
    """The session's batch-compatibility key, or ``None`` if the
    session cannot take the batched path (engine-delegated, pinned to
    a thread count, a float dtype outside compensated mode, an unknown
    dtype, or a looped operator).

    Two sessions may share a dispatch iff their keys are equal and not
    ``None``.  ``inclusive`` is deliberately *not* part of the key: the
    exclusive lane-shift is a per-session epilogue, so inclusive and
    exclusive sessions batch together.

    The key is cached on the session once it is known — everything it
    reads is frozen after the dtype locks — because the server asks for
    it on every feed and ``dtype.name`` alone costs more than a small
    chunk's scan.  A ``None`` from a still-unlocked dtype is *not*
    cached (the key materialises on the first feed).
    """
    cached = getattr(session, "_batch_key_cache", False)
    if cached is not False:
        return cached
    if session.engine is not None or session.threads not in (None, "auto"):
        key = None
    elif session.dtype is None:
        return None
    elif session.float_mode != "compensated" and not batchable_op_dtype(
        session.op, session.dtype
    ):
        key = None
    else:
        key = (
            session.op.name,
            session.dtype.name,
            session.order,
            session.tuple_size,
        )
    session._batch_key_cache = key
    return key


def feeds_solo(session: ScanSession, nbytes: int) -> bool:
    """Whether a feed of ``nbytes`` from a batchable session should be
    dispatched alone: a ``threads="auto"`` row-kind session's chunk at
    or above the parallel cutover, where the slab-parallel kernel wins.
    Fused and compensated sessions have no slab path and always batch."""
    if session.threads != "auto" or nbytes < kernels.threaded.PARALLEL_CUTOVER_BYTES:
        return False
    return kernels.threaded.runs_slabs(
        session.op, session.dtype, session.order, session.tuple_size,
        session.float_mode,
    )


def feed_batch(
    sessions: Sequence[ScanSession],
    chunks: Sequence[np.ndarray],
    kernel: Optional[BatchedLaneKernel] = None,
) -> List[np.ndarray]:
    """Feed one chunk to each of ``B`` batch-compatible sessions.

    Equivalent to ``[s.feed(c) for s, c in zip(sessions, chunks)]`` bit
    for bit — outputs, carry state, offsets — in one batched kernel
    dispatch.  ``kernel`` lets the caller reuse a
    :class:`BatchedLaneKernel` (and its staging buffer / occupancy
    counters) across batches; it must match the sessions' batch key.

    Raises ``ValueError`` when the sessions do not share a non-``None``
    batch key or a session appears twice (feeds to the same session
    must stay ordered — dispatch them in separate batches).
    """
    if len(sessions) != len(chunks):
        raise ValueError(f"{len(sessions)} sessions but {len(chunks)} chunks")
    if not sessions:
        return []
    if len(set(map(id, sessions))) != len(sessions):
        raise ValueError("a session may appear at most once per batch")
    keys = {batch_key(s) for s in sessions}
    if len(keys) != 1 or None in keys:
        raise ValueError(
            "sessions are not batch-compatible (need one shared "
            "op/dtype/order/tuple_size key on the plain host path)"
        )
    first = sessions[0]
    op, s, dtype = first.op, first.tuple_size, first.dtype
    if kernel is None:
        kernel = BatchedLaneKernel(op, dtype, s)
    elif kernel.op.name != op.name or kernel.dtype != dtype or kernel.s != s:
        raise ValueError("kernel does not match the sessions' batch key")

    span = segment_span(s)
    outs: List[Optional[np.ndarray]] = [None] * len(sessions)
    live: List[int] = []
    arrays: List[np.ndarray] = []
    for i, (session, chunk) in enumerate(zip(sessions, chunks)):
        array = np.asarray(chunk)
        if array.ndim != 1:
            raise ValueError(f"expected a 1-D chunk, got shape {array.shape}")
        if array.dtype != dtype:
            # The session's locked dtype already passed check_dtype;
            # only a mismatching chunk needs the full resolution (for
            # the error message and widening rules).
            resolved = op.check_dtype(array.dtype)
            if resolved != dtype:
                raise SessionStateError(
                    f"session is locked to dtype {dtype.name}, "
                    f"got a {resolved.name} chunk"
                )
            array = array.astype(dtype, copy=False)
        if array.size == 0:
            session.counters.chunks += 1
            session.counters.bytes_in += array.nbytes
            outs[i] = array.copy()
            continue
        if kernel.compensated:
            start = session.offset
            if start // span != (start + array.size - 1) // span:
                # Crossing a segment boundary inside the chunk advances
                # the per-stream double-double chain mid-chunk, a
                # sequential step the staged scan cannot take: feed it
                # alone (the session takes the same compensated kernel,
                # bit-identical).
                outs[i] = session.feed(array)
                continue
        live.append(i)
        arrays.append(array)
    if not live:
        return outs

    t0 = time.perf_counter()
    lanes = [sessions[i].kernel for i in live]
    # The exclusive epilogue's heads, taken before the carries move.
    heads = [
        None if sessions[i].inclusive else k.heads()
        for i, k in zip(live, lanes)
    ]
    current = kernel.scan(lanes, arrays)
    for j, k in enumerate(lanes):
        if heads[j] is not None:
            current[j] = kernels.exclusive_shift(current[j], heads[j])
        k.advance(arrays[j].size)
    share = (time.perf_counter() - t0) / len(live)
    for j, i in enumerate(live):
        counters = sessions[i].counters
        counters.chunks += 1
        counters.elements += arrays[j].size
        counters.bytes_in += arrays[j].nbytes
        counters.seconds_scan += share
        counters.batched_feeds += 1
        outs[i] = current[j]
    return outs
