"""Lane-aware scan kernels: the one tuned hot path every engine calls.

The paper's cost claim (Section 3) is that the tuple and higher-order
generalizations are *free* in memory traffic — ``2n`` data movement
regardless of ``s`` and ``q``.  This module is the host-side embodiment
of that claim: a single, zero-copy kernel layer that the fast host
engine (:mod:`repro.core.host`), the streaming session
(:mod:`repro.stream.session`), the sharded out-of-core driver
(:mod:`repro.stream.sharded`), and the threaded multicore kernel
(:mod:`repro.kernels.threaded`) all share, instead of each hand-rolling
a Python loop over ``s`` strided lane slices with per-lane temporaries.

Layout and the 2-D lane-block trick
-----------------------------------

A chunk whose first element sits at global index ``pos`` stores the
element of chunk position ``i`` in global tuple lane ``(pos + i) % s``.
Chunk positions ``p, p + s, p + 2s, ...`` therefore form one lane — we
call ``p`` the chunk *phase*; :func:`phase_perm` maps phases to global
lanes.  Because lanes are interleaved with stride ``s``, the first
``(n // s) * s`` elements of a contiguous chunk reshape — *as a view, no
copy* — to an ``(n // s, s)`` matrix whose columns are the lanes.  One
``ufunc.accumulate(axis=0)`` then scans **all s lanes in a single
call**, replacing the Python-level lane loop; the ``n % s`` tail
elements are finished with one vectorized fold from the last full row.

Column-order accumulate walks the matrix row by row, so for wide
strides (``s * itemsize`` beyond a cache line) each column touch is a
new cache line and the naive call becomes memory-bound.  Integer scans
therefore process *row blocks* that fit in cache (:data:`BLOCK_BYTES`),
each block's predecessor row folded into its head row before it is
accumulated — measurably faster at lane strides of
:data:`BLOCKED_MIN_STRIDE_BYTES` and wider on chunks of
:data:`BLOCKED_MIN_BYTES` and larger.  All three numbers are committed
constants sized from measured integer crossover tables, never tuned per
run; floats keep the single-call form.

The trick pays even at ``s == 1``: numpy's ``(m, 2)`` axis-0
accumulate runs several times faster in cache than the 1-D one, so a
plain integer scan runs as a tuple-2 scan plus one shifted combine,
``P[k] = A[k] op A[k - 1]`` (the two lanes together are the prefix).
:func:`_pair_scan` does this per cache-sized scratch tile
(:data:`_PAIR_TILE_BYTES`) and folds the carry into the tile's head
before the accumulate, so no separate carry pass remains.  It is
gated to the commutative built-in integer ops (add, max, min, xor,
and, or) and to chunks between :data:`_PAIR_MIN_ELEMENTS` and
:data:`_PAIR_MAX_BYTES`: shorter chunks pay more in per-tile calls
than they save, and above the ceiling a fresh-output scan is
DRAM-bound and the extra scratch pass loses.

Continuation: the head fold
---------------------------

A scan continues from a carry the way the paper hands a chunk's carry
to its first element: :func:`fold_head` folds each live lane's running
total into that lane's first element of the chunk, ``op(carry, x)``, and
the accumulate that follows is the serial left fold itself.  It is
exact for every operator and every dtype, floats and signed zeros
included, and it costs ``s`` operations where folding over the chunk
would cost ``n``.  A lane with no element yet folds nothing, not even an
identity (``0.0 + -0.0`` is ``0.0``).  Every continuation in the layer
takes this rule: the cache-blocked path across its blocks, the tile
loop across its tiles, :class:`LaneKernel` across chunks and the slab
driver's first slab.  A scan that must not write its source passes the
folded head row as :func:`lane_scan`'s ``head=``, written after its own
copy.

Higher orders: one tile loop
----------------------------

Order ``q`` repeats the scan ``q`` times.  At ``s >= 2``
:func:`fused_lane_scan` does it in one sweep over memory, as SAM
iterates only its computation stage over each chunk while the chunk is
in cache (Section 3): per cache-sized tile and per order ``j``, fold
that order's running total into the tile's head row, accumulate the
tile in place, and keep the last row as the new total.  At ``s == 1``
the ``q`` contiguous passes are prefetch-friendly and the tiles lose, so
those keep the passes.

:func:`scan_into` is the one in-memory one-shot scan and
:class:`LaneKernel` wraps the continuation, at every order, behind the
``feed(chunk)`` API: the one state machine the
streaming session, the sharded driver and the serve batcher all drive.
Both take ``threads=`` for the row kind's slab-parallel passes.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.ops import BUILTIN_OPS, AssociativeOp, get_op

#: Row-block byte budget for the cache-blocked wide-stride path.  One
#: block of ``BLOCK_BYTES // (s * itemsize)`` rows is accumulated while
#: it is cache-resident, and its last row is folded into the next
#: block's head row (:func:`fold_head`).  Sized from a measured
#: crossover table (CHANGES.md): 256 KiB, 512 KiB and 1 MiB sit on one plateau, and
#: 512 KiB lost at most 4% to the best budget at any int32/int64 shape
#: measured, against 10% for 256 KiB and 12% for 1 MiB.
BLOCK_BYTES = 512 << 10

#: Lane strides at least this wide (bytes) take the cache-blocked path.
#: Below it, the plain single-call accumulate already enjoys cache-line
#: reuse across columns and the per-block Python overhead would lose:
#: in the measured crossover table (CHANGES.md) int64 ``s == 4`` (32 B)
#: ran 0.62-0.84x blocked against plain at every size, while at 64 B
#: both int32 and int64 ran 1.5-2.0x faster blocked at 64 MiB.
BLOCKED_MIN_STRIDE_BYTES = 64

#: Chunks at least this large (bytes) take the cache-blocked path; a
#: smaller chunk stays in cache through the plain accumulate, and the
#: per-block calls are not paid back.  In the measured crossover table
#: (CHANGES.md, three batches, taken when each block's carry was folded
#: over the whole block) blocked ran 0.70-0.92x of plain at 1 MiB at 64
#: and 128 B strides, and 0.78-0.99x at 2 MiB at 64 B; from 4 MiB it
#: won every cell (1.04-2.70x) but int64 at 64 B, which tied
#: (0.84-1.06x) up to 32 MiB.  The 2 MiB wins at 128 B (0.97-1.28x) are
#: given up.
BLOCKED_MIN_BYTES = 4 << 20

#: Tile byte budget for the single-pass order-q tile loop
#: (:func:`fused_lane_scan`).  Tiles are revisited ``q`` times while
#: cache-resident, so the sweet spot is larger than :data:`BLOCK_BYTES`
#: (fewer per-tile Python dispatches amortized over ``q`` accumulates;
#: measured best around 0.5–1 MiB).
FUSED_BLOCK_BYTES = 1 << 20

#: Minimum tuple size for the order-q tile loop to engage.  At
#: ``s == 1`` the chunk is one contiguous prefetch-friendly stream, the
#: per-pass accumulate is not strided, and the measured tile loop loses
#: to pass-per-order — same engagement-heuristic role as
#: :data:`BLOCKED_MIN_STRIDE_BYTES` plays for the blocked order-1 path.
FUSED_MIN_TUPLE = 2

#: Lane-pair path (``s == 1`` integer scans, see :func:`_pair_scan`):
#: the scratch tile size, the shortest chunk that takes the path (below
#: it the per-tile calls cost more than they save) and the chunk byte
#: ceiling (above it a fresh-output scan is DRAM-bound and the extra
#: scratch pass loses to the 1-D accumulate).  Sized from a measured
#: crossover table, not tuned per run.
_PAIR_TILE_BYTES = 256 << 10
_PAIR_MIN_ELEMENTS = 8192
_PAIR_MAX_BYTES = 32 << 20

#: The integer dtypes the lane-pair path runs on; floats would regroup
#: rounding.
_PAIR_DTYPES = tuple(
    np.dtype(name) for name in ("int32", "uint32", "int64", "uint64")
)

#: The built-in operators the lane-pair path may regroup: commutative
#: and exactly associative over fixed-width integers.  Custom ops are
#: excluded even when they wrap one of these ufuncs.
_PAIR_OPS = tuple(
    BUILTIN_OPS[name] for name in ("add", "max", "min", "xor", "and", "or")
)


def phase_perm(pos: int, tuple_size: int) -> np.ndarray:
    """Global tuple lane of each chunk phase: ``perm[p] = (pos + p) % s``.

    A bijection on ``range(s)`` — indexing a lane-order row with it
    yields the phase-order row, and assigning through it inverts that.
    """
    return (int(pos) + np.arange(tuple_size)) % int(tuple_size)


def fold_head(buf, op, row, live):
    """Fold a carry row into the head of ``buf``, in place; returns ``buf``.

    ``buf[p] = op(row[p], buf[p])`` for each ``p < min(buf.size,
    len(row))`` whose ``live[p]`` is set, every such ``p`` when ``live``
    is ``None``.  ``row`` and ``live`` are in chunk-phase order, so
    ``buf[p]`` is lane ``p``'s first element: the continuation rule of
    every scan in this module (see the module notes).  A mask combines
    at most ``s`` values and copies back the live ones (``np.copyto``'s
    ``where=``), for ufunc and looped operators alike.
    """
    k = min(buf.size, len(row))
    head = buf[:k]
    if live is None:
        op.apply_into(row[:k], head, out=head)
    elif live[:k].any():
        np.copyto(head, op.apply(row[:k], head), where=live[:k])
    return buf


def _tile_scan(buf, op, s, q, carry, live, rows):
    """In-place order-``q`` lane scan of the 1-D view ``buf``, ``rows``
    lane rows per tile; returns the ``(q, s)`` carry.

    For each tile and each order ``j`` the tile's head row takes
    ``carry[j]`` (:func:`fold_head`, on the ``live`` phases of the first
    tile and on every phase after it), the tile is accumulated in place
    and its last row becomes ``carry[j]``; the ``n % s`` tail continues
    the same way.  ``buf`` may be any strided 1-D view: its full rows
    reshape to an ``(m, s)`` view all the same.
    """
    m = buf.size // s
    out2 = buf[: m * s].reshape(m, s)
    for i in range(0, m, rows):
        blk = out2[i : i + rows]
        for j in range(q):
            fold_head(blk[0], op, carry[j], live)
            op.accumulate(blk, axis=0, out=blk)
            carry[j] = blk[-1]
        live = None
    tail = buf[m * s :]
    if tail.size:
        for j in range(q):
            fold_head(tail, op, carry[j], live)
            carry[j, : tail.size] = tail
    return carry


def _pair_supported(src, op, out) -> bool:
    """Whether an ``s == 1`` scan of ``src`` takes :func:`_pair_scan`."""
    return (
        src.ndim == 1
        and out.ndim == 1
        and src.dtype in _PAIR_DTYPES
        and out.dtype == src.dtype
        and op in _PAIR_OPS
        and _PAIR_MIN_ELEMENTS <= src.size
        and src.nbytes <= _PAIR_MAX_BYTES
    )


def _pair_scan(src, op, out, head):
    """``s == 1`` scan as a tuple-2 scan plus one shifted combine.

    One scratch tile per call holds two head slots and then the tile:
    ``[c, e, x0, x1, ...]``, with ``c`` the running prefix (the identity
    ``e`` on the first tile, where ``head``, when given, stands in for
    ``x0``).  Per tile, one axis-0 accumulate over
    the ``(m, 2)`` pair view leaves ``A[j]`` — the fold of every slot of
    ``j``'s parity up to ``j`` — so ``c`` is folded into the even lane
    only, and ``out[j] = A[j + 2] op A[j + 1]`` joins the two parities
    into the prefix.  Exact only for the commutative, exactly
    associative ops of :data:`_PAIR_OPS` over integers
    (:func:`_pair_supported`).  ``out`` may alias ``src`` or be any
    strided 1-D view: each tile is copied before it is written.
    """
    ufunc = op.ufunc
    dt = src.dtype
    n = src.size
    tile = min(n + n % 2, _PAIR_TILE_BYTES // dt.itemsize)
    buf = np.empty(tile + 2, dtype=dt)
    buf[:2] = op.identity(dt)
    for i in range(0, n, tile):
        k = min(tile, n - i)
        buf[2 : k + 2] = src[i : i + k]
        if i == 0 and head is not None:
            buf[2] = head[0]
        # An odd (last) tile is accumulated with one stale slot past
        # its end, to whole pairs; that slot is never read.
        pairs = buf[: k + 2 + k % 2].reshape(-1, 2)
        ufunc.accumulate(pairs, axis=0, out=pairs, dtype=dt)
        dst = out[i : i + k]
        ufunc(buf[2 : k + 2], buf[1 : k + 1], out=dst, dtype=dt)
        buf[:1] = dst[-1:]
    return out


def lane_scan(
    src: np.ndarray,
    op: AssociativeOp,
    tuple_size: int = 1,
    *,
    out: Optional[np.ndarray] = None,
    head: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One inclusive lane scan pass of ``src`` into ``out``.

    Parameters
    ----------
    src:
        The chunk (1-D, any stride).  Never modified unless ``out``
        aliases it — ``out=src`` is the supported zero-copy in-place
        form (accumulate is a left fold, so aliasing is safe).
    out:
        Destination, same length as ``src``; allocated when ``None``.
    head:
        Optional head row in **chunk-phase order**: the values that
        stand in for the first ``len(head)`` (at most ``tuple_size``)
        elements of ``src``, written after the scan's own copy.  A
        continuation passes its carry folded into them
        (:func:`fold_head`) when it must not write ``src``; one that may
        folds ``src`` in place and passes none.

    Returns ``out``, bit-identical to the serial reference's lane scan
    of ``src`` (its head replaced) for every dtype, floats included:
    each lane is one sequential left fold.

    ``s == 1`` integer chunks inside the :func:`_pair_supported` gate
    take the lane-pair path (:func:`_pair_scan`): one scratch tile is
    allocated per call (never shared, so threaded slabs may call this
    concurrently).  Every other chunk is copied into ``out`` when
    ``out`` is distinct (numpy's out-of-place axis-0 accumulate takes a
    slower buffered loop, so one streaming copy wins) and scanned there
    in place; only a 1-D ``s == 1`` scan with no head accumulates
    straight into ``out``.
    """
    src = np.asarray(src)
    s = int(tuple_size)
    if out is None:
        out = np.empty_like(src)
    n = src.size
    if n == 0:
        return out
    if s == 1 and _pair_supported(src, op, out):
        return _pair_scan(src, op, out, head)
    if out is not src and (s > 1 or head is not None):
        out[...] = src
        src = out
    if head is not None:
        out[: len(head)] = head
    if s == 1:
        return op.accumulate(src, out=out)
    rows = max(1, n // s)
    stride_bytes = s * out.dtype.itemsize
    # Cache-sized row blocks on wide strides, measured on integers.
    if (out.dtype.kind in "iu" and stride_bytes >= BLOCKED_MIN_STRIDE_BYTES
            and out.nbytes >= BLOCKED_MIN_BYTES):
        rows = BLOCK_BYTES // stride_bytes
    # No phase is live, so the carry row is written and never read.
    _tile_scan(out, op, s, 1, np.empty((1, s), out.dtype), np.zeros(s, bool), rows)
    return out


def phase_totals(scanned: np.ndarray, tuple_size: int) -> np.ndarray:
    """Last scanned element of each chunk phase, in phase order.

    Returns an array of length ``min(n, tuple_size)`` — exactly the
    phases that have at least one element; the caller maps phases to
    lanes with :func:`phase_perm`.
    """
    scanned = np.asarray(scanned)
    n = scanned.size
    s = int(tuple_size)
    if s == 1:
        return scanned[n - 1 : n].copy()
    m, r = divmod(n, s)
    if m == 0:
        return scanned.copy()
    totals = scanned[n - r - s : n - r].copy()
    if r:
        totals[:r] = scanned[n - r :]
    return totals


def lane_totals(
    scanned: np.ndarray, op: AssociativeOp, tuple_size: int, pos: int = 0
) -> np.ndarray:
    """Per-lane totals in **lane order**; identity for absent lanes."""
    scanned = np.asarray(scanned)
    s = int(tuple_size)
    totals = np.full(s, op.identity(scanned.dtype), dtype=scanned.dtype)
    t = phase_totals(scanned, s)
    if t.size:
        totals[(int(pos) + np.arange(t.size)) % s] = t
    return totals


def fold_lanes(
    buf: np.ndarray,
    op: AssociativeOp,
    carry: np.ndarray,
    pos: int = 0,
    tuple_size: int = 1,
) -> np.ndarray:
    """In-place ``op(carry[lane], x)`` over a whole chunk ("Add Resulting
    Carry i to all Values of Chunk i", Figure 1): the simulator's
    correction step and the slab driver's fold, never a continuation's
    (those fold the head row, :func:`fold_head`).

    ``carry`` is in lane order; ``pos`` is the global index of
    ``buf[0]``.  The fold is two vectorized calls — a broadcast over the
    ``(m, s)`` body view and one over the tail — instead of ``s``
    strided passes.
    """
    buf = np.asarray(buf)
    s = int(tuple_size)
    row = carry[phase_perm(pos, s)]  # fancy indexing: a contiguous copy
    m = buf.size // s
    body = buf[: m * s].reshape(m, s)
    op.apply_into(row, body, out=body)
    tail = buf[m * s :]
    op.apply_into(row[: tail.size], tail, out=tail)
    return buf


def exclusive_shift(
    incl: np.ndarray, heads: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Lane-shift an inclusive chunk right by one stride.

    ``out[i] = incl[i - s]`` for ``i >= s``; the first ``s`` positions
    take ``heads`` — the pre-chunk running totals in **chunk-phase
    order** (identity at the start of a stream).  One whole-array slice
    copy instead of a per-lane shift loop.  ``out`` must not alias
    ``incl``.
    """
    incl = np.asarray(incl)
    n = incl.size
    s = len(heads)
    if out is None:
        out = np.empty_like(incl)
    k = min(s, n)
    out[:k] = heads[:k]
    if n > s:
        out[s:] = incl[:-s]
    return out


def fused_supported(op, dtype, order, tuple_size=None) -> bool:
    """Whether integer ``add``'s binomial carry algebra applies.

    The exactness gate of the fused ``(q, s)`` kind: the binomial carry
    identity (:func:`fused_combine`, :func:`fused_deltas`) regroups the
    reduction, which is exact only under truly associative arithmetic —
    modular ADD over fixed-width integers (wraparound included, signed
    or unsigned).  The sharded driver splices order-``q`` shards only
    inside it, the batched kernel stages fused rounds inside it, and the
    planner labels those workloads ``"fused"``.  ``tuple_size`` (when
    given) additionally applies the :data:`FUSED_MIN_TUPLE` engagement
    heuristic.  The serial kernels do not read it: their order-``q``
    tile loop (:func:`fused_lane_scan`) is exact for every operator.
    """
    op = get_op(op)
    if int(order) < 2 or op.ufunc is not np.add:
        return False
    if np.dtype(dtype).kind not in "iu":
        return False
    return tuple_size is None or int(tuple_size) >= FUSED_MIN_TUPLE


def _binom_wrap(n: int, k: int, dtype: np.dtype):
    """``C(n, k) mod 2**w`` as a ``dtype`` scalar (``n >= k >= 0``)."""
    dtype = np.dtype(dtype)
    bits = dtype.itemsize * 8
    val = math.comb(n, k) & ((1 << bits) - 1)
    unsigned = np.dtype(f"u{dtype.itemsize}")
    return np.array(val, dtype=unsigned).view(dtype)[()]


def fused_deltas(carry: np.ndarray) -> np.ndarray:
    """Carry-injection rows for the batched kernel's fused staging.

    Given the running order totals ``carry[j-1] = T_j`` (shape
    ``(q, s)``), returns ``q`` rows ``delta_p = sum_{i>p} (-1)^p *
    C(i-1, p) * T_i`` — the coefficients of ``sum_i T_i (1-z)^(i-1)``.
    Adding ``delta_p`` to row ``p`` of a tile before its ``q``
    accumulates makes the order-``q`` output the exact continuation at
    *every* row, and makes the last row after the ``j``-th accumulate
    the exact running order-``j`` total once the tile has at least
    ``q`` rows — no weight fold and no combine in the hot loop.
    """
    q = carry.shape[0]
    dtype = carry.dtype
    deltas = np.zeros_like(carry)
    with np.errstate(over="ignore"):
        for p in range(q):
            for i in range(p + 1, q + 1):
                term = carry[i - 1] * _binom_wrap(i - 1, p, dtype)
                if p % 2:
                    deltas[p] -= term
                else:
                    deltas[p] += term
    return deltas


def fused_combine(
    prev: np.ndarray, local: np.ndarray, counts
) -> np.ndarray:
    """Splice two adjacent regions' order-total matrices (integer ADD).

    ``prev[j-1]`` holds the running order-``j`` totals entering a
    region; ``local[j-1]`` the region's own totals scanned from zero
    carry; ``counts`` the per-lane element count in the region (scalar
    or ``(s,)``).  Returns the absolute totals after the region::

        new_j = local_j + sum_{k=0..j-1} C(counts - 1 + k, k) * prev_{j-k}

    Lanes with ``counts == 0`` pass ``prev`` through unchanged.  This
    is the host-side splice used across threaded slabs and shard
    aggregates; all coefficients are exact mod ``2**w``.
    """
    q, s = prev.shape
    dtype = prev.dtype
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (s,))
    new = local.copy()
    with np.errstate(over="ignore"):
        for cnt in np.unique(counts):
            mask = counts == cnt
            if cnt == 0:
                new[:, mask] = prev[:, mask]
                continue
            for j in range(1, q + 1):
                for k in range(j):
                    c = _binom_wrap(int(cnt) - 1 + k, k, dtype)
                    new[j - 1, mask] += c * prev[j - k - 1, mask]
    return new


def _fused_tiles(op, order: int, tuple_size: int, float_mode) -> bool:
    """Whether an order-``q`` scan runs :func:`fused_lane_scan`: ``q >= 2``
    and ``s >= FUSED_MIN_TUPLE`` under a real-ufunc operator, for every
    dtype unless the float mode is ``"compensated"``.  The one gate
    :func:`scan_into` and :class:`LaneKernel` take the loop on and
    :func:`repro.kernels.threaded.runs_slabs` declines."""
    return (
        int(order) >= 2
        and int(tuple_size) >= FUSED_MIN_TUPLE
        and op.ufunc is not None
        and float_mode != "compensated"
    )


def fused_lane_scan(
    buf: np.ndarray, op, tuple_size: int, order: int, carry: Optional[np.ndarray]
) -> np.ndarray:
    """Single-pass in-place order-``q`` lane scan of ``buf``; returns the
    carry.

    ``buf`` (1-D) is read and written once: each tile of full lane rows
    (:data:`FUSED_BLOCK_BYTES`) is scanned to all ``q`` orders while
    cache-resident.  For each order ``j`` the tile's head row first takes
    that order's running totals, ``op(carry[j - 1], row0)``, then the
    tile is accumulated in place and its last row becomes the new
    ``carry[j - 1]``.  The ``n % s`` tail continues from the totals the
    same way.  That is each lane's serial left fold with no regrouping,
    so the result is bit-identical to ``q`` separate passes for every
    operator and every dtype, floats included.

    ``carry`` is the ``(q, s)`` running-total matrix in **chunk-phase
    order** (row ``j - 1`` the order-``j`` totals), advanced in place,
    every phase live.  ``None`` starts a stream: the first tile folds no
    carry (``+0.0`` is not an exact identity for float ``add``), and a
    new matrix, identity on phases with no element, is returned.
    :class:`LaneKernel` runs the same loop with its live-lane mask.
    """
    op = get_op(op)
    s = int(tuple_size)
    live = None
    if carry is None:
        carry = np.full((int(order), s), op.identity(buf.dtype), dtype=buf.dtype)
        live = np.zeros(s, dtype=bool)
    return _tile_scan(buf, op, s, int(order), carry, live, _fused_rows(s, buf.dtype))


def _fused_rows(s: int, dtype) -> int:
    """Lane rows per tile of the order-``q`` tile loop."""
    return max(1, FUSED_BLOCK_BYTES // (s * np.dtype(dtype).itemsize))


def scan_into(
    src: np.ndarray,
    out: np.ndarray,
    op,
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    *,
    threads=None,
    cutover_bytes: Optional[int] = None,
    float_mode: Optional[str] = None,
) -> np.ndarray:
    """Order-``q`` lane scan of ``src`` using ``out`` as the only buffer.

    The one in-memory one-shot scan.  At ``q >= 2`` and ``s >= 2`` under
    a ufunc operator (not compensated) with ``out`` 1-D, the
    scan is single-pass over memory: one streaming copy into ``out``,
    then :func:`fused_lane_scan` visits each cache-sized tile once for
    all ``q`` orders.  Otherwise pass 1 scans ``src`` into ``out`` and
    passes 2..q re-scan ``out`` in place (each pass is a left fold).
    The exclusive shift, on the final pass only, allocates the returned
    array.  ``threads`` (``None`` serial) makes each pass slab-parallel
    above ``cutover_bytes`` where :func:`repro.kernels.threaded.runs_slabs`
    allows it (the row kind); other configurations scan serially, with
    the same bytes.  ``float_mode`` picks the float passes: ``"exact"``
    (default) serial, ``"compensated"`` error-free-carry (float ``add``
    only, else ``TypeError``), ``"regrouped"`` the slab splice.
    Integers ignore it: their regrouping is exact.
    """
    from repro.kernels.compensated import (
        fresh_state,
        lane_scan_compensated,
        resolve_float_mode,
    )
    from repro.kernels.threaded import check_threads, runs_slabs, slab_scan

    op = get_op(op)
    q = int(order)
    s = int(tuple_size)
    threads = check_threads(threads)
    mode = resolve_float_mode(out.dtype, float_mode)
    if threads is not None and not runs_slabs(op, out.dtype, q, s, mode):
        threads = None
    if _fused_tiles(op, q, s, mode) and out.ndim == 1:
        if out is not src:
            out[...] = src
        fused_lane_scan(out, op, s, q, None)
    else:
        current = src
        for _ in range(q):
            if mode == "compensated":
                lane_scan_compensated(
                    current, op, s, fresh_state(out.dtype, s), 0, out=out
                )
            elif threads is None or not slab_scan(
                current, out, op, s, threads=threads, cutover_bytes=cutover_bytes
            ):
                lane_scan(current, op, s, out=out)
            current = out
    if inclusive:
        return out
    heads = np.full(s, op.identity(out.dtype), dtype=out.dtype)
    return exclusive_shift(out, heads)


class LaneKernel:
    """Carry-continuation scan kernel: ``feed(chunk)`` one chunk at a time.

    The one carry-continuation state machine every stream driver holds:
    :class:`repro.stream.ScanSession`, the sharded driver's shard
    kernels and the serve batcher all advance an instance of it.  Its
    state is the running order-total matrix ``carry`` (shape ``(q, s)``,
    lane order, row ``j - 1`` the order-``j`` totals; identity for lanes
    with no element yet), the global index ``pos`` of the next element,
    and ``active``, the lanes whose carry is live.

    Each order's pass continues in one of three modes:

    * head fold (the default, every dtype): each live lane's carry is
      folded into its first element of the chunk (:func:`fold_head`)
      and the chunk is accumulated — the serial left fold, so
      bit-identical to the one-shot scan for every operator and dtype,
      float rounding and signed zeros included.  ``float_mode`` picks
      ``"exact"`` or ``"regrouped"`` floats; both continue this way, and
      they differ only on the slab driver.
    * compensated (``float_mode="compensated"``, float ``add`` only,
      :mod:`repro.kernels.compensated`): an error-free ``(q, 4, s)``
      state ``comp`` makes results bit-identical for any chunk split
      *and* any thread/shard count, and more accurate than the naive
      fold.
    * delegated (``engine=``, integers only): ``engine.run`` scans the
      head-folded chunk, a copy unless the kernel may write the chunk.
      Float dtypes ignore the engine.

    ``threads`` (``None`` serial) runs the head-fold passes on the slab
    driver (:mod:`repro.kernels.threaded`) above ``cutover_bytes``, and
    ``counters.threaded_scans`` counts the passes it ran.  Configurations
    :func:`repro.kernels.threaded.runs_slabs` declines — order ``q >= 2``
    at ``s >= 2``, the compensated kind, exact floats — keep ``threads``
    as ``None`` and scan serially, so results do not change.

    At ``order >= 2`` and ``s >= 2`` under a ufunc operator (no engine,
    not compensated) every chunk takes the single-pass tile loop
    (:func:`fused_lane_scan`, with the kernel's live-lane mask on its
    first tile) instead of ``q`` passes, and
    ``counters.fused_order_scans`` counts them.

    ``start`` is the global index of the first element that will be
    fed.  ``prime`` preloads an absolute carry (lane order, the
    ``carry`` shape) so the kernel's output is final as written.  Lanes
    with no element before ``start`` stay unseen, exactly like a stream
    that has consumed ``start`` elements: their primed carry is never
    folded, whatever the tuple size, order, dtype or path.  Unprimed,
    the kernel scans from a zero carry wherever it starts (the sharded
    local scan).
    """

    def __init__(
        self, op, dtype, tuple_size=1, start=0, prime=None, float_mode=None,
        order=1, engine=None, threads=None, cutover_bytes=None,
    ):
        from repro.kernels.compensated import (
            check_compensated,
            fresh_state,
            resolve_float_mode,
        )
        from repro.kernels.threaded import check_threads, runs_slabs

        self.op = get_op(op)
        self.dtype = self.op.check_dtype(dtype)
        self.s = int(tuple_size)
        self.order = int(order)
        self.pos = int(start)
        self.float_mode = resolve_float_mode(self.dtype, float_mode)
        self.engine = engine if self.dtype.kind in "iu" else None
        self.threads = check_threads(threads)
        if self.threads is not None and not runs_slabs(
            self.op, self.dtype, self.order, self.s, self.float_mode
        ):
            self.threads = None
        self.cutover_bytes = cutover_bytes
        #: Pass counts, under the :class:`repro.stream.StreamCounters`
        #: field names so an owner may hand in its own counters.
        self.counters = SimpleNamespace(
            threaded_scans=0, fused_order_scans=0, delegated_stage_scans=0
        )
        self.carry = np.full(
            (self.order, self.s), self.op.identity(self.dtype), dtype=self.dtype
        )
        self.comp = None
        if self.float_mode == "compensated":
            check_compensated(self.op, self.dtype)
            if prime is not None or self.pos != 0:
                raise ValueError(
                    "compensated LaneKernel streams start at 0, unprimed (an "
                    "absolute carry has no error decomposition; continue at "
                    "an offset with load_state and its error state)"
                )
            self.comp = np.stack([fresh_state(self.dtype, self.s)] * self.order)
        self._fused = self.engine is None and _fused_tiles(
            self.op, self.order, self.s, self.float_mode
        )
        self.active = np.zeros(self.s, dtype=bool)
        self._seen_all = False
        if prime is not None:
            self.load_state(self.pos, prime)

    def load_state(self, pos: int, carry, comp=None) -> None:
        """Continue at global index ``pos`` from an absolute ``carry``
        (and, in compensated mode, its ``(q, 4, s)`` error state): the
        state of a stream that has consumed ``pos`` elements, so exactly
        the lanes below ``pos`` are live, and only their carries are
        ever folded."""
        self.pos = int(pos)
        self.carry[...] = carry
        if comp is not None:
            self.comp[...] = comp
        self.active = np.arange(self.s) < self.pos
        self._seen_all = bool(self.active.all())

    def advance(self, n: int) -> None:
        """Move past ``n`` scanned elements: the position and seen-lane
        bookkeeping after a feed (batched dispatch calls it too)."""
        if not self._seen_all:
            self.active[(self.pos + np.arange(min(n, self.s))) % self.s] = True
            self._seen_all = bool(self.active.all())
        self.pos += n

    def heads(self) -> np.ndarray:
        """Exclusive-scan heads for the next chunk, in chunk-phase
        order: each lane's running order-``q`` total, or the identity
        for a lane not yet live."""
        perm = phase_perm(self.pos, self.s)
        heads = self.carry[-1][perm]
        heads[~self.active[perm]] = self.op.identity(self.dtype)
        return heads

    def record_totals(self, row: np.ndarray, scanned: np.ndarray) -> None:
        """Write a scanned chunk's last value per phase into ``row`` (a
        lane-order carry row) at the current position."""
        if self.s == 1:
            row[0] = scanned[-1]
            return
        t = phase_totals(scanned, self.s)
        row[(self.pos + np.arange(t.size)) % self.s] = t

    def _scan(self, src, out, head):
        """Lane scan of ``src`` into ``out`` (allocated when ``None``)
        with an optional head row (:func:`lane_scan`): on the slab
        driver when ``threads`` is set and it does not decline."""
        if self.threads is not None:
            from repro.kernels.threaded import slab_scan

            if out is None:
                out = np.empty_like(src)
            if slab_scan(
                src, out, self.op, self.s, head,
                threads=self.threads, cutover_bytes=self.cutover_bytes,
            ):
                self.counters.threaded_scans += 1
                return out
        return lane_scan(src, self.op, self.s, out=out, head=head)

    def _delegate(self, src):
        """Local scan of ``src`` on the delegated engine (fresh output)."""
        result = self.engine.run(
            src, order=1, tuple_size=self.s, op=self.op, inclusive=True
        )
        local = np.asarray(result.values)
        if not local.flags.writeable:
            local = local.copy()
        self.counters.delegated_stage_scans += 1
        return local

    def _scan_row(self, src, j, own, perm, live):
        """One order's continuation pass; advances ``carry[j]``.  With
        ``own`` the pass may write into ``src`` and the carry folds into
        its head in place; otherwise into a copy of the head row, which
        the scan writes after its own copy of ``src`` (the delegated
        engine scans a folded copy of the chunk)."""
        row = self.carry[j]
        if self.comp is not None:
            from repro.kernels.compensated import lane_scan_compensated

            out = lane_scan_compensated(src, self.op, self.s, self.comp[j], self.pos)
        else:
            fold = live is None or live[: src.size].any()
            if fold and not own and self.engine is not None:
                src, own = src.copy(), True
            head = None
            if fold and own:
                fold_head(src, self.op, row[perm], live)
            elif fold:
                head = fold_head(src[: self.s].copy(), self.op, row[perm], live)
            if self.engine is not None:
                out = self._delegate(src)
            else:
                out = self._scan(src, src if own else None, head)
        self.record_totals(row, out)
        return out

    def feed(self, chunk: np.ndarray, inplace: bool = True) -> np.ndarray:
        """Scan the next chunk as a continuation; returns the scanned
        values.

        In the head-fold and tile-loop paths ``inplace=True`` scans in
        the chunk's own buffer and returns it, while ``inplace=False``
        leaves the chunk untouched: the first pass scans it out of
        place.  The other modes always return a fresh array.
        """
        chunk = np.asarray(chunk)
        n = chunk.size
        if n == 0:
            return chunk
        # One lane is phase 0 at every position: no permutation to build.
        perm = slice(None) if self.s == 1 else phase_perm(self.pos, self.s)
        live = None if self._seen_all else self.active[perm]
        if self._fused and chunk.ndim == 1:
            out = chunk if inplace else chunk.copy()
            self.carry[:, perm] = _tile_scan(
                out, self.op, self.s, self.order, self.carry[:, perm], live,
                _fused_rows(self.s, self.dtype),
            )
            self.counters.fused_order_scans += 1
        else:
            out = chunk
            for j in range(self.order):
                out = self._scan_row(out, j, inplace or j > 0, perm, live)
        self.advance(n)
        return out
