"""Threaded in-memory lane kernels: multicore intra-chunk scans.

One slab driver, :func:`slab_scan`, runs every parallel in-memory scan.
It cuts a chunk into ``P`` contiguous slabs of whole units (lane rows;
segments for the compensated kind), scans every slab locally on a
persistent :class:`~concurrent.futures.ThreadPoolExecutor` worker,
splices the ``P`` slab aggregates on the calling thread
(:func:`repro.kernels.splice`), and folds each slab's incoming carry in
parallel — the scan→splice→fold decomposition of LightScan and of
Zhang, Wang & Ross's SIMD prefix sums.  What differs between the plain
row, the fused ``(q, s)`` matrix and the compensated chain is the carry
kind (:mod:`repro.kernels.splice`): :func:`threaded_lane_scan`,
:func:`threaded_fused_lane_scan` and the compensated kernel's whole
segments are each one kind plus one driver call, which
:func:`repro.kernels.scan_into` and :class:`repro.kernels.LaneKernel`
make when given ``threads=``.

Threads — not processes — give real parallelism here because numpy's
ufunc inner loops release the GIL.  Looped (non-ufunc) operators hold
it, so they always take the serial kernel.

**Determinism and exactness.**  The slab partition is a pure function
of ``(n, unit, threads)`` — never of pool scheduling — so results are
identical under oversubscription.  Integer regrouping is exact, so
integer results are **bit-identical** to the serial kernel.  Floats
keep bit-exactness by default: under ``float_mode="exact"`` a threaded
scan runs the serial passes (a slab chain would be sequential in the
carry).  ``"compensated"`` runs the error-free-carry segments of
:mod:`repro.kernels.compensated`, bit-identical for *any* thread count;
``"regrouped"`` opts into the regrouped fold (deterministic for a fixed
thread count only).

**Cutover.**  Chunks below :data:`PARALLEL_CUTOVER_BYTES` run on the
serial kernel, whether the thread count was pinned or ``"auto"``; the
planner's cutover gate and the serve batcher's solo rule read the same
constant.  Tests and the fuzzer force threading with
``cutover_bytes=0``.
"""

from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.kernels.lane import fused_lane_scan, lane_scan, scan_into
from repro.kernels.splice import FusedCarry, RowCarry, splice
from repro.ops import ADD, AssociativeOp, get_op

#: The parallel cutover (bytes): chunks smaller than this are scanned
#: serially.  It is the measured row-kind crossover of two slab threads
#: against one (CHANGES.md): forced ``threaded:2`` lost to serial at
#: 32 MiB on int32 and int64 and at 64 MiB on int64, and won from
#: 128 MiB on both.  Read at call time by :func:`slab_scan`, the
#: planner's cutover gate and :func:`repro.serve.batch.feeds_solo`.
PARALLEL_CUTOVER_BYTES = 128 << 20

#: Auto thread resolution gives each worker at least this many bytes of
#: slab — below it, another thread adds dispatch cost, not bandwidth.
MIN_SLAB_BYTES = 1 << 20

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def get_pool(threads: int) -> ThreadPoolExecutor:
    """The module's persistent worker pool, grown to ``>= threads``.

    One pool is shared by every threaded kernel in the process (warm
    threads, no per-scan spawn cost).  Growing recreates the executor;
    the old one drains its queue in the background.  The pool size
    never influences results — the slab partition is fixed by the
    *requested* thread count, and queued slabs just wait for a worker.
    """
    global _POOL, _POOL_WORKERS
    threads = max(1, int(threads))
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < threads:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-lane"
            )
            _POOL_WORKERS = threads
        return _POOL


def check_threads(threads):
    """Validate a ``threads=`` value once, for every dtype and float mode.

    ``None`` stays ``None`` (serial wherever a caller gives it that
    meaning); ``0`` and ``"auto"`` return ``"auto"``; a whole number
    ``>= 1`` returns that ``int``.  Anything else raises ``ValueError``.
    """
    if threads is None or (isinstance(threads, str) and threads == "auto"):
        return threads
    try:
        count = operator.index(threads)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(
            f"threads must be None, 0, 'auto' or a whole number >= 1, "
            f"got {threads!r}"
        )
    return count or "auto"


def resolve_threads(threads=None, n_bytes: Optional[int] = None) -> int:
    """Resolve a ``threads=`` parameter to a concrete worker count.

    ``None``/``0``/``"auto"`` means min(cpu count, slab-size heuristic):
    enough workers that each still gets :data:`MIN_SLAB_BYTES` of slab,
    never more than the machine has cores.  Explicit counts are taken
    as given (useful for tests and for the sharded driver's combined
    oversubscription budget).
    """
    threads = check_threads(threads)
    if threads in (None, "auto"):
        cpus = os.cpu_count() or 1
        if n_bytes is None:
            return cpus
        return max(1, min(cpus, int(n_bytes) // MIN_SLAB_BYTES))
    return threads


def _slab_bounds(m: int, parts: int):
    """Split ``m`` full rows into ``parts`` balanced row ranges.

    Pure function of its arguments — this is what makes threaded
    results deterministic regardless of pool scheduling.
    """
    p = max(1, min(int(parts), m))
    base, extra = divmod(m, p)
    bounds = []
    lo = 0
    for i in range(p):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _gather(pool, calls):
    """Run ``calls`` (``(fn, *args)`` tuples) on ``pool``; their results
    in order."""
    return [f.result() for f in [pool.submit(*call) for call in calls]]


def slab_scan(kind, buf, n, carry, seen=None, *, threads=None, cutover_bytes=None):
    """The one slab driver: scan → splice → fold over row-slabs of a chunk.

    ``kind`` is a carry kind of :mod:`repro.kernels.splice` and ``buf``
    its in-memory buffers, holding ``n`` elements.  ``carry`` is the
    carry entering the chunk (in chunk-phase lane order) and ``seen``
    the lanes it covers (all of them by default).  Below the cutover,
    with one thread or fewer than two whole units (rows; segments for
    the compensated kind) the driver declines and returns ``None``:
    the caller scans serially.  Otherwise every slab of whole units
    runs the kind's local step on the pool, :func:`splice` chains the
    slab aggregates on the calling thread, every slab folds its
    incoming carry on the pool, and the kind continues over the
    partial row past the last slab.  Returns the carry after the
    chunk.
    """
    n_bytes = n * kind.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = PARALLEL_CUTOVER_BYTES
    units = n // kind.unit
    if threads <= 1 or units < 2 or n_bytes < cutover_bytes:
        return None
    bounds = [
        (lo * kind.unit, hi * kind.unit) for lo, hi in _slab_bounds(units, threads)
    ]
    pool = get_pool(threads)
    aggregates = _gather(pool, [(kind.local, buf, lo, hi) for lo, hi in bounds])
    everywhere = np.ones(kind.s, dtype=bool)
    seen = [everywhere if seen is None else seen] + [everywhere] * (len(bounds) - 1)
    counts = [np.full(kind.s, (hi - lo) // kind.s) for lo, hi in bounds]
    incoming, carry = splice(kind, carry, aggregates, counts, seen)
    _gather(pool, [
        (kind.fold_slab, buf, lo, hi, c, agg, lanes)
        for (lo, hi), c, agg, lanes in zip(bounds, incoming, aggregates, seen)
    ])
    body = units * kind.unit
    if n > body:
        kind.tail(buf, body, carry)
    return carry


def threaded_lane_scan(
    src: np.ndarray,
    op: AssociativeOp,
    tuple_size: int = 1,
    *,
    out: Optional[np.ndarray] = None,
    carry: Optional[np.ndarray] = None,
    threads=None,
    cutover_bytes: Optional[int] = None,
) -> np.ndarray:
    """One inclusive lane scan pass, slab-parallel with a carry splice.

    Same contract as :func:`repro.kernels.lane_scan` (``out`` may alias
    ``src``; ``carry`` is a phase-order continuation row) plus
    ``threads`` and ``cutover_bytes``.  Small chunks, ``threads=1``,
    non-ufunc operators, and non-contiguous buffers fall back to the
    serial kernel.

    For integer dtypes the result is bit-identical to the serial kernel
    (integer regrouping is exact).  For floats the splice regroups the
    per-lane fold — deterministic for a fixed thread count, but not
    bit-identical to serial; exact float continuation lives in
    :func:`repro.kernels.lane_scan_exact`.
    """
    src = np.asarray(src)
    s = int(tuple_size)
    if out is None:
        out = np.empty_like(src)
    if src.size and op.ufunc is not None and (
        src.flags.c_contiguous and out.flags.c_contiguous
    ):
        kind = RowCarry(op, src.dtype, s)
        start = kind.identity() if carry is None else np.asarray(carry)
        seen = np.full(s, carry is not None)
        if slab_scan(
            kind, (src, out), src.size, start, seen,
            threads=threads, cutover_bytes=cutover_bytes,
        ) is not None:
            return out
    return lane_scan(src, op, s, out=out, carry=carry)


def threaded_fused_lane_scan(
    buf: np.ndarray,
    op: AssociativeOp,
    tuple_size: int,
    order: int,
    carry: np.ndarray,
    *,
    threads=None,
    cutover_bytes: Optional[int] = None,
) -> np.ndarray:
    """Slab-parallel fused single-pass order-``q`` scan (in place).

    Same contract as :func:`repro.kernels.lane.fused_lane_scan`
    (``carry`` is the phase-order ``(q, s)`` running-total matrix,
    updated in place), run through :func:`slab_scan` with the fused
    carry kind: every slab fused-scans its rows from a zero carry, the
    ``(q, s)`` slab aggregates splice by the binomial identity, and
    slabs with a non-zero incoming matrix fold it through the binomial
    weight columns.  Integer regrouping is exact, so results are
    bit-identical to the serial fused kernel for any thread count.
    """
    s = int(tuple_size)
    q = int(order)
    if buf.size and buf.flags.c_contiguous:
        running = slab_scan(
            FusedCarry(op, buf.dtype, s, q), (buf, buf), buf.size, carry,
            threads=threads, cutover_bytes=cutover_bytes,
        )
        if running is not None:
            carry[...] = running
            return buf
    return fused_lane_scan(buf, op, s, q, carry)


class ThreadedResult:
    """Result wrapper for :class:`ThreadedScan` (``.values`` contract)."""

    def __init__(self, values: np.ndarray, threads: int):
        self.values = values
        self.threads = threads


class ThreadedScan:
    """The ``engine="threaded"`` adapter: one-shot scans through
    :func:`repro.kernels.scan_into` with ``threads`` resolved (``None``
    means auto here).

    Same ``run(values, order=, tuple_size=, op=, inclusive=)`` contract
    as every other engine; bit-identical to the host path for all
    dtypes by default (floats take the exact serial passes unless
    ``float_mode`` says otherwise).
    """

    def __init__(self, threads=None, cutover_bytes=None, float_mode=None):
        self.threads = threads
        self.float_mode = float_mode
        self.cutover_bytes = cutover_bytes

    def run(
        self,
        values,
        order: int = 1,
        tuple_size: int = 1,
        op=ADD,
        inclusive: bool = True,
    ) -> ThreadedResult:
        op = get_op(op)
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"expected a 1-D input, got shape {array.shape}")
        if order < 1 or tuple_size < 1:
            raise ValueError("order and tuple_size must be >= 1")
        dtype = op.check_dtype(array.dtype)
        array = np.ascontiguousarray(array, dtype=dtype)
        if array.size == 0:
            return ThreadedResult(array.copy(), 0)
        threads = resolve_threads(self.threads, array.size * array.dtype.itemsize)
        out = scan_into(
            array,
            np.empty_like(array),
            op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            threads=threads,
            cutover_bytes=self.cutover_bytes,
            float_mode=self.float_mode,
        )
        return ThreadedResult(out, threads)
