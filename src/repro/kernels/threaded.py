"""Threaded in-memory lane kernel: multicore intra-chunk scans.

PR 5 left every engine scanning each chunk on one core.  This module
applies the sharded driver's phase structure *in memory*: the
``(m, s)`` lane-block matrix is split into ``P`` contiguous row-slabs,
each slab is scanned locally by :func:`repro.kernels.lane_scan` on a
persistent :class:`~concurrent.futures.ThreadPoolExecutor` worker, the
tiny ``P × s`` matrix of slab totals is exclusive-scanned on the host
(the carry splice), and the resulting carries are folded into the
slabs in parallel.  This is the scan→splice→fold decomposition of
LightScan (Liu & Aluru) and of Zhang, Wang & Ross's SIMD prefix sums:
once the inner loop is a vectorized accumulate, multicore throughput
comes from slab-parallelism plus a single splice.

Threads — not processes — give real parallelism here because numpy's
ufunc inner loops release the GIL: slab scans and carry folds run
concurrently over the caller's buffers with zero serialization, IPC
or copy cost.  Looped (non-ufunc) operators hold the GIL, so they
always take the serial kernel.

Determinism and exactness
-------------------------

The slab partition is a pure function of ``(n, s, threads)`` — never of
pool scheduling — so results are identical under oversubscription (more
slabs than cores, or a smaller pool than requested).  For fixed-width
integers the splice regroups a truly associative reduction and the
result is **bit-identical** to the serial kernel.  For floats,
regrouping changes rounding, so float inputs keep bit-exactness by
default: :class:`ThreadedLaneKernel` with ``float_mode="exact"`` (the
float default) scans through the serial prepend-carry kernel — a slab
chain would be sequential in the carry anyway, so there is nothing to
overlap.  ``float_mode="compensated"`` runs the error-free-carry
segment decomposition of :mod:`repro.kernels.compensated` — fully
parallel, bit-identical for *any* thread count, and more accurate than
the naive fold.  ``float_mode="regrouped"`` opts into the fast
regrouped fold (deterministic for a fixed thread count, but not
bit-identical to serial).

Cutover
-------

Thread dispatch costs microseconds; accumulating a small chunk costs
less.  Chunks below the tuned per-dtype parallel cutover
(:func:`repro.core.tuning.kernel_tuning`, override with
``REPRO_PARALLEL_CUTOVER_BYTES``) run on the serial kernel.  Callers
that must force threading (tests, the fuzzer) pass ``cutover_bytes=0``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.kernels.compensated import resolve_float_mode
from repro.kernels.lane import (
    LaneKernel,
    _fused_tail,
    exclusive_shift,
    fold_lanes,
    fused_combine,
    fused_fold,
    fused_lane_scan,
    fused_supported,
    lane_scan,
    phase_perm,
)
from repro.ops import ADD, AssociativeOp, get_op

#: Fallback parallel cutover (bytes) when the tuner is unavailable:
#: chunks smaller than this are scanned serially.
PARALLEL_CUTOVER_BYTES = 4 << 20

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


def resolve_threads(threads=None, n_bytes: Optional[int] = None) -> int:
    """Resolve a ``threads=`` parameter to a concrete worker count.

    ``None``/``0``/``"auto"`` means min(cpu count, slab-size heuristic):
    enough workers that each still gets :data:`MIN_SLAB_BYTES` of slab,
    never more than the machine has cores.  Explicit counts are taken
    as given (useful for tests and for the sharded driver's combined
    oversubscription budget).
    """
    if threads in (None, 0, "auto"):
        cpus = os.cpu_count() or 1
        if n_bytes is None:
            return cpus
        return max(1, min(cpus, int(n_bytes) // MIN_SLAB_BYTES))
    t = int(threads)
    if t < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return t


def _tuned_cutover(dtype: np.dtype) -> int:
    try:
        from repro.core.tuning import kernel_tuning

        return kernel_tuning(dtype).parallel_cutover_bytes
    except Exception:  # pragma: no cover - tuner must never break scans
        return PARALLEL_CUTOVER_BYTES


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
    :func:`repro.kernels.lane_scan_exact` / :class:`ThreadedLaneKernel`.
    """
    src = np.asarray(src)
    s = int(tuple_size)
    if out is None:
        out = np.empty_like(src)
    n = src.size
    if n == 0:
        return out
    n_bytes = n * src.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = _tuned_cutover(src.dtype)
    m = n // s
    if (
        threads <= 1
        or op.ufunc is None
        or m < 2
        or n_bytes < cutover_bytes
        or not (src.flags.c_contiguous and out.flags.c_contiguous)
    ):
        return lane_scan(src, op, s, out=out, carry=carry)
    if out is not src:
        # One streaming copy up front; slabs then scan in place (the
        # same copy-then-in-place trick as the serial kernel).
        out[...] = src
    bounds = _slab_bounds(m, threads)
    if len(bounds) <= 1:
        return lane_scan(out, op, s, out=out, carry=carry)
    pool = get_pool(threads)
    body = m * s
    out2 = out[:body].reshape(m, s)

    def _scan_slab(lo, hi):
        blk = out[lo * s : hi * s]
        lane_scan(blk, op, s, out=blk)

    for f in [pool.submit(_scan_slab, lo, hi) for lo, hi in bounds]:
        f.result()

    # Host splice: exclusive scan of the P×s slab-total matrix.  Each
    # slab's local total is its (already scanned) last full row; the
    # running fold of those rows is the carry the next slab still owes.
    carries = []
    running = None if carry is None else np.asarray(carry)
    for lo, hi in bounds:
        carries.append(running)
        total = out2[hi - 1]
        running = total.copy() if running is None else op.apply(running, total)

    def _fold_slab(lo, hi, row):
        blk = out2[lo:hi]
        op.apply_into(row, blk, out=blk)

    for f in [
        pool.submit(_fold_slab, lo, hi, row)
        for (lo, hi), row in zip(bounds, carries)
        if row is not None
    ]:
        f.result()

    r = n - body
    if r:
        # Tail phases continue from the last full row (already spliced);
        # out[body:] still holds the raw source values.
        op.apply_into(out[body - s : body - s + r], out[body:], out=out[body:])
    return out


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
    updated in place) with the threaded scan→splice→fold decomposition:
    every slab fused-scans its rows locally from a zero carry, the host
    splices the per-slab ``(q, s)`` aggregate matrices with one
    :func:`fused_combine` chain, and slabs with a non-trivial incoming
    matrix fold it in parallel via the binomial weight columns.  The
    slab partition is the same pure function as the order-1 path, and
    integer regrouping is exact, so results are bit-identical to the
    serial fused kernel for any thread count.
    """
    s = int(tuple_size)
    q = int(order)
    n = buf.size
    if n == 0:
        return buf
    n_bytes = n * buf.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = _tuned_cutover(buf.dtype)
    m = n // s
    if (
        threads <= 1
        or m < 2
        or n_bytes < cutover_bytes
        or not buf.flags.c_contiguous
    ):
        return fused_lane_scan(buf, op, s, q, carry)
    bounds = _slab_bounds(m, threads)
    if len(bounds) <= 1:
        return fused_lane_scan(buf, op, s, q, carry)
    pool = get_pool(threads)
    dtype = buf.dtype
    locals_ = [None] * len(bounds)

    def _scan_slab(i, lo, hi):
        local = np.zeros((q, s), dtype=dtype)
        fused_lane_scan(buf[lo * s : hi * s], op, s, q, local)
        locals_[i] = local

    for f in [
        pool.submit(_scan_slab, i, lo, hi)
        for i, (lo, hi) in enumerate(bounds)
    ]:
        f.result()

    # Host splice: chain the (q, s) slab aggregates; incoming[i] is the
    # absolute order-total matrix slab i still owes.
    incoming = []
    running = carry.copy()
    for (lo, hi), local in zip(bounds, locals_):
        incoming.append(running)
        running = fused_combine(running, local, hi - lo)
    carry[...] = running

    for f in [
        pool.submit(fused_fold, buf[lo * s : hi * s], T)
        for (lo, hi), T in zip(bounds, incoming)
        if T.any()
    ]:
        f.result()

    if n > m * s:
        # Tail: one-row partial tile continuing from the spliced matrix.
        _fused_tail(buf[m * s :], carry)
    return buf


def threaded_fold_lanes(
    buf: np.ndarray,
    op: AssociativeOp,
    carry: np.ndarray,
    pos: int = 0,
    tuple_size: int = 1,
    seen: Optional[np.ndarray] = None,
    threads=None,
    cutover_bytes: Optional[int] = None,
) -> np.ndarray:
    """Slab-parallel :func:`repro.kernels.fold_lanes` (same contract).

    The all-lanes-seen broadcast fold is embarrassingly parallel over
    row slabs; mixed seen/unseen masks (only possible while ``pos < s``)
    and small buffers take the serial fold.
    """
    buf = np.asarray(buf)
    n = buf.size
    s = int(tuple_size)
    if n == 0:
        return buf
    n_bytes = n * buf.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = _tuned_cutover(buf.dtype)
    m = n // s
    if (
        threads <= 1
        or op.ufunc is None
        or m < 2
        or n_bytes < cutover_bytes
        or not buf.flags.c_contiguous
        or (seen is not None and not seen.all())
    ):
        return fold_lanes(buf, op, carry, pos, s, seen=seen)
    row = carry[phase_perm(pos, s)]  # fancy indexing: a contiguous copy
    body = m * s
    b2 = buf[:body].reshape(m, s)
    pool = get_pool(threads)

    def _fold(lo, hi):
        blk = b2[lo:hi]
        op.apply_into(row, blk, out=blk)

    for f in [pool.submit(_fold, lo, hi) for lo, hi in _slab_bounds(m, threads)]:
        f.result()
    r = n - body
    if r:
        op.apply_into(row[:r], buf[body:], out=buf[body:])
    return buf


def threaded_scan_into(
    src: np.ndarray,
    out: np.ndarray,
    op,
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    threads=None,
    cutover_bytes: Optional[int] = None,
    float_mode: Optional[str] = None,
) -> np.ndarray:
    """Order-``q`` threaded lane scan — ``q`` slab-parallel passes.

    The threaded sibling of :func:`repro.kernels.scan_into`: pass 1
    scans ``src`` into ``out``, later passes rescan ``out`` in place,
    the exclusive shift happens once at the end.  Float handling
    follows ``float_mode``: ``"exact"`` (the default) runs the serial
    passes — a regrouped splice would change rounding;
    ``"compensated"`` runs the segment-parallel error-free passes
    (bit-identical for any thread count, more accurate than the naive
    fold); ``"regrouped"`` lets floats regroup through the slab splice.
    Integers always get the full slab parallelism.
    """
    op = get_op(op)
    src = np.asarray(src)
    mode = resolve_float_mode(src.dtype, float_mode)
    if mode == "exact":
        from repro.kernels.lane import scan_into

        return scan_into(src, out, op, order, tuple_size, inclusive)
    if mode == "compensated":
        from repro.kernels.compensated import compensated_scan_into

        return compensated_scan_into(
            src, out, op, order, tuple_size, inclusive,
            threads=threads, cutover_bytes=cutover_bytes,
        )
    q = int(order)
    s = int(tuple_size)
    if (
        q >= 2
        and fused_supported(op, out.dtype, q, s)
        and out.ndim == 1
        and out.flags.c_contiguous
    ):
        if out is not src:
            out[...] = src
        carry = np.zeros((q, s), dtype=out.dtype)
        threaded_fused_lane_scan(
            out, op, s, q, carry,
            threads=threads, cutover_bytes=cutover_bytes,
        )
    else:
        current = src
        for _ in range(q):
            threaded_lane_scan(
                current,
                op,
                tuple_size,
                out=out,
                threads=threads,
                cutover_bytes=cutover_bytes,
            )
            current = out
    if inclusive:
        return out
    heads = np.full(s, op.identity(out.dtype), dtype=out.dtype)
    return exclusive_shift(out, heads)


class ThreadedLaneKernel(LaneKernel):
    """:class:`~repro.kernels.LaneKernel` with slab-parallel hot paths.

    Same carry-continuation ``feed(chunk)`` contract and state machine
    (inherited — only the three scan hooks are overridden, each counted
    in ``counters.threaded_scans``), plus two keyword arguments:

    ``threads``
        Worker count for the slab partition; ``None``/``"auto"``
        resolves per chunk via :func:`resolve_threads`.  The partition
        depends only on this number, so results are deterministic under
        any pool size.
    ``cutover_bytes``
        Serial/parallel crossover; ``None`` uses the tuned per-dtype
        value, ``0`` forces threading for any chunk with ≥ 2 full rows.

    Exactness matches the base class: integers take the threaded
    in-place path (bit-identical — integer regrouping is exact), exact
    floats the serial prepend pass (a slab chain is sequential in the
    carry, so threads would add dispatch cost with nothing to overlap),
    ``float_mode="compensated"`` the segment-parallel error-free path
    (bit-identical for any thread count) and ``float_mode="regrouped"``
    the threaded regrouped fold.
    """

    def __init__(self, *args, threads=None, cutover_bytes=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = None if threads in (None, 0, "auto") else int(threads)
        self.cutover_bytes = cutover_bytes

    def _scan(self, src, out, carry_row=None):
        self.counters.threaded_scans += 1
        return threaded_lane_scan(
            src,
            self.op,
            self.s,
            out=out,
            carry=carry_row,
            threads=self.threads,
            cutover_bytes=self.cutover_bytes,
        )

    def _scan_compensated(self, src, state):
        from repro.kernels.compensated import lane_scan_compensated

        self.counters.threaded_scans += 1
        return lane_scan_compensated(
            src,
            self.op,
            self.s,
            state,
            self.pos,
            threads=self.threads or "auto",
            cutover_bytes=self.cutover_bytes,
        )

    def _fused_scan(self, buf, carry):
        self.counters.threaded_scans += 1
        return threaded_fused_lane_scan(
            buf,
            self.op,
            self.s,
            self.order,
            carry,
            threads=self.threads,
            cutover_bytes=self.cutover_bytes,
        )


class ThreadedResult:
    """Result wrapper for :class:`ThreadedScan` (``.values`` contract)."""

    def __init__(self, values: np.ndarray, threads: int):
        self.values = values
        self.threads = threads


class ThreadedScan:
    """The ``engine="threaded"`` adapter: one-shot scans through
    :func:`threaded_scan_into`.

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
        out = threaded_scan_into(
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
