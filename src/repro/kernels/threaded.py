"""Threaded in-memory lane kernels: multicore intra-chunk scans.

One slab driver, :func:`slab_scan`, runs every parallel in-memory scan,
and it serves one carry kind: the plain row
(:class:`repro.kernels.splice.RowCarry`).  It cuts a chunk into ``P``
contiguous slabs of whole lane rows, scans every slab locally on a
persistent :class:`~concurrent.futures.ThreadPoolExecutor` worker
(:func:`slab_local`), splices the ``P`` slab aggregates on the calling
thread (:func:`repro.kernels.splice`), and folds each later slab's
incoming carry in parallel (:func:`slab_fold`) — the scan→splice→fold
decomposition of LightScan and of Zhang, Wang & Ross's SIMD prefix
sums.  A continuation's carry enters the way every continuation in
:mod:`repro.kernels.lane` does: folded into the chunk's head row, which
the first slab takes after its own copy, so that slab's aggregate is
already absolute and it is never folded.
:func:`repro.kernels.scan_into` and :class:`repro.kernels.LaneKernel`
call it for each row pass when given ``threads=``, and scan serially
where it declines.

:func:`runs_slabs` is the one gate deciding where ``threads=`` applies.
Order ``q >= 2`` at ``s >= 2`` has no slab path: the serial tile loop
(:func:`repro.kernels.fused_lane_scan`) reads memory once for all ``q``
orders, where slabs make ``q`` passes.  The compensated kind has none
either: its slabs made a local pass and a fold pass over memory where
the serial kernel makes one, and lost to it with two cores present
(CHANGES.md).  Such scans accept and validate ``threads=`` and run the
serial kernel, with the same bytes; ``threaded_scans`` counts only
passes the slab driver ran.

Threads — not processes — give real parallelism here because numpy's
ufunc inner loops release the GIL.  Looped (non-ufunc) operators hold
it, so they always take the serial kernel.

**Determinism and exactness.**  The slab partition is a pure function
of ``(n, s, threads)`` — never of pool scheduling — so results are
identical under oversubscription.  Integer regrouping is exact, so
integer results are **bit-identical** to the serial kernel.  Floats
keep bit-exactness by default: under ``float_mode="exact"`` a threaded
scan runs the serial passes (a slab chain would be sequential in the
carry), and ``"compensated"`` runs the serial error-free-carry kernel
of :mod:`repro.kernels.compensated`; ``"regrouped"`` opts into the
slab fold, which regroups every slab after the first (deterministic for
a fixed thread count only).

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

from repro.kernels.compensated import resolve_float_mode
from repro.kernels.lane import _fused_tiles, fold_lanes, lane_scan, scan_into
from repro.kernels.splice import RowCarry, splice
from repro.ops import ADD, get_op

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


def runs_slabs(op, dtype, order=1, tuple_size=1, float_mode=None) -> bool:
    """Whether a ``threads=`` scan of this configuration runs on the slab
    driver — the one gate :func:`repro.kernels.scan_into`,
    :class:`repro.kernels.LaneKernel`, :class:`ThreadedScan`, the planner
    and the serve batcher read.  Only the row kind does: an integer, or
    a ``"regrouped"`` float, under a real-ufunc operator, at order 1 or
    tuple size 1.  Order ``q >= 2`` at ``s >= 2`` is the serial tile
    loop's (:func:`repro.kernels.fused_lane_scan`), which reads memory
    once for all ``q`` orders; it, the compensated kind and exact floats
    scan serially, with the same bytes."""
    op = get_op(op)
    mode = resolve_float_mode(dtype, float_mode)
    if op.ufunc is None or mode not in (None, "regrouped"):
        return False
    return not _fused_tiles(op, order, tuple_size, mode)


def slab_local(kind, src, out, lo, hi, head=None):
    """Scan slab ``[lo, hi)`` of ``src`` into ``out`` from a zero carry,
    or from the chunk's folded ``head`` row (first slab only); returns
    its aggregate, the slab's last row."""
    lane_scan(src[lo:hi], kind.op, kind.s, out=out[lo:hi], head=head)
    return out[hi - kind.s : hi]


def slab_fold(kind, out, lo, hi, carry) -> None:
    """Fold the ``carry`` entering slab ``[lo, hi)`` into its local scan
    in ``out``, in place, on every lane."""
    fold_lanes(out[lo:hi], kind.op, carry, lo, kind.s)


def slab_tail(kind, src, out, body, carry) -> None:
    """Continue over the partial row past the last slab."""
    last = out[body - kind.s : out.size - kind.s]
    kind.op.apply_into(last, src[body:], out=out[body:])


def slab_threads(src, out, op, tuple_size=1, threads=None, cutover_bytes=None) -> int:
    """How many slabs :func:`slab_scan` cuts ``src`` into: ``threads``
    resolved for its size, or 1 where the driver declines — a looped
    operator, a non-contiguous buffer, below ``cutover_bytes``
    (default :data:`PARALLEL_CUTOVER_BYTES`), or fewer than two whole
    rows."""
    n_bytes = src.size * src.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = PARALLEL_CUTOVER_BYTES
    if (
        op.ufunc is None or not (src.flags.c_contiguous and out.flags.c_contiguous)
        or src.size // int(tuple_size) < 2 or n_bytes < cutover_bytes
    ):
        return 1
    return threads


def slab_scan(
    src, out, op, tuple_size=1, head=None, *, threads=None, cutover_bytes=None
) -> bool:
    """The one slab driver: scan → splice → fold over row-slabs of a chunk.

    Scans ``src`` into ``out`` (which may alias it) with the row carry
    kind (:class:`repro.kernels.splice.RowCarry`); ``head`` is an
    optional folded head row, as for :func:`repro.kernels.lane_scan`.
    Returns ``False``, having written nothing, when it declines
    (:func:`slab_threads` is 1) and the caller scans serially.
    Otherwise every slab of whole rows scans locally on the pool
    (:func:`slab_local`; the first slab writes ``head`` after its own
    copy), :func:`splice` chains the slab aggregates on the calling
    thread from the first slab's, every later slab folds its incoming
    carry on the pool (:func:`slab_fold`), :func:`slab_tail` continues
    over the partial row past the last slab, and it returns ``True``.
    For floats (``"regrouped"``) the splice regroups each later slab's
    fold: deterministic for a fixed thread count, not bit-identical to
    the serial kernel.
    """
    s = int(tuple_size)
    threads = slab_threads(src, out, op, s, threads, cutover_bytes)
    if threads <= 1:
        return False
    rows = src.size // s
    kind = RowCarry(op, src.dtype, s)
    bounds = [(lo * s, hi * s) for lo, hi in _slab_bounds(rows, threads)]
    pool = get_pool(threads)
    aggregates = _gather(pool, [
        (slab_local, kind, src, out, lo, hi, None if lo else head)
        for lo, hi in bounds
    ])
    later = bounds[1:]
    counts = [np.full(s, (hi - lo) // s) for lo, hi in later]
    seen = [np.ones(s, dtype=bool)] * len(later)
    incoming, running = splice(kind, aggregates[0], aggregates[1:], counts, seen)
    _gather(pool, [
        (slab_fold, kind, out, lo, hi, c) for (lo, hi), c in zip(later, incoming)
    ])
    body = rows * s
    if src.size > body:
        slab_tail(kind, src, out, body, running)
    return True


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
    ``float_mode`` says otherwise).  ``ThreadedResult.threads`` is the
    slab count that ran: 1 for a configuration with no slab path
    (:func:`runs_slabs`) and for an input the slab driver declines
    (:func:`slab_threads`), both scanned serially.
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
        out = np.empty_like(array)
        threads = 1
        if runs_slabs(op, dtype, order, tuple_size, self.float_mode):
            threads = slab_threads(
                array, out, op, tuple_size, self.threads, self.cutover_bytes
            )
        out = scan_into(
            array,
            out,
            op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            threads=threads,
            cutover_bytes=self.cutover_bytes,
            float_mode=self.float_mode,
        )
        return ThreadedResult(out, threads)
