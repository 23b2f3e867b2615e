"""Sharded out-of-core scans: the carry splice across *space*.

:func:`scan_file_sharded` is the host-scale analogue of SAM's two-level
carry propagation.  Where :func:`repro.stream.scan_file` proves that one
pass plus O(1) carry state suffices across *time* (chunks of one
stream), this driver proves it across *space*, as reduce-then-scan
(the MGPU strategy of the paper's traffic comparison,
:class:`repro.baselines.ReduceThenScan`).  The input is cut into
``S`` contiguous shards:

1. **Reduce** (read-only): shards ``0 … S-2`` each feed their range
   through the carry kind's reduce kernel and return only its
   aggregate.  Nothing is written or fsynced; the last shard's
   aggregate would never be used, so it is not computed.
2. **Splice**: :func:`repro.kernels.splice` turns the aggregates into
   the exact carry entering every shard.
3. **Scan**: every shard rescans its range of the input with a
   :class:`repro.kernels.LaneKernel` started from that carry, so its
   output region is final as written, once.

The job reads ``2n - n/S`` and writes ``n``: about 3n of traffic,
against the 4n of scan-then-propagate (scan, then re-read and rewrite
the output with the carry folded in), and no scratch file at any order.

The job's carry kind (:mod:`repro.kernels.splice`) is its aggregate:

* the plain ``(s,)`` row: order 1, any operator; the reduce pass is
  one ``op`` reduce per lane and chunk for integers;
* the fused ``(q, s)`` matrix: order ``q >= 2``, integer ``add``, any
  ``s``, with or without a delegated engine — the binomial splice is
  exact mod ``2**w``; the reduce pass scans at order ``q`` in place on
  the read buffer;
* the compensated chain (``float_mode="compensated"``, float ``add``,
  order 1): shards sit on the fixed segment grid of
  :mod:`repro.kernels.compensated`, the reduce pass collects per-segment
  ``(T, F)`` totals, the splice replays the double-double chain, and
  each scan shard starts from the chain's ``(H, G)``.  Bit-identical
  for every shard count, and more accurate than the serial naive fold.

Everything else runs the single-stream :func:`repro.stream.scan_file`
and reports why in ``ShardedResult.fallback_reason``: floats under the
default ``"exact"`` mode, order ``q >= 2`` with any operator but integer
``add`` (no exact order-``q`` aggregate; float ``"regrouped"``
included), and compensated jobs at ``q >= 2`` or on a blocked input.
Integer outputs are bit-identical to the one-shot host scan; order-1
floats under ``"regrouped"`` shard with carry-fold rounding.

**Durability.**  Progress is tracked in a per-shard manifest (version 2,
see :mod:`repro.stream.checkpoint`): the phase (``"reduce"`` or
``"scan"``), per-shard done flags and the reduce aggregates, checked
field by field against the job on resume.  A scan shard rewrites its
whole region from the input, so a killed job re-runs only its
unfinished shards under ``resume=True``.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compression.stream import BlockedFileReader, BlockedIndex, read_index
from repro.kernels import resolve_threads
from repro.kernels.splice import CompensatedCarry, FusedCarry, RowCarry, splice
from repro.ops import get_op
from repro.stream.checkpoint import (
    build_shard_manifest,
    read_shard_manifest,
    write_checkpoint,
)
from repro.stream.counters import StreamCounters
from repro.stream.driver import (
    DEFAULT_CHUNK_BYTES,
    _AdaptiveChunker,
    _read_raw,
    resolve_input_format,
    scan_file,
)
from repro.stream.errors import (
    CheckpointMismatchError,
    InjectedFailureError,
    StreamError,
)

#: Delegated inner engines (e.g. a simulated ``SamScan``) are one
#: resource: concurrent shard threads take turns using them.
_DELEGATE_LOCK = threading.Lock()

#: The manifest's phases, in order.
PHASES = ("reduce", "scan")

#: Largest read of a raw reduce pass, which keeps nothing: a
#: cache-sized buffer, reused, beat chunk-sized reads.
REDUCE_READ_BYTES = 1 << 20


@dataclass
class ShardedResult:
    """Outcome of one :func:`scan_file_sharded` job."""

    elements: int
    dtype: str
    output_path: str
    counters: StreamCounters
    shards: List[Tuple[int, int]]
    passes: int
    shard_counters: List[StreamCounters] = field(default_factory=list)
    resumed_shards: int = 0
    fallback_reason: Optional[str] = None
    input_format: str = "raw"

    @property
    def engine_used(self) -> str:
        return self.counters.engine_used

    @property
    def num_shards(self) -> int:
        return len(self.shards)


# -- shard geometry ------------------------------------------------------


def plan_shards(total_elements: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal shard bounds (never an empty shard)."""
    shards = max(1, min(int(shards), total_elements)) if total_elements else 1
    base, rem = divmod(total_elements, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _lane_counts(lo: int, hi: int, tuple_size: int) -> np.ndarray:
    """How many elements of [lo, hi) fall in each global tuple lane."""
    lanes = np.arange(tuple_size)
    return (hi - lanes + tuple_size - 1) // tuple_size - (
        lo - lanes + tuple_size - 1
    ) // tuple_size


# -- the driver ----------------------------------------------------------


class _ShardedJob:
    """All state of one sharded run (paths, plan, progress, manifest)."""

    def __init__(
        self, *, input_path, output_path, op, dtype, order, tuple_size,
        inclusive, engine, shards, chunk_bytes, adaptive_chunks,
        checkpoint, shard_threads=1, input_format="raw",
        blocked_index=None, compensated=False,
    ):
        self.input_path = input_path
        self.output_path = output_path
        self.input_format = input_format
        self.blocked_index: Optional[BlockedIndex] = blocked_index
        self.op = op
        self.dtype = dtype
        self.order = order
        self.tuple_size = tuple_size
        self.inclusive = inclusive
        self.engine = engine
        self.shards = shards
        self.chunk_bytes = chunk_bytes
        self.adaptive_chunks = adaptive_chunks
        self.checkpoint = checkpoint
        self.shard_threads = max(1, int(shard_threads))
        self.compensated = compensated
        if compensated:
            self.kind = CompensatedCarry(dtype, tuple_size)
        elif order >= 2:
            self.kind = FusedCarry(op, dtype, tuple_size, order)
        else:
            self.kind = RowCarry(op, dtype, tuple_size)
        self.itemsize = dtype.itemsize
        self.total_elements = shards[-1][1] if shards else 0

        # Progress (mirrors the manifest's "state" document).
        self.begin("reduce")
        self.aggregates: List[Optional[np.ndarray]] = [None] * len(shards)
        self.carried = StreamCounters(engine_used=self._engine_label())
        self.shard_counters: List[StreamCounters] = []
        self.resumed_shards = 0
        self.completions = 0
        self.fail_after_shards: Optional[int] = None

    # -- config & manifest ----------------------------------------------

    def _engine_label(self) -> str:
        if self.engine is None:
            return "host"
        if isinstance(self.engine, str):
            return self.engine
        return type(self.engine).__name__

    def config(self) -> dict:
        config = {
            "op": self.op.name,
            "order": self.order,
            "tuple_size": self.tuple_size,
            "inclusive": self.inclusive,
            "dtype": self.dtype.name,
        }
        # A compensated float64 job and a regrouped one differ only in
        # their carry kind, so the compensated mode is stamped.
        if self.compensated:
            config["float_mode"] = "compensated"
        return config

    def state_dict(self) -> dict:
        return {
            "phase": self.phase,
            "done": list(self.done),
            "aggregates": [
                None if agg is None else self.kind.encode(agg)
                for agg in self.aggregates
            ],
            "counters": self.counters_so_far().as_dict(),
        }

    def counters_so_far(self) -> StreamCounters:
        return StreamCounters.aggregate(
            [self.carried, *self.shard_counters],
            engine_used=self._engine_label(),
        )

    def write_manifest(self) -> None:
        if self.checkpoint is None:
            return
        t0 = time.perf_counter()
        io = None
        if self.input_format != "raw":
            io = {"input_format": self.input_format}
        payload = build_shard_manifest(
            self.config(), self.total_elements, self.shards, self.state_dict(),
            io=io,
        )
        write_checkpoint(self.checkpoint, payload)
        self.carried.checkpoint_writes += 1
        self.carried.seconds_checkpoint += time.perf_counter() - t0

    def load_manifest(self, payload: dict) -> None:
        config = payload["config"]
        mine = self.config()
        if config != mine:
            diffs = sorted(
                key for key in set(config) | set(mine)
                if config.get(key) != mine.get(key)
            )
            raise CheckpointMismatchError(
                f"shard manifest {self.checkpoint!r} belongs to a different "
                f"configuration (differs in {', '.join(diffs) or 'structure'}: "
                f"saved {config!r}, this job {mine!r})"
            )
        if payload["input_elements"] != self.total_elements:
            raise CheckpointMismatchError(
                f"shard manifest {self.checkpoint!r} was taken against an "
                f"input of {payload['input_elements']} elements; this input "
                f"has {self.total_elements}"
            )
        saved_format = payload.get("io", {}).get("input_format", "raw")
        if saved_format != self.input_format:
            raise CheckpointMismatchError(
                f"shard manifest {self.checkpoint!r} was taken against a "
                f"{saved_format!r} input; this job reads {self.input_format!r}"
            )
        # Resume continues the *stored* plan: shard boundaries are part
        # of the on-disk layout, unlike chunk size or engine.  The
        # manifest is a file from outside the program, so every field
        # is checked against this job before any of it is used.
        self.shards = self._checked_plan(payload["shards"])
        state = payload["state"]
        phase = state.get("phase") if isinstance(state, dict) else None
        if phase not in PHASES:
            raise self._mismatch(f"phase {phase!r} is not a phase of this job")
        self.phase = phase
        self.done = self._per_shard(state, "done", bool)
        self.aggregates = [
            None if blob is None else self._decode(blob, i)
            for i, blob in enumerate(
                self._per_shard(state, "aggregates", (str, type(None)))
            )
        ]
        # The scan phase splices every reduce aggregate; in the reduce
        # phase each done shard has recorded its own.
        needed = self.done if phase == "reduce" else [True] * len(self.shards)
        if any(n and a is None for n, a in zip(needed[:-1], self.aggregates)):
            raise self._mismatch(f"a shard the {phase} phase needs has no aggregate")
        self.carried = StreamCounters.from_dict(state.get("counters", {}))
        self.carried.engine_used = self._engine_label()
        self.carried.resumes += 1
        self.resumed_shards = sum(bool(flag) for flag in self.done)

    def _mismatch(self, what: str) -> CheckpointMismatchError:
        return CheckpointMismatchError(
            f"shard manifest {self.checkpoint!r} does not fit this job: {what}"
        )

    def _checked_plan(self, shards) -> List[Tuple[int, int]]:
        """The stored shard plan, if its shards are non-empty, in order,
        tile ``[0, input_elements)`` exactly and start on the job's grid
        (the segment grid of a compensated job, the container blocks of
        a blocked input)."""
        grid = 1
        if self.compensated:
            grid = self.kind.unit
        elif self.blocked_index is not None:
            grid = self.blocked_index.block_elements
        ok = isinstance(shards, list) and bool(shards) and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(type(v) is int for v in pair)
            for pair in shards
        )
        if ok:
            ends = [0] + [hi for _, hi in shards]
            ok = ends[-1] == self.total_elements and all(
                lo == end and lo < hi and lo % grid == 0
                for (lo, hi), end in zip(shards, ends)
            )
        if not ok:
            raise self._mismatch(
                f"shards {shards!r} do not tile [0, {self.total_elements}) "
                f"in order with non-empty shards starting on multiples of {grid}"
            )
        return [(lo, hi) for lo, hi in shards]

    def _per_shard(self, record, key: str, allowed) -> list:
        """``record[key]``, if it is a list of one ``allowed`` entry per shard."""
        value = record.get(key) if isinstance(record, dict) else None
        if not (
            isinstance(value, list)
            and len(value) == len(self.shards)
            and all(isinstance(v, allowed) for v in value)
        ):
            raise self._mismatch(
                f"{key!r} is not a list of one entry per shard "
                f"({len(self.shards)} shards)"
            )
        return list(value)

    def _decode(self, blob, shard_index: int) -> np.ndarray:
        """One manifest aggregate, decoded to the carry kind's shape for
        its shard."""
        lo, hi = self.shards[shard_index]
        try:
            return self.kind.decode(blob, hi - lo)
        except ValueError as exc:
            raise CheckpointMismatchError(
                f"manifest aggregate for shard {shard_index} does not fit "
                f"this job: {exc}"
            ) from None

    def carries(self) -> list:
        """The splice: the carry entering every shard, from the reduce
        aggregates of all shards but the last (shard bounds are
        arbitrary, so a shard's lanes differ by at most one element)."""
        t0 = time.perf_counter()
        s = self.tuple_size
        bounds = self.shards[:-1]
        incoming, last = splice(
            self.kind, self.kind.identity(), self.aggregates[:-1],
            [_lane_counts(lo, hi, s) for lo, hi in bounds],
            [np.arange(s) < lo for lo, _ in bounds],
        )
        self.carried.seconds_splice += time.perf_counter() - t0
        return incoming + [last]

    # -- progress --------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Start ``phase`` with every shard to do, except the last in
        the reduce phase (its aggregate is never used)."""
        self.phase = phase
        self.done = [False] * len(self.shards)
        if phase == "reduce":
            self.done[-1] = True

    def record_completion(self, shard_index, counters, aggregate=None) -> None:
        """Bookkeeping after one shard task finishes."""
        self.done[shard_index] = True
        if aggregate is not None:
            self.aggregates[shard_index] = aggregate
        self.shard_counters.append(counters)
        self.write_manifest()
        self.completions += 1
        if (
            self.fail_after_shards is not None
            and self.completions >= self.fail_after_shards
            and not (self.phase == "scan" and all(self.done))
        ):
            raise InjectedFailureError(
                f"injected failure after {self.completions} shard completions "
                f"({self.phase} phase)"
            )


# -- the shard task (runs on executor threads) ---------------------------


def _shard_pass(job: _ShardedJob, shard_index, carry=None):
    """One shard's pass over its region of the input, chunk by chunk.

    Without ``carry`` it is the reduce pass: the kind's reduce kernel
    takes each chunk and the pass returns ``(aggregate, counters)``;
    nothing is written.  With the shard's incoming ``carry`` it is the
    scan pass: the kernel starts from it, an exclusive job lane-shifts
    each chunk, and the region of the output is written and fsynced; it
    returns ``(None, counters)``.

    Raw chunks are read like :func:`repro.stream.scan_file` reads them
    (a short read raises :class:`StreamError`), into one buffer the
    pass reuses.  A blocked input decodes
    through a one-deep prefetch: the next chunk's blocks decode on a
    side thread while the current chunk scans.  Depth 1 means
    ``read_range`` calls never overlap each other (the reader's handle
    stays single-threaded); values are unaffected — container inputs
    are integers, and integer scans are split-invariant.
    """
    lo, hi = job.shards[shard_index]
    write = carry is not None
    shift = write and not job.inclusive
    counters = StreamCounters(engine_used=job._engine_label())
    engine = None
    if job.engine is not None and job.dtype.kind in "iu":
        from repro.api import resolve_engine

        engine = resolve_engine(job.engine)
    # Several shard threads make intra-chunk scans slab-parallel under
    # the shard pool; the per-shard budget already divides the caller's
    # total by the worker count (the combined-oversubscription guard).
    threads = job.shard_threads if job.shard_threads > 1 else None
    kernel = job.kind.kernel(lo, carry, engine=engine, threads=threads)
    # A LaneKernel counts its threaded, fused and delegated scans here.
    kernel.counters = counters
    # A named engine is built per shard; feeds are serialized across
    # shard threads.
    lock = _DELEGATE_LOCK if engine is not None else contextlib.nullcontext()
    elements = max(1, job.chunk_bytes // job.itemsize)
    # The reduce pass keeps nothing: raw input reads through a fixed
    # cache-sized buffer.
    fixed = not write and job.blocked_index is None
    if fixed:
        elements = min(elements, max(1, REDUCE_READ_BYTES // job.itemsize))
    chunker = _AdaptiveChunker(
        elements, job.itemsize, job.adaptive_chunks and not fixed, counters
    )
    # Raw chunks land in one buffer per pass, reused chunk after chunk:
    # a fresh chunk-sized array would page-fault on every chunk.
    buf = np.empty(0, job.dtype)

    def next_take(pos):
        return min(chunker.elements, hi - pos)

    with contextlib.ExitStack() as stack:
        reader = prefetch = in_fh = out_fh = None
        if job.blocked_index is not None:
            # Each task opens its own handle; the parsed index is shared.
            reader = stack.enter_context(
                BlockedFileReader(job.input_path, index=job.blocked_index)
            )
            prefetch = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="shard-decode"
            )
            stack.callback(prefetch.shutdown, wait=True, cancel_futures=True)
        else:
            in_fh = stack.enter_context(open(job.input_path, "rb"))
        if write:
            out_fh = stack.enter_context(open(job.output_path, "r+b"))
            out_fh.seek(lo * job.itemsize)
        pos = lo
        pending = None  # future of the prefetched chunk
        while pos < hi:
            chunk_start = time.perf_counter()
            if pending is not None:
                chunk = pending.result()
                pending = None
                counters.overlapped_decodes += 1
            elif reader is not None:
                chunk = reader.read_range(pos, pos + next_take(pos))
            else:
                take = next_take(pos)
                if buf.size < take:
                    buf = np.empty(take, job.dtype)
                chunk = _read_raw(
                    in_fh, job.input_path, job.dtype, pos, pos + take, buf
                )
            end = pos + len(chunk)
            t_read = time.perf_counter()
            if prefetch is not None and end < hi:
                pending = prefetch.submit(
                    reader.read_range, end, end + next_take(end)
                )
            heads = kernel.heads() if shift else None
            with lock:
                chunk = kernel.feed(chunk)
            if heads is not None:
                chunk = kernels.exclusive_shift(chunk, heads)
            t_scan = time.perf_counter()
            if write:
                out_fh.write(memoryview(chunk).cast("B"))
            t_write = time.perf_counter()
            counters.seconds_read += t_read - chunk_start
            counters.seconds_scan += t_scan - t_read
            counters.seconds_write += t_write - t_scan
            counters.chunks += 1
            pos = end
            chunker.observe(t_write - chunk_start)
        if write:
            t0 = time.perf_counter()
            out_fh.flush()
            os.fsync(out_fh.fileno())
            counters.seconds_write += time.perf_counter() - t0
    nbytes = (hi - lo) * job.itemsize
    counters.bytes_in += nbytes
    if reader is not None:
        # read_range was timed under seconds_read; reattribute its
        # decode share so the phases decompose like the fused driver.
        # Prefetched decodes ran off the loop's clock entirely (their
        # wall-clock hid under the scan), so the subtraction clamps at
        # zero rather than going negative.
        counters.seconds_decode += reader.decode_seconds
        counters.seconds_read = max(
            0.0, counters.seconds_read - reader.decode_seconds
        )
    if not write:
        return job.kind.aggregate(kernel), counters
    if reader is not None:
        # The container's bytes count once, at the pass that decodes
        # every block: the reduce re-read must not skew the ratio.
        counters.decoded_bytes_in += nbytes
        counters.compressed_bytes_in += reader.payload_bytes_read
    counters.elements += hi - lo
    counters.bytes_out += nbytes
    counters.shards += 1
    return None, counters


# -- public entry point --------------------------------------------------


def scan_file_sharded(
    input_path,
    output_path,
    *,
    dtype="int32",
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    engine=None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    adaptive_chunks: bool = True,
    checkpoint=None,
    resume: bool = False,
    float_mode: Optional[str] = None,
    threads=None,
    input_format: str = "auto",
    fail_after_shards: Optional[int] = None,
) -> ShardedResult:
    """Scan a raw binary file out of core across ``shards`` partitions.

    Parameters mirror :func:`repro.stream.scan_file` plus the sharding
    knobs: ``shards`` (contiguous partitions; default the CPU count),
    ``workers`` (concurrent shard tasks; default ``min(shards, cpus)``),
    ``adaptive_chunks`` (per-shard chunk sizing driven by measured
    per-chunk phase seconds), and the float-mode pair: ``float_mode``
    picks ``"exact"`` (sequential bit-exact fallback, the default),
    ``"compensated"`` (shard floats on the fixed segment grid with
    error-free carries — bit-identical for any shard count, *more*
    accurate than the serial fold; ``add``/order-1/raw-input only,
    anything else falls back sequentially with a ``fallback_reason``),
    or ``"regrouped"`` (shard order-1 scans anyway, accept carry-fold
    rounding).  Order ``q >= 2`` shards only integer ``add`` (the fused
    ``(q, s)`` carry); other operators fall back with a
    ``fallback_reason``.  ``threads`` adds slab-parallel intra-chunk
    scans *inside* each shard task: the total budget (an int, or
    ``"auto"`` for the CPU count) is divided by the shard worker count
    so shards × intra-chunk threads never oversubscribes beyond the
    request; ``None`` keeps shard tasks serial.  ``checkpoint`` names
    the per-shard manifest; a killed job re-runs only its unfinished
    shards under ``resume=True``.  ``fail_after_shards`` is a test-only
    hook aborting the job after N shard completions (reduce and scan
    completions both count; a job has ``2 * shards - 1``).

    Every sharded job writes its output once (``ShardedResult.passes
    == 1``).

    ``input_format`` mirrors :func:`scan_file`: ``"auto"`` (sniff the
    ``SAMB`` magic), ``"raw"``, or ``"blocked"``.  A blocked input's
    dtype and element count come from its container header (the
    ``dtype`` argument is ignored), the shard plan is aligned to the
    container's block size so no two shards decode the same block, and
    both passes decode their block ranges through one shared index.
    Compressed *output* is a single-session feature
    (:func:`scan_file`'s ``output_format``): a ``.samb`` container is
    written by one sequential writer, and shards write their regions
    concurrently.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if tuple_size < 1:
        raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    input_path = os.fspath(input_path)
    output_path = os.fspath(output_path)

    input_format = resolve_input_format(input_path, input_format)
    resolved_op = get_op(op)
    blocked_index = None
    if input_format == "blocked":
        # The container header is authoritative for dtype and count;
        # raw-byte divisibility does not apply to compressed payloads.
        blocked_index = read_index(input_path)
        resolved_dtype = resolved_op.check_dtype(blocked_index.dtype)
        itemsize = resolved_dtype.itemsize
        total_elements = blocked_index.count
    else:
        resolved_dtype = resolved_op.check_dtype(dtype)
        itemsize = resolved_dtype.itemsize
        input_bytes = os.path.getsize(input_path)
        if input_bytes % itemsize:
            raise ValueError(
                f"{input_path!r} is {input_bytes} bytes, not a multiple of "
                f"{resolved_dtype.name}'s {itemsize}-byte item size"
            )
        total_elements = input_bytes // itemsize

    mode = kernels.resolve_float_mode(resolved_dtype, float_mode)
    if mode == "compensated":
        from repro.kernels.compensated import check_compensated

        check_compensated(resolved_op, resolved_dtype)
    fallback_reason = None
    if mode == "exact":
        # Floats are only pseudo-associative: regrouped carries would
        # round differently from the one-shot scan.  The sequential
        # session path is bit-exact; float_mode="regrouped" opts into
        # sharding anyway, and
        # float_mode="compensated" shards *and* keeps determinism.
        fallback_reason = (
            "float dtype: bit-exactness requires the sequential exact "
            "path (float_mode='compensated' shards floats "
            "deterministically; 'regrouped' shards with carry-fold "
            "rounding)"
        )
    elif mode == "compensated" and order > 1:
        # An order-q shard would need the order-(q-1) compensated
        # values entering it, which no shard aggregate carries.
        # Sequential compensated scanning handles any order.
        fallback_reason = (
            "compensated float mode shards order-1 scans only; "
            "higher orders run the sequential compensated session"
        )
    elif mode == "compensated" and input_format == "blocked":
        # Shard bounds would need to align to container blocks *and*
        # the fixed segment grid at once.
        fallback_reason = (
            "compensated float mode shards raw inputs only; blocked "
            "containers run the sequential compensated session"
        )
    elif order > 1 and not kernels.fused_supported(
        resolved_op, resolved_dtype, order
    ):
        # A shard's order-q aggregate must splice exactly: the binomial
        # identity does that for modular integer add only.
        fallback_reason = (
            f"order-{order} shards need an exact order-q aggregate, which "
            f"only integer add has (the binomial splice); {resolved_op.name} "
            f"on {resolved_dtype.name} runs the single-stream scan"
        )
    if fallback_reason is not None:
        result = scan_file(
            input_path, output_path, dtype=resolved_dtype, op=resolved_op,
            order=order, tuple_size=tuple_size, inclusive=inclusive,
            engine=engine, chunk_bytes=chunk_bytes, checkpoint=checkpoint,
            resume=resume, threads=threads, input_format=input_format,
            float_mode=mode if mode != "regrouped" else None,
        )
        return ShardedResult(
            elements=result.elements,
            dtype=result.dtype,
            output_path=output_path,
            counters=result.counters,
            shards=[(0, result.elements)],
            passes=1,
            shard_counters=[result.counters],
            resumed_shards=int(bool(result.resumed_from)),
            fallback_reason=fallback_reason,
            input_format=input_format,
        )

    if shards is None:
        shards = os.cpu_count() or 1
    if mode == "compensated" and total_elements:
        # The compensated contract fixes segment boundaries as a pure
        # function of the global index; shard bounds snap to that grid
        # so every shard's totals line up with the global chain.
        span = kernels.segment_span(tuple_size)
        plan = [
            (k_lo * span, min(k_hi * span, total_elements))
            for k_lo, k_hi in plan_shards(-(-total_elements // span), shards)
        ]
    elif blocked_index is not None and total_elements:
        # Align shard bounds to container blocks so no two shards decode
        # the same block: plan over blocks, scale back to elements.
        be = blocked_index.block_elements
        plan = [
            (b_lo * be, min(b_hi * be, total_elements))
            for b_lo, b_hi in plan_shards(blocked_index.num_blocks, shards)
        ]
    else:
        plan = plan_shards(total_elements, shards)
    if workers is None:
        workers = min(len(plan), os.cpu_count() or 1)
    # Combined-oversubscription guard: the caller's thread budget is for
    # the whole job, so each of the ``workers`` concurrent shard tasks
    # gets an equal slice of it for its intra-chunk slab threads.
    shard_threads = 1
    if threads is not None:
        budget = resolve_threads(threads)
        shard_threads = max(1, budget // max(1, workers))

    job = _ShardedJob(
        input_path=input_path, output_path=output_path, op=resolved_op,
        dtype=resolved_dtype, order=order, tuple_size=tuple_size,
        inclusive=inclusive, engine=engine, shards=plan,
        chunk_bytes=chunk_bytes, adaptive_chunks=adaptive_chunks,
        checkpoint=checkpoint, shard_threads=shard_threads,
        input_format=input_format, blocked_index=blocked_index,
        compensated=mode == "compensated",
    )
    job.fail_after_shards = fail_after_shards

    if total_elements == 0:
        open(output_path, "wb").close()
        if checkpoint is not None and os.path.exists(checkpoint):
            os.remove(checkpoint)
        return ShardedResult(
            elements=0, dtype=resolved_dtype.name, output_path=output_path,
            counters=job.counters_so_far(), shards=[], passes=1,
            input_format=input_format,
        )

    resumed = False
    if resume and checkpoint is not None and os.path.exists(checkpoint):
        job.load_manifest(read_shard_manifest(checkpoint))
        _check_resume_output(job)
        resumed = True
    elif checkpoint is not None and os.path.exists(checkpoint):
        # Same stale-checkpoint rule as the unsharded driver: a fresh
        # start must not leave a previous job's manifest around.
        os.remove(checkpoint)

    if not resumed:
        with open(output_path, "wb") as fh:
            fh.truncate(total_elements * itemsize)
        job.write_manifest()

    with ThreadPoolExecutor(max_workers=workers) as executor:
        try:
            _run(job, executor)
        except BaseException:
            executor.shutdown(wait=True, cancel_futures=True)
            raise

    if checkpoint is not None and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return ShardedResult(
        elements=total_elements,
        dtype=resolved_dtype.name,
        output_path=output_path,
        counters=job.counters_so_far(),
        shards=list(job.shards),
        passes=1,
        shard_counters=list(job.shard_counters),
        resumed_shards=job.resumed_shards,
        input_format=input_format,
    )


def _check_resume_output(job: _ShardedJob) -> None:
    path = job.output_path
    if not os.path.exists(path):
        raise StreamError(
            f"cannot resume: shard manifest exists but {path!r} does not"
        )
    size = os.path.getsize(path)
    expected = job.total_elements * job.itemsize
    if size != expected:
        raise StreamError(
            f"cannot resume: {path!r} is {size} bytes, the manifest "
            f"expects {expected}; the manifest and files are out of sync"
        )


def _run(job: _ShardedJob, executor) -> None:
    """Reduce, splice, scan: each phase runs the shards it has not
    finished, and records completions in shard order."""
    if job.phase == "reduce":
        _run_phase(job, executor, lambda i: _shard_pass(job, i))
        job.begin("scan")
        job.write_manifest()
    carries = job.carries()
    _run_phase(job, executor, lambda i: _shard_pass(job, i, carries[i]))


def _run_phase(job: _ShardedJob, executor, task) -> None:
    futures = [
        (i, executor.submit(task, i))
        for i in range(len(job.shards))
        if not job.done[i]
    ]
    for i, future in futures:
        aggregate, counters = future.result()
        job.record_completion(i, counters, aggregate=aggregate)
