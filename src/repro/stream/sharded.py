"""Sharded out-of-core scans: the carry splice across *space*.

:func:`scan_file_sharded` is the host-scale analogue of SAM's two-level
carry propagation.  Where :func:`repro.stream.scan_file` proves that one
pass plus O(1) carry state suffices across *time* (chunks of one
stream), this driver proves it across *space*: the input is cut into
``S`` contiguous shards, each shard is scanned independently (phase 1),
the shard aggregates are spliced by a tiny exclusive scan on the host
(phase 2), and each shard folds its spliced carry into its output
region (phase 3).  Phases 2 and 3 are written once, against the job's
carry kind (:mod:`repro.kernels.splice`): :func:`repro.kernels.splice`
is the splice, and the kind's ``fold`` is each shard's fold step.

* The plain ``(s,)`` row: order ``q`` runs ``q`` scan passes with a
  splice between them, as SAM iterates its computation stage.
* The fused ``(q, s)`` matrix, inside the fused gate
  (:func:`repro.kernels.fused_supported`: integer ADD, ``q >= 2``,
  ``s >= 2``): one pass of the fused tile kernel, spliced with the
  binomial identity — no scratch file, the same bits.
* The compensated chain (``float_mode="compensated"``, float add,
  order 1): shards sit on the fixed segment grid of
  :mod:`repro.kernels.compensated`, the scan pass collects per-segment
  ``(T, F)`` totals, the splice replays the double-double chain, and
  the fold renders.  Bit-identical for every shard count, and more
  accurate than the serial naive fold.

Integer outputs are bit-identical to the one-shot host scan for every
op / order / tuple size.  Other floats fall back to the sequential
bit-exact session path (``"exact"``, the default) or shard with
carry-fold rounding (``"regrouped"``).

**Carry priming.**  A shard whose predecessors have all finished the
current pass learns its spliced carry *before* scanning, bakes it into
the scan, and skips its fold.  With one worker every shard is primed
and the job degenerates to a single pass, as decoupled lookback does
when blocks run in order.

**One shard loop.**  Every pass over a shard is :func:`_shard_pass`:
it reads the shard's region chunk by chunk the way
:func:`repro.stream.scan_file` does (a short file raises
:class:`StreamError`), applies the pass's step, and writes the region
back.

**Durability.**  Progress is tracked in a per-shard manifest (see
:mod:`repro.stream.checkpoint`), checked field by field against the job
on resume.  Passes ping-pong between the output file and a scratch
file so every pass's source stays intact; a killed job re-runs only
its unfinished shards under ``resume=True`` (an interrupted in-place
fold is rebuilt by re-scanning that shard, then folding again).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compression.stream import BlockedFileReader, BlockedIndex, read_index
from repro.kernels import LaneKernel, resolve_threads
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


def _seen_before(lo: int, tuple_size: int) -> np.ndarray:
    """Lanes that have at least one element at a global index < lo."""
    return np.arange(tuple_size) < lo


# -- per-shard kernels ---------------------------------------------------


def _exclusive_shift(chunk, prev, pos, tuple_size) -> np.ndarray:
    """Lane-shift a folded inclusive chunk; ``prev`` carries lane heads
    across chunk boundaries (updated in place)."""
    perm = kernels.phase_perm(pos, tuple_size)
    out = kernels.exclusive_shift(chunk, prev[perm])
    totals = kernels.phase_totals(chunk, tuple_size)
    if totals.size:
        prev[perm[: totals.size]] = totals
    return out


# -- the driver ----------------------------------------------------------


class _ShardedJob:
    """All state of one sharded run (paths, plan, progress, manifest)."""

    def __init__(
        self, *, input_path, output_path, op, dtype, order, tuple_size,
        inclusive, engine, shards, chunk_bytes, adaptive_chunks,
        checkpoint, workers, shard_threads=1, input_format="raw",
        blocked_index=None, float_mode=None, fused=False,
    ):
        self.input_path = input_path
        self.output_path = output_path
        self.input_format = input_format
        self.blocked_index: Optional[BlockedIndex] = blocked_index
        self.scratch_path = f"{output_path}.scratch"
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
        self.workers = workers
        self.shard_threads = max(1, int(shard_threads))
        #: ``"compensated"``, or ``None`` for the regrouping driver.
        self.float_mode = float_mode
        #: Fused order-q mode: one scan pass with ``(q, s)`` aggregates.
        self.fused = bool(fused)
        self.passes = 1 if self.fused else order
        #: The carry kind every pass splices and folds with.
        if float_mode == "compensated":
            self.kind = CompensatedCarry(dtype, tuple_size)
        elif self.fused:
            self.kind = FusedCarry(op, dtype, tuple_size, order)
        else:
            self.kind = RowCarry(op, dtype, tuple_size)
        self.itemsize = dtype.itemsize
        self.total_elements = shards[-1][1] if shards else 0

        # Progress (mirrors the manifest's "state" document).
        self.completed_passes: List[dict] = []  # {"aggregates": [...], "baked": [...]}
        self.phase = {"kind": "scan", "pass": 1}
        self.done = [False] * len(shards)
        self.baked: List[Optional[bool]] = [None] * len(shards)
        self.aggregates: List[Optional[np.ndarray]] = [None] * len(shards)
        self.carried = StreamCounters(engine_used=self._engine_label())
        self.shard_counters: List[StreamCounters] = []
        self.resumed_shards = 0
        self.completions = 0
        self.fail_after_shards: Optional[int] = None
        self.lock = threading.Lock()

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
        # Only the compensated mode changes the on-disk pass layout, so
        # only it is stamped — integer manifests keep their old shape.
        if self.float_mode == "compensated":
            config["float_mode"] = self.float_mode
        # Likewise the fused layout: a single pass with (q, s) matrix
        # aggregates cannot resume a pass-per-order manifest or vice
        # versa, so fused manifests carry the stamp.
        if self.fused:
            config["layout"] = "fused"
        return config

    def needs_scratch(self) -> bool:
        return self.passes >= 2

    def target_path(self, pass_index: int) -> str:
        # The last pass always lands in the output file (the fold then
        # runs in place there); earlier passes ping-pong so every
        # pass's source file stays intact for crash-redo.
        if (self.passes - pass_index) % 2 == 0:
            return self.output_path
        return self.scratch_path

    def source_path(self, pass_index: int) -> str:
        if pass_index == 1:
            return self.input_path
        return self.target_path(pass_index - 1)

    def state_dict(self) -> dict:
        return {
            "phase": dict(self.phase),
            "done": list(self.done),
            "baked": list(self.baked),
            "aggregates": [
                None if row is None else self.kind.encode(row)
                for row in self.aggregates
            ],
            "completed_passes": [
                {
                    "aggregates": [self.kind.encode(r) for r in rec["aggregates"]],
                    "baked": list(rec["baked"]),
                }
                for rec in self.completed_passes
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
        if phase == {"kind": "fold"}:
            finished = self.passes
        elif (
            isinstance(phase, dict)
            and sorted(phase) == ["kind", "pass"]
            and phase["kind"] == "scan"
            and phase["pass"] in range(1, self.passes + 1)
        ):
            finished = phase["pass"] - 1
        else:
            raise self._mismatch(f"phase {phase!r} is not a phase of this job")
        self.phase = dict(phase)
        self.done = self._per_shard(state, "done", bool)
        self.baked = self._per_shard(state, "baked", (bool, type(None)))
        self.aggregates = [
            None if blob is None else self._decode(blob, i)
            for i, blob in enumerate(
                self._per_shard(state, "aggregates", (str, type(None)))
            )
        ]
        if phase["kind"] == "scan" and any(
            done and (agg is None or baked is None)
            for done, agg, baked in zip(self.done, self.aggregates, self.baked)
        ):
            raise self._mismatch("a shard marked done has no aggregate")
        records = state.get("completed_passes")
        if not (isinstance(records, list) and len(records) == finished):
            raise self._mismatch(
                f"phase {phase!r} needs {finished} completed passes"
            )
        self.completed_passes = [
            {
                "aggregates": [
                    self._decode(blob, i)
                    for i, blob in enumerate(self._per_shard(rec, "aggregates", str))
                ],
                "baked": self._per_shard(rec, "baked", bool),
            }
            for rec in records
        ]
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
        if self.float_mode == "compensated":
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

    def splice(self, aggregates, baked) -> list:
        """Phase 2: the carry entering each of the first
        ``len(aggregates)`` shards in the current pass
        (:func:`repro.kernels.splice`).  Shard bounds are arbitrary, so
        a shard's lanes differ by at most one element; a trailing
        ``None`` aggregate is allowed (``try_prime`` only needs the
        carry *at* that shard)."""
        s = self.tuple_size
        bounds = self.shards[: len(aggregates)]
        carries, _ = splice(
            self.kind, self.kind.identity(), aggregates,
            [_lane_counts(lo, hi, s) for lo, hi in bounds],
            [_seen_before(lo, s) for lo, _ in bounds], baked,
        )
        return carries

    # -- progress --------------------------------------------------------

    def try_prime(self, shard_index: int) -> Optional[np.ndarray]:
        """Phase-1.5 shortcut: the absolute carry for ``shard_index`` in
        the current pass, if every predecessor already finished it."""
        if self.float_mode == "compensated":
            # Priming skips the fold, but the compensated fold is the
            # *render* — it must run regardless, so a primed scan would
            # save nothing (the naive pass never folds carries in).
            return None
        with self.lock:
            if not all(self.done[:shard_index]):
                return None
            return self.splice(
                self.aggregates[:shard_index] + [None],
                self.baked[:shard_index] + [False],
            )[shard_index]

    def record_completion(
        self, shard_index, counters, aggregate=None, baked=None
    ) -> None:
        """Main-thread bookkeeping after one shard task finishes."""
        with self.lock:
            self.done[shard_index] = True
            if aggregate is not None:
                self.aggregates[shard_index] = aggregate
            if baked is not None:
                self.baked[shard_index] = baked
            self.shard_counters.append(counters)
        self.write_manifest()
        self.completions += 1
        if (
            self.fail_after_shards is not None
            and self.completions >= self.fail_after_shards
            and not (all(self.done) and self.phase["kind"] == "fold")
        ):
            raise InjectedFailureError(
                f"injected failure after {self.completions} shard completions "
                f"(phase {self.phase})"
            )

    def begin_phase(self, phase: dict, done=None, baked_reset=True) -> None:
        with self.lock:
            self.phase = dict(phase)
            self.done = list(done) if done is not None else [False] * len(self.shards)
            if baked_reset:
                self.baked = [None] * len(self.shards)
                self.aggregates = [None] * len(self.shards)


def _splice_none_guard(aggregates) -> None:
    missing = [i for i, row in enumerate(aggregates) if row is None]
    if missing:  # pragma: no cover - internal invariant
        raise StreamError(f"splice ran before shards {missing} finished")


# -- shard tasks (run on executor threads) -------------------------------


def _shard_pass(
    job: _ShardedJob, shard_index, counters, source, target, step, *,
    reader=None, heads=None, rows=False,
) -> None:
    """The one shard loop: read the shard's region of ``source`` chunk
    by chunk, apply ``step(chunk, pos)``, write the result to the same
    region of ``target``, then fsync it.

    Raw chunks are read like :func:`repro.stream.scan_file` reads them
    (a short read raises :class:`StreamError`).  A blocked ``reader``
    replaces the raw source and decodes through a one-deep prefetch:
    the next chunk's blocks decode on a side thread while the current
    chunk scans.  Depth 1 means ``read_range`` calls never overlap each
    other (the reader's handle stays single-threaded); values are
    unaffected — container inputs are integers, and integer scans are
    split-invariant.

    ``heads`` marks the fold pass: every second of it goes to
    ``seconds_fold``, and an exclusive job lane-shifts each chunk with
    ``heads`` as the running lane heads.  In the scan pass read and
    write seconds are counted here and ``step`` counts its own.
    ``rows`` keeps interior takes multiples of ``tuple_size`` relative
    to the shard start (the fused fold needs one depth per row).
    """
    lo, hi = job.shards[shard_index]
    s = job.tuple_size
    fold_pass = heads is not None
    shift = fold_pass and not job.inclusive
    chunker = _AdaptiveChunker(
        max(1, job.chunk_bytes // job.itemsize), job.itemsize,
        job.adaptive_chunks, counters,
    )

    def next_take(pos):
        take = min(chunker.elements, hi - pos)
        if rows and pos + take < hi and take % s:
            # The last take soaks up the n % s tail.
            take = take - take % s or min(s, hi - pos)
        return take

    with contextlib.ExitStack() as stack:
        out_fh = stack.enter_context(open(target, "r+b"))
        prefetch = None
        if reader is None:
            in_fh = stack.enter_context(open(source, "rb"))
        else:
            prefetch = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="shard-decode"
            )
            stack.callback(prefetch.shutdown, wait=True, cancel_futures=True)
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
                chunk = _read_raw(
                    in_fh, source, job.dtype, pos, pos + next_take(pos)
                )
            end = pos + len(chunk)
            t_read = time.perf_counter()
            if prefetch is not None and end < hi:
                pending = prefetch.submit(
                    reader.read_range, end, end + next_take(end)
                )
            if step is not None:
                chunk = step(chunk, pos)
            if shift:
                chunk = _exclusive_shift(chunk, heads, pos, s)
            t_step = time.perf_counter()
            out_fh.write(memoryview(chunk).cast("B"))
            t_write = time.perf_counter()
            if fold_pass:
                counters.seconds_fold += t_write - chunk_start
            else:
                counters.seconds_read += t_read - chunk_start
                counters.seconds_write += t_write - t_step
            counters.chunks += 1
            pos = end
            chunker.observe(t_write - chunk_start)
        t0 = time.perf_counter()
        out_fh.flush()
        os.fsync(out_fh.fileno())
        if fold_pass:
            counters.seconds_fold += time.perf_counter() - t0
        else:
            counters.seconds_write += time.perf_counter() - t0


def _scan_shard(
    job: _ShardedJob, pass_index, shard_index, fold_carry, prime,
    publish=True,
):
    """One shard's scan pass.

    Reads its region of the pass source, folds ``fold_carry`` (the
    previous pass's spliced carry) into the values, scans each lane as
    a continuation, and writes the result to the same region of the
    pass target.  Returns ``(aggregate, baked, counters)``.

    With ``publish`` the task records its aggregate and done flag
    itself (under the job lock) *before* returning, so a successor
    shard picked up by the same worker can prime off it immediately —
    the main thread only learns of the completion at its next
    ``as_completed`` wakeup, too late for sequential priming.  The
    crash-recovery rescan passes ``publish=False``: during the fold
    phase the done flags mean "folded", which a rescan is not.
    """
    lo, hi = job.shards[shard_index]
    op, dtype, s = job.op, job.dtype, job.tuple_size
    # Fused mode runs its single pass at the full order; classic passes
    # are each order-1 with the splice iterated between them.
    kernel_order = job.order if job.fused else 1
    counters = StreamCounters(engine_used=job._engine_label())
    if isinstance(prime, str) and prime == "auto":
        prime = job.try_prime(shard_index)
    baked = prime is not None
    lock = contextlib.nullcontext()
    delegating = job.engine is not None and dtype.kind in "iu"
    if job.float_mode == "compensated":
        # Segment totals for the splice; the fold pass renders.  Serial
        # per shard: the shard plan itself is the parallelism.
        kernel = kernels.CompensatedCollectKernel(op, dtype, s, start=lo)
    elif delegating:
        # A named engine is built per shard ("host" resolves to the
        # plain kernel); feeds are serialized across shard threads.
        from repro.api import resolve_engine

        kernel = LaneKernel(
            op, dtype, s, start=lo, prime=prime,
            engine=resolve_engine(job.engine),
        )
        lock = _DELEGATE_LOCK
    else:
        # The shared in-place kernel (repro.kernels): bit-exact for
        # integers, carry-fold rounding for floats (which only get here
        # under float_mode="regrouped").  Several shard threads make its
        # intra-chunk scans slab-parallel under the shard pool; the
        # per-shard budget already divides the caller's total by the
        # worker count (the combined-oversubscription guard).
        threads = job.shard_threads if job.shard_threads > 1 else None
        kernel = LaneKernel(
            op, dtype, s, start=lo, prime=prime, float_mode="regrouped",
            order=kernel_order, threads=threads,
        )
        if threads is not None:
            counters.threaded_scans += 1
    # The previous pass's carry (only the row kind runs several passes).
    fold = None
    if fold_carry is not None:
        fold = job.kind.fold(fold_carry, lo, _seen_before(lo, s))

    def step(chunk, pos):
        t0 = time.perf_counter()
        if fold is not None:
            fold(chunk, pos)
            t_fold = time.perf_counter()
            counters.seconds_fold += t_fold - t0
            t0 = t_fold
        with lock:
            chunk = kernel.feed(chunk)
        counters.seconds_scan += time.perf_counter() - t0
        return chunk

    # Pass 1 of a compressed job reads blocks through the shared index
    # (each task opens its own file handle; the parsed metadata is one
    # object); later passes ping-pong between raw scratch/output files.
    reader = None
    if pass_index == 1 and job.blocked_index is not None:
        reader = BlockedFileReader(job.input_path, index=job.blocked_index)
    try:
        _shard_pass(
            job, shard_index, counters, job.source_path(pass_index),
            job.target_path(pass_index), step, reader=reader,
        )
    finally:
        if reader is not None:
            reader.close()
    nbytes = (hi - lo) * job.itemsize
    counters.bytes_in += nbytes
    counters.bytes_out += nbytes
    if reader is not None:
        # read_range was timed under seconds_read; reattribute its
        # decode share so the phases decompose like the fused driver.
        # Prefetched decodes ran off the loop's clock entirely (their
        # wall-clock hid under the scan), so the subtraction clamps at
        # zero rather than going negative.
        counters.decoded_bytes_in += nbytes
        counters.compressed_bytes_in += reader.payload_bytes_read
        counters.seconds_decode += reader.decode_seconds
        counters.seconds_read = max(
            0.0, counters.seconds_read - reader.decode_seconds
        )
    if pass_index == 1:
        counters.elements += hi - lo
    counters.shards += 1
    counters.primed_shards += int(baked)
    if delegating:
        counters.delegated_stage_scans += kernel.counters.delegated_stage_scans
    if job.fused:
        counters.fused_order_scans += 1
    aggregate = job.kind.aggregate(kernel)
    if publish:
        with job.lock:
            job.done[shard_index] = True
            job.aggregates[shard_index] = aggregate
            job.baked[shard_index] = baked
    return aggregate, baked, counters


def _fold_shard(job: _ShardedJob, shard_index, carry, do_fold):
    """Phase 3 for one shard: fold the spliced carry into the output
    region in place (and lane-shift it when the scan is exclusive).

    The carry kind supplies the transform (:mod:`repro.kernels.splice`):
    a plain row folds lane by lane, a fused ``(q, s)`` matrix through
    the binomial weight columns in the shard's lane permutation, and
    the compensated chain renders: its fold pass reads the raw input
    instead of the output and rescans it serially in place from the
    shard's incoming ``(H, G)``.
    The render runs for *every* shard — even shard 0's carry-free
    region needs its local compensation re-injected — which is why
    compensated shards never bake or prime.
    """
    lo, hi = job.shards[shard_index]
    counters = StreamCounters(engine_used=job._engine_label())
    seen = _seen_before(lo, job.tuple_size)
    heads = np.where(seen, job.kind.heads(carry), job.op.identity(job.dtype))
    step = job.kind.fold(carry, lo, seen) if do_fold else None
    renders = step is not None and job.kind.fold_input
    source = job.input_path if renders else job.output_path
    _shard_pass(
        job, shard_index, counters, source, job.output_path, step,
        heads=heads.astype(job.dtype), rows=job.fused,
    )
    counters.folded_shards += 1
    return counters


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
    or ``"regrouped"`` (shard anyway, accept carry-fold rounding).
    ``threads`` adds slab-parallel intra-chunk scans *inside* each shard task: the
    total budget (an int, or ``"auto"`` for the CPU count) is divided
    by the shard worker count so shards × intra-chunk threads never
    oversubscribes beyond the request; ``None`` keeps shard tasks
    serial.  ``checkpoint`` names the per-shard manifest; a killed job
    re-runs only its unfinished shards under ``resume=True``.
    ``fail_after_shards`` is a test-only hook aborting the job after N
    shard completions.

    Inside the fused gate (integer ADD, ``order >= 2``,
    ``tuple_size >= 2``, no delegated engine) the job runs a **single**
    scan pass with the fused carry kind (``ShardedResult.passes == 1``).

    ``input_format`` mirrors :func:`scan_file`: ``"auto"`` (sniff the
    ``SAMB`` magic), ``"raw"``, or ``"blocked"``.  A blocked input's
    dtype and element count come from its container header (the
    ``dtype`` argument is ignored), the shard plan is aligned to the
    container's block size so no two shards decode the same block, and
    pass 1 of every shard decodes its block range through one shared
    index.  Later passes and the fold are raw-byte, unchanged.
    Compressed *output* is a single-session feature
    (:func:`scan_file`'s ``output_format``) — sharded folds rewrite
    the output in place, which a compressed container cannot do.
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
        # Pass q >= 2 rescans the pass-(q-1) *output*, whose naive form
        # is not on disk once rendered — the per-element error recovery
        # has nothing exact to re-derive from.  Sequential compensated
        # scanning handles any order.
        fallback_reason = (
            "compensated float mode shards order-1 scans only; "
            "higher orders run the sequential compensated session"
        )
    elif mode == "compensated" and input_format == "blocked":
        # Shard bounds would need to align to container blocks *and*
        # the fixed segment grid at once, and the render pass re-reads
        # raw input bytes by offset — neither holds for a compressed
        # container.
        fallback_reason = (
            "compensated float mode shards raw inputs only; blocked "
            "containers run the sequential compensated session"
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
            passes=order,
            shard_counters=[result.counters],
            resumed_shards=int(bool(result.resumed_from)),
            fallback_reason=fallback_reason,
            input_format=input_format,
        )

    # Single-pass fused order-q mode: integer ADD at order >= 2 with
    # s >= 2 shards in ONE pass of (q, s) matrix aggregates instead of
    # q ping-pong passes.  Delegated engines keep the classic layout
    # (their shard kernels run order-1 continuations).
    fused = (
        engine is None
        and mode is None
        and kernels.fused_supported(resolved_op, resolved_dtype, order, tuple_size)
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
        checkpoint=checkpoint, workers=workers, shard_threads=shard_threads,
        input_format=input_format, blocked_index=blocked_index,
        float_mode=mode if mode == "compensated" else None, fused=fused,
    )
    job.fail_after_shards = fail_after_shards

    if total_elements == 0:
        open(output_path, "wb").close()
        if checkpoint is not None and os.path.exists(checkpoint):
            os.remove(checkpoint)
        return ShardedResult(
            elements=0, dtype=resolved_dtype.name, output_path=output_path,
            counters=job.counters_so_far(), shards=[], passes=job.passes,
            input_format=input_format,
        )

    resumed = False
    if resume and checkpoint is not None and os.path.exists(checkpoint):
        job.load_manifest(read_shard_manifest(checkpoint))
        _check_resume_files(job)
        resumed = True
    elif checkpoint is not None and os.path.exists(checkpoint):
        # Same stale-checkpoint rule as the unsharded driver: a fresh
        # start must not leave a previous job's manifest around.
        os.remove(checkpoint)

    if not resumed:
        _preallocate(job.output_path, total_elements * itemsize)
        if job.needs_scratch():
            _preallocate(job.scratch_path, total_elements * itemsize)
        job.write_manifest()

    with ThreadPoolExecutor(max_workers=workers) as executor:
        try:
            _run(job, executor, resumed)
        except BaseException:
            executor.shutdown(wait=True, cancel_futures=True)
            raise

    if checkpoint is not None and os.path.exists(checkpoint):
        os.remove(checkpoint)
    if job.needs_scratch() and os.path.exists(job.scratch_path):
        os.remove(job.scratch_path)
    return ShardedResult(
        elements=total_elements,
        dtype=resolved_dtype.name,
        output_path=output_path,
        counters=job.counters_so_far(),
        shards=list(job.shards),
        passes=job.passes,
        shard_counters=list(job.shard_counters),
        resumed_shards=job.resumed_shards,
        input_format=input_format,
    )


def _preallocate(path: str, nbytes: int) -> None:
    with open(path, "wb") as fh:
        fh.truncate(nbytes)


def _check_resume_files(job: _ShardedJob) -> None:
    expected = job.total_elements * job.itemsize
    paths = [job.output_path]
    if job.needs_scratch():
        paths.append(job.scratch_path)
    for path in paths:
        if not os.path.exists(path):
            raise StreamError(
                f"cannot resume: shard manifest exists but {path!r} does not"
            )
        size = os.path.getsize(path)
        if size != expected:
            raise StreamError(
                f"cannot resume: {path!r} is {size} bytes, the manifest "
                f"expects {expected}; the manifest and files are out of sync"
            )


def _run(job: _ShardedJob, executor, resumed: bool) -> None:
    """Drive the pass/splice/fold pipeline over the shard plan."""
    start_pass = 1 + len(job.completed_passes)
    resumed_into_fold = resumed and job.phase["kind"] == "fold"

    carries = None
    for pass_index in range(1, job.passes + 1):
        if pass_index < start_pass or resumed_into_fold:
            rec = job.completed_passes[pass_index - 1]
            carries = job.splice(rec["aggregates"], rec["baked"])
            continue
        if not (
            resumed
            and job.phase == {"kind": "scan", "pass": pass_index}
        ):
            job.begin_phase({"kind": "scan", "pass": pass_index})
        _run_scan_pass(job, executor, pass_index, carries)
        rec = {
            "aggregates": [row for row in job.aggregates],
            "baked": [bool(flag) for flag in job.baked],
        }
        _splice_none_guard(rec["aggregates"])
        t0 = time.perf_counter()
        carries = job.splice(rec["aggregates"], rec["baked"])
        job.carried.seconds_splice += time.perf_counter() - t0
        job.completed_passes.append(rec)
        resumed = False  # later passes always start from a clean phase

    final = job.completed_passes[job.passes - 1]
    needs_fold = [
        (not final["baked"][i]) or (not job.inclusive)
        for i in range(len(job.shards))
    ]
    if resumed_into_fold:
        fold_done = list(job.done)
    else:
        fold_done = [not need for need in needs_fold]
        job.begin_phase({"kind": "fold"}, done=fold_done, baked_reset=False)
        if not all(fold_done):
            job.write_manifest()
    if all(fold_done):
        return

    # A resumed fold must rebuild unfinished shards first: the fold is
    # an in-place read-modify-write, so a crash mid-fold leaves a mixed
    # region.  The final pass's source file is intact (ping-pong), so
    # re-running the recorded scan reproduces the pre-fold bytes.
    prev_carries = None
    if resumed_into_fold and job.passes >= 2:
        prev_rec = job.completed_passes[job.passes - 2]
        prev_carries = job.splice(prev_rec["aggregates"], prev_rec["baked"])

    futures = {}
    for i in range(len(job.shards)):
        if fold_done[i]:
            continue
        futures[executor.submit(
            _fold_task, job, i, carries, final, prev_carries,
            resumed_into_fold,
        )] = i
    for future in as_completed(futures):
        i = futures[future]
        counters = future.result()
        job.record_completion(i, counters)


def _fold_task(job, shard_index, carries, final, prev_carries, rescan):
    """Phase 3 for one shard.  With ``rescan`` (a resumed fold phase)
    the shard's final scan pass is redone first, from the intact
    source — the crash-recovery path for interrupted in-place folds."""
    carry = carries[shard_index]
    baked = final["baked"][shard_index]
    parts = []
    if rescan:
        fold_carry = _pass_fold_carry(job, job.passes, prev_carries, shard_index)
        prime = carry if baked else None
        _, _, scan_counters = _scan_shard(
            job, job.passes, shard_index, fold_carry, prime, publish=False
        )
        parts.append(scan_counters)
    parts.append(_fold_shard(job, shard_index, carry, do_fold=not baked))
    return StreamCounters.aggregate(parts, engine_used=job._engine_label())


def _pass_fold_carry(job, pass_index, prev_carries, shard_index):
    """The previous pass's carry to fold while *reading* this shard —
    ``None`` for pass 1 and for shards whose previous pass was baked."""
    if pass_index == 1 or prev_carries is None:
        return None
    prev_baked = job.completed_passes[pass_index - 2]["baked"]
    if prev_baked[shard_index]:
        return None
    return prev_carries[shard_index]


def _run_scan_pass(job: _ShardedJob, executor, pass_index, prev_carries) -> None:
    futures = {}
    for i in range(len(job.shards)):
        if job.done[i]:
            continue
        fold_carry = _pass_fold_carry(job, pass_index, prev_carries, i)
        futures[executor.submit(
            _scan_shard, job, pass_index, i, fold_carry, "auto"
        )] = i
    for future in as_completed(futures):
        i = futures[future]
        aggregate, baked, counters = future.result()
        job.record_completion(i, counters, aggregate=aggregate, baked=baked)
