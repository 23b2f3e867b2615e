"""Sharded out-of-core scans: the carry splice across *space*.

:func:`scan_file_sharded` is the host-scale analogue of SAM's two-level
carry propagation.  Where :func:`repro.stream.scan_file` proves that
one pass plus O(1) carry state suffices across *time* (chunks of one
stream), this driver proves it across *space*: the input is cut into
``S`` contiguous shards, each shard is scanned independently (phase 1),
the per-order, per-tuple-lane shard aggregates are spliced by a tiny
exclusive scan on the host (phase 2 — the same second-level scan
LightScan and the SIMD partition scans use), and each shard folds its
spliced carry into its output region (phase 3).  Higher orders iterate
the three phases exactly as SAM iterates only the computation stage:
order ``q`` runs ``q`` scan passes with a splice between passes —
*except* inside the fused gate (:func:`repro.kernels.fused_supported`:
integer ADD, ``q >= 2``, ``s >= 2``), where each shard runs the
single-pass fused tile kernel instead, its aggregate grows to the full
``(q, s)`` order-total matrix, the splice chains those matrices with
the binomial identity (:func:`repro.kernels.fused_combine`), and the
fold applies the spliced matrix with binomial weight columns.  One
pass over the data instead of ``q``, no scratch file, bit-identical
output.

Two properties keep the driver fast where plain three-phase scans are
not:

* **Carry priming.**  A shard whose predecessors have all finished the
  current pass learns its spliced carry *before* scanning, bakes it
  into the scan directly, and skips its fold entirely.  With one
  worker every shard is primed and the job degenerates to a single
  pass — the same degeneration decoupled lookback exhibits when blocks
  run in order.
* **A lean integer kernel.**  Fixed-width integer arithmetic is truly
  associative (wraparound included), so shard passes accumulate each
  lane *in place* and fold the running carry in place — none of the
  prepend copies the bit-exact float path needs.  The kernel is the
  shared :class:`repro.kernels.LaneKernel` (born here as a private
  class, now the layer every engine's host path calls).

Bit-identity: for integer dtypes the output is bit-identical to the
one-shot host scan for every op / order / tuple size, inclusive and
exclusive.  Floats are only pseudo-associative, so they pick one of
three ``float_mode`` contracts: ``"exact"`` (the default — fall back
to the sequential bit-exact session path), ``"regrouped"`` (shard
anyway and accept carry-fold rounding), or ``"compensated"`` — shard
on the fixed segment grid of :mod:`repro.kernels.compensated`, collect
per-segment ``(T, F)`` totals in the scan pass, replay the global
double-double chain as the splice, and render in the fold pass.
Compensated results are bit-identical for every shard count *and*
more accurate than the serial naive fold (the per-step rounding errors
are recovered exactly and re-injected).

One shard loop: every pass over a shard — the scan pass and the fold
pass of every carry kind — is :func:`_shard_pass`, which reads the
shard's region chunk by chunk, applies the pass's step, and writes the
result back to the same region.  Raw chunks are read the way
:func:`repro.stream.scan_file` reads them (a seek and one ``readinto``
into a fresh array), so a file that is shorter than the job expects
raises :class:`StreamError` naming it instead of scanning zeros.

Durability: progress is tracked in a **per-shard manifest** (see
:mod:`repro.stream.checkpoint`).  Passes ping-pong between the output
file and a scratch file so the source of every pass stays intact;
a killed job re-runs only its unfinished shards under ``resume=True``
(an interrupted in-place fold is rebuilt by re-scanning that shard
from the intact pass source, then folding again).
"""

from __future__ import annotations

import base64
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
from repro.kernels import LaneKernel, ThreadedLaneKernel, resolve_threads
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


# -- the splice ----------------------------------------------------------


def _splice(job, aggregates, baked) -> np.ndarray:
    """Phase 2: exclusive scan of shard aggregates, per tuple lane.

    Returns ``carries[i]`` — the absolute carry at shard ``i``'s start
    for the current pass, for ``len(aggregates)`` leading shards.  A
    carry is a ``(s,)`` row classically and the ``(q, s)`` order-total
    matrix in fused mode, where the combine is the binomial splice
    identity (:func:`repro.kernels.fused_combine`) with the shard's
    *per-lane* element counts — shard bounds are arbitrary, so lanes
    differ by at most one element.  Lanes a shard does not touch keep
    the running value.  Baked shards report absolute aggregates (their
    carry is already inside), so they *reset* the running value instead
    of combining into it.  A trailing ``None`` aggregate is allowed
    (``try_prime`` only needs the carry *at* that shard).
    """
    s = job.tuple_size
    shape = (job.order, s) if job.fused else (s,)
    running = np.full(shape, job.op.identity(job.dtype), dtype=job.dtype)
    carries = np.empty((len(aggregates), *shape), dtype=job.dtype)
    for i, (lo, hi) in enumerate(job.shards[: len(aggregates)]):
        carries[i] = running
        agg = aggregates[i]
        counts = _lane_counts(lo, hi, s)
        present = counts > 0
        if agg is None or not present.any():
            continue
        if baked[i]:
            running = np.where(present, agg, running)
        elif job.fused:
            running = kernels.fused_combine(running, agg, counts)
        else:
            seen = _seen_before(lo, s)
            combined = np.where(seen, job.op.apply(running, agg), agg)
            running = np.where(present, combined, running)
    return carries


def _splice_compensated(job, aggregates) -> list:
    """Phase 2 in compensated mode: replay the double-double chain.

    Concatenates every shard's ``(K_i, 2, s)`` segment totals in shard
    order and replays the global ``dd_add`` chain over them — the
    canonical order, so the result is bit-identical for any shard
    count.  Returns ``carries[i] = (chain_i, head_i)``: the shard's
    slice of per-segment ``(H, G)`` chain states (what its fold kernel
    renders with) and the *rendered* per-lane running totals at its
    start (the exclusive-shift heads; ``None`` for shard 0).
    """
    from repro.kernels.compensated import HI, LO, _dd_render

    s = job.tuple_size
    dtype = job.dtype
    span = kernels.segment_span(s)
    stacks = [np.asarray(agg) for agg in aggregates]
    totals = (
        np.concatenate(stacks)
        if stacks
        else np.empty((0, 2, s), dtype=dtype)
    )
    state = kernels.fresh_state(dtype, s)
    chain_hi, chain_lo, _, _ = kernels.chain_segments(
        state[HI], state[LO], totals[:, 0], totals[:, 1]
    )
    carries = []
    head = None  # shard 0 has no seen lanes
    k = 0
    for lo, hi in job.shards:
        segments = -(-(hi - lo) // span)
        chain = np.stack(
            [chain_hi[k : k + segments], chain_lo[k : k + segments]], axis=1
        )
        carries.append((chain, head))
        if segments:
            # The next shard's heads are this shard's rendered last row
            # per lane: its final segment's totals under that segment's
            # chain state (shard bounds are segment-aligned, so the
            # final segment of an interior shard is always complete).
            last = k + segments - 1
            head = np.empty(s, dtype=dtype)
            _dd_render(
                totals[last, 0], totals[last, 1],
                chain_hi[last], chain_lo[last], head,
            )
        k += segments
    return carries


def _job_splice(job, aggregates, baked):
    """Dispatch phase 2 on the job's mode."""
    if job.float_mode == "compensated":
        return _splice_compensated(job, aggregates)
    return _splice(job, aggregates, baked)


# -- manifest encoding ---------------------------------------------------


def _encode_aggregate(aggregate: np.ndarray) -> str:
    return base64.b64encode(aggregate.tobytes()).decode("ascii")


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
        #: ``"compensated"`` routes the scan/splice/fold phases through
        #: the error-free-carry kernels; ``None`` is the classic
        #: regrouping driver (integers, and regrouped floats).
        self.float_mode = float_mode
        #: Fused order-q mode: one scan pass with ``(q, s)`` aggregates
        #: instead of ``order`` passes with one carry row each.
        self.fused = bool(fused)
        self.passes = 1 if self.fused else order
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
                None if row is None else _encode_aggregate(row)
                for row in self.aggregates
            ],
            "completed_passes": [
                {
                    "aggregates": [_encode_aggregate(r) for r in rec["aggregates"]],
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
        # of the on-disk layout, unlike chunk size or engine.
        self.shards = [(int(lo), int(hi)) for lo, hi in payload["shards"]]
        state = payload["state"]
        self.phase = dict(state["phase"])
        self.done = list(state["done"])
        self.baked = list(state["baked"])
        self.aggregates = [
            None if row is None else self._decode_aggregate(row, i)
            for i, row in enumerate(state["aggregates"])
        ]
        self.completed_passes = [
            {
                "aggregates": [
                    self._decode_aggregate(r, i)
                    for i, r in enumerate(rec["aggregates"])
                ],
                "baked": list(rec["baked"]),
            }
            for rec in state["completed_passes"]
        ]
        self.carried = StreamCounters.from_dict(state.get("counters", {}))
        self.carried.engine_used = self._engine_label()
        self.carried.resumes += 1
        self.resumed_shards = sum(bool(flag) for flag in self.done)

    def _decode_aggregate(self, blob: str, shard_index: int) -> np.ndarray:
        """Decode one manifest aggregate: a ``(tuple_size,)`` carry row
        classically, an ``(order, tuple_size)`` order-total matrix in
        fused mode, a ``(K, 2, tuple_size)`` segment-totals stack in
        compensated mode (``K`` derives from the stored shard bounds,
        so :meth:`load_manifest` restores ``self.shards`` first)."""
        s = self.tuple_size
        if self.fused:
            shape, what = (self.order, s), f"an ({self.order}, {s}) matrix"
        elif self.float_mode == "compensated":
            lo, hi = self.shards[shard_index]
            segments = -(-(hi - lo) // kernels.segment_span(s))
            shape, what = (segments, 2, s), f"{segments} segment totals"
        else:
            shape, what = (s,), f"a {s}-lane carry row"
        raw = base64.b64decode(blob)
        expected = int(np.prod(shape)) * self.itemsize
        if len(raw) != expected:
            raise StreamError(
                f"manifest aggregate for shard {shard_index} is {len(raw)} "
                f"bytes, expected {expected} ({what})"
            )
        return np.frombuffer(raw, dtype=self.dtype).reshape(shape).copy()

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
            carries = _splice(
                self,
                self.aggregates[:shard_index] + [None],
                self.baked[:shard_index] + [False],
            )
            return carries[shard_index]

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
    if job.float_mode == "compensated":
        # Naive continuation + segment-totals collection; the render
        # happens in the fold pass once the global chain exists.  The
        # kernel is serial per shard (the shard plan itself is the
        # parallelism; whole-segment slab threading belongs to the
        # in-memory path).
        kernel = kernels.CompensatedCollectKernel(op, dtype, s, start=lo)
    elif job.engine is not None and dtype.kind in "iu":
        # A named engine is built per shard ("host" resolves to the
        # plain kernel); feeds are serialized across shard threads.
        from repro.api import resolve_engine

        kernel = LaneKernel(
            op, dtype, s, start=lo, prime=prime,
            engine=resolve_engine(job.engine),
        )
        lock = _DELEGATE_LOCK
    elif job.shard_threads > 1:
        # Slab-parallel intra-chunk scans under the shard pool.  The
        # per-shard thread budget already divides the caller's total by
        # the worker count (the combined-oversubscription guard), so
        # shards × threads never exceeds what was asked for.
        kernel = ThreadedLaneKernel(
            op, dtype, s, start=lo, prime=prime, exact=False,
            threads=job.shard_threads, order=kernel_order,
        )
        counters.threaded_scans += 1
    else:
        # The shared in-place kernel (repro.kernels); exact=False is the
        # sharded contract — bit-exact for integers, carry-fold rounding
        # for floats (which only get here under float_mode="regrouped").
        kernel = LaneKernel(
            op, dtype, s, start=lo, prime=prime, exact=False,
            order=kernel_order,
        )
    seen = _seen_before(lo, s)

    def step(chunk, pos):
        t0 = time.perf_counter()
        if fold_carry is not None:
            kernels.fold_lanes(
                chunk, op, fold_carry, pos=pos, tuple_size=s, seen=seen
            )
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
    counters.delegated_stage_scans += kernel.delegated_stage_scans
    if job.fused:
        counters.fused_order_scans += 1
    if job.float_mode == "compensated":
        aggregate = kernel.segment_totals()
    else:
        aggregate = (kernel.carry if job.fused else kernel.carry[0]).copy()
    if publish:
        with job.lock:
            job.done[shard_index] = True
            job.aggregates[shard_index] = aggregate
            job.baked[shard_index] = baked
    return aggregate, baked, counters


def _fold_shard(job: _ShardedJob, shard_index, carry, do_fold):
    """Phase 3 for one shard: fold the spliced carry into the output
    region in place (and lane-shift it when the scan is exclusive).

    Each carry kind supplies only its transform:

    * a plain ``(s,)`` row folds with :func:`repro.kernels.fold_lanes`;
    * a fused ``(q, s)`` matrix: a carry ``T_j`` entering the shard
      contributes ``C(d + q - j, q - j) * T_j`` to the order-``q`` value
      at local lane depth ``d`` (:func:`repro.kernels.fused_fold`),
      so the fold is ``q`` weighted rank-1 updates per row-aligned
      chunk, columns in the shard's lane permutation ``phase_perm(lo)``
      — exact mod ``2**w``, since the fused gate admits only integer
      ADD;
    * compensated is the render pass: it re-reads the raw values from
      the input, re-derives the exact per-step errors (``two_sum_err``
      needs only ``prev + x -> L``, all on disk) and renders with the
      spliced per-segment chain.  It runs for *every* shard — even
      shard 0's carry-free region needs its local compensation
      re-injected — which is why compensated shards never bake or
      prime.
    """
    lo, hi = job.shards[shard_index]
    op, dtype, s, q = job.op, job.dtype, job.tuple_size, job.order
    counters = StreamCounters(engine_used=job._engine_label())
    identity = op.identity(dtype)
    seen = _seen_before(lo, s)
    step = None
    raw_fh = None
    if job.float_mode == "compensated":
        chain, head = carry  # head is None only for shard 0: no seen lanes
        last_row = identity if head is None else head
        kernel = kernels.CompensatedFoldKernel(dtype, s, lo, chain)
        raw_fh = open(job.input_path, "rb")

        def step(chunk, pos):
            end = pos + len(chunk)
            return kernel.fold(
                chunk, _read_raw(raw_fh, job.input_path, dtype, pos, end)
            )
    elif job.fused:
        last_row = carry[q - 1]  # exclusive heads: the order-q totals
        local = np.ascontiguousarray(carry[:, kernels.phase_perm(lo, s)])
        if do_fold and local.any():

            def step(chunk, pos):
                return kernels.fused_fold(chunk, local, d0=(pos - lo) // s)
    else:
        last_row = carry
        if do_fold:

            def step(chunk, pos):
                kernels.fold_lanes(
                    chunk, op, carry, pos=pos, tuple_size=s, seen=seen
                )
                return chunk
    heads = np.where(seen, last_row, identity).astype(dtype)
    try:
        _shard_pass(
            job, shard_index, counters, job.output_path, job.output_path,
            step, heads=heads, rows=job.fused,
        )
    finally:
        if raw_fh is not None:
            raw_fh.close()
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
    scan pass: each shard's fused tile kernel produces all ``q`` orders
    in one sweep, aggregates are ``(order, tuple_size)`` matrices
    spliced with the binomial identity, and the fold applies binomial
    weight columns — bit-identical to the ``q``-pass layout, with no
    scratch file and ``ShardedResult.passes == 1``.

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
            carries = _job_splice(job, rec["aggregates"], rec["baked"])
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
        carries = _job_splice(job, rec["aggregates"], rec["baked"])
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
        prev_carries = _job_splice(job, prev_rec["aggregates"], prev_rec["baked"])

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
