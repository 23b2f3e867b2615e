"""Out-of-core driver: scan files larger than RAM, resumably.

:func:`scan_file` cuts the input into ``chunk_bytes`` pieces, and each
piece costs one read, one scan and one write: the chunk is read with a
seek and one read into one of two chunk slots the job reuses
(:func:`_chunks`), the :class:`ScanSession` scans it in place, and the
sink writes it.  Chunk 0 is read on the calling thread.  When a next
chunk exists, a one-worker prefetch thread reads chunk ``i+1`` into the
other slot while the session (and its inner engine — e.g. the threaded
kernel, whose thread pool stays warm across chunks) scans chunk ``i``;
a one-chunk job starts no thread and maps nothing.  Peak resident
memory is the two chunk slots, whatever the file size.  A file that
shrinks under the job raises :class:`StreamError` on the short read,
before the partial chunk is scanned or written.

Compressed streaming: the input and/or output may be a blocked
``.samb`` container (:mod:`repro.compression.stream`) instead of raw
bytes — ``input_format="blocked"`` (or ``"auto"``, which sniffs the
magic) and ``output_format="blocked"``.  Decode, scan, and encode are
*fused* per chunk: the prefetch thread decodes container blocks
straight into a chunk slot while the calling thread scans the previous
chunk and feeds the scanned values straight into the incremental
container writer — each block is touched once, while hot, and the
bytes crossing the disk are the compressed ones.  Chunk boundaries
are aligned to the least common multiple of the input and output block
sizes so every checkpoint lands on a block boundary; the checkpoint
then records the container cursor alongside the session state, keeping
crash-resume bit-identical in every format combination.

Durability: every ``checkpoint_every`` chunks the scanned output is
fsync'd and the session state is written atomically to the checkpoint
path (see :mod:`repro.stream.checkpoint`).  A job that dies — power
loss, OOM kill, ctrl-C — is re-run with ``resume=True``: the driver
validates the checkpoint against the job's configuration hash and the
input's element count, restores the carry state and counters, truncates
the output back to the durable offset (discarding any bytes written
after the last checkpoint), and continues.  The final output is
bit-identical to an uninterrupted run, which is itself bit-identical to
a one-shot scan.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compression.stream import (
    BlockedFileReader,
    BlockedStreamWriter,
    is_blocked_file,
)
from repro.ops import get_op
from repro.stream.checkpoint import (
    build_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream.counters import StreamCounters
from repro.stream.errors import (
    CheckpointMismatchError,
    InjectedFailureError,
    StreamError,
)
from repro.stream.session import ScanSession

INPUT_FORMATS = ("auto", "raw", "blocked")
OUTPUT_FORMATS = ("raw", "blocked")

#: Default chunk budget: big enough that numpy's per-chunk vector work
#: dominates per-chunk overhead, small enough that double-buffering two
#: chunks is negligible against any realistic RAM.
DEFAULT_CHUNK_BYTES = 16 << 20

#: Checkpoint cadence in chunks (k): one durable flush + atomic state
#: write per k chunks bounds re-done work after a crash to k chunks.
DEFAULT_CHECKPOINT_EVERY = 8

#: Adaptive chunk sizing: grow the chunk while a full
#: read-fold-scan-write cycle stays under the low-water seconds (the
#: per-chunk Python overhead is then a measurable fraction), shrink it
#: past the high-water mark (latency per progress report, and the peak
#: memory of a chunk, stay bounded).  Born in the sharded driver; now
#: shared with the single-session :func:`scan_file`.
ADAPT_LOW_SECONDS = 0.05
ADAPT_HIGH_SECONDS = 0.5
ADAPT_MIN_CHUNK_BYTES = 64 << 10
ADAPT_MAX_CHUNK_BYTES = 256 << 20


class _AdaptiveChunker:
    """Chunk sizing driven by the measured per-chunk phase seconds."""

    def __init__(self, elements, itemsize, enabled, counters):
        self.enabled = enabled
        self.counters = counters
        self.min_elements = max(1, ADAPT_MIN_CHUNK_BYTES // itemsize)
        self.max_elements = max(elements, ADAPT_MAX_CHUNK_BYTES // itemsize)
        self.elements = max(1, int(elements))

    def observe(self, seconds: float) -> None:
        if not self.enabled:
            return
        if seconds < ADAPT_LOW_SECONDS and self.elements < self.max_elements:
            self.elements = min(self.max_elements, self.elements * 2)
            self.counters.chunk_resizes += 1
        elif seconds > ADAPT_HIGH_SECONDS and self.elements > self.min_elements:
            self.elements = max(self.min_elements, self.elements // 2)
            self.counters.chunk_resizes += 1


@dataclass
class StreamResult:
    """Outcome of one :func:`scan_file` job."""

    elements: int
    dtype: str
    output_path: str
    counters: StreamCounters
    resumed_from: int = 0
    input_format: str = "raw"
    output_format: str = "raw"

    @property
    def engine_used(self) -> str:
        return self.counters.engine_used


def _aligned_take(elements: int, align: int, stride: int) -> int:
    """Round a chunk size down to the preferred ``stride`` when it
    fits, else to the required ``align`` (never below one unit)."""
    if stride <= elements:
        return elements - elements % stride
    return max(align, elements - elements % align)


def _read_raw(fh, path: str, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Elements ``[lo, hi)`` of the raw file open as ``fh``, read with a
    seek and one ``readinto`` into the front of ``out`` (a chunk slot
    of :func:`_chunks`); returns that view."""
    chunk = out[: hi - lo]
    fh.seek(lo * chunk.itemsize)
    got = fh.readinto(memoryview(chunk).cast("B"))
    if got != chunk.nbytes:
        raise StreamError(
            f"short read from {path!r}: expected {chunk.nbytes} bytes at "
            f"offset {lo * chunk.itemsize}, got {got} (was the file "
            f"truncated while the job ran?)"
        )
    return chunk


def _chunks(fill, dtype, lo: int, end: int, span, counters, *, reader=None,
            prefetch: bool = True, count_container: bool = True):
    """Yield the chunks of ``[lo, end)``, each ``[pos, span(pos))``
    filled by ``fill(pos, hi, out)``: a raw read or, with ``reader``,
    a ``.samb`` decode (:meth:`BlockedFileReader._read_into`).

    The pass owns two chunk slots, allocated once and grown only when
    a take outgrows them.  With ``prefetch`` a one-worker thread,
    started by the first prefetch (a one-chunk pass starts none),
    fills the other slot with the next chunk while the caller works on
    this one; without, one slot serves every chunk.  A yielded chunk
    is a view into its slot: the caller scans it in place and writes
    it out before asking for the next chunk, and keeps no view of it.
    Each fill's seconds are split into ``counters.seconds_read`` and
    ``seconds_decode``; with ``count_container`` a decoded chunk also
    counts its payload and decoded bytes.
    """
    slots = [np.empty(0, dtype), np.empty(0, dtype)]

    def load(pos, hi, slot):
        if slots[slot].size < hi - pos:
            slots[slot] = np.empty(hi - pos, dtype)
        t0 = time.perf_counter()
        if reader is None:
            chunk = fill(pos, hi, slots[slot])
            return chunk, time.perf_counter() - t0, 0.0, 0
        decode0, payload0 = reader.decode_seconds, reader.payload_bytes_read
        chunk = fill(pos, hi, slots[slot])
        decode = reader.decode_seconds - decode0
        return (chunk, max(0.0, time.perf_counter() - t0 - decode), decode,
                reader.payload_bytes_read - payload0)

    pool = pending = None
    turn = 0
    try:
        while lo < end:
            if pending is None:
                chunk, read, decode, payload = load(lo, span(lo), turn)
            else:
                (chunk, read, decode, payload), turn = pending.result(), 1 - turn
            # Counted as the chunk is taken, so a checkpoint never
            # counts the chunk being prefetched.
            counters.seconds_read += read
            counters.seconds_decode += decode
            if reader is not None and count_container:
                counters.compressed_bytes_in += payload
                counters.decoded_bytes_in += chunk.nbytes
            lo += len(chunk)
            pending = None
            if prefetch and lo < end:
                # The next chunk's size is the one decided before this
                # chunk: adaptive resizing lags one chunk behind.
                pool = pool or ThreadPoolExecutor(max_workers=1)
                pending = pool.submit(load, lo, span(lo), slot=1 - turn)
            yield chunk
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def resolve_input_format(input_path, input_format: str) -> str:
    """``"auto"`` sniffs the blocked-container magic; explicit formats
    pass through (``"blocked"`` is still validated by the reader)."""
    if input_format not in INPUT_FORMATS:
        raise ValueError(
            f"input_format must be one of {INPUT_FORMATS}, got {input_format!r}"
        )
    if input_format == "auto":
        return "blocked" if is_blocked_file(input_path) else "raw"
    return input_format


class _RawOutput:
    """Raw-bytes output sink: plain file writes, fsync on sync."""

    def __init__(self, path: str, resume_offset: int, itemsize: int):
        if resume_offset:
            self.fh = open(path, "r+b")
            self.fh.truncate(resume_offset * itemsize)
            self.fh.seek(resume_offset * itemsize)
        else:
            self.fh = open(path, "wb")

    def write(self, scanned: np.ndarray) -> float:
        # Write the array's buffer directly: tobytes() would copy
        # every scanned chunk a second time on the hot write path.
        if not scanned.flags.c_contiguous:  # pragma: no cover - defensive
            scanned = np.ascontiguousarray(scanned)
        self.fh.write(memoryview(scanned).cast("B"))
        return 0.0

    def sync(self):
        self.fh.flush()
        os.fsync(self.fh.fileno())

    def io_state(self):
        return None

    def finish(self):
        self.sync()

    def close(self):
        self.fh.close()


class _BlockedOutput:
    """Blocked-container output sink: scanned chunks are encoded into
    container blocks as they are produced (the encode half of the fused
    pipeline).  Reports encode seconds and container-byte growth back
    to the caller's counters via :meth:`write`'s return value."""

    def __init__(self, writer: BlockedStreamWriter, counters: StreamCounters):
        self.writer = writer
        self.counters = counters
        self._bytes_seen = writer.container_bytes

    def _account(self) -> float:
        grown = self.writer.container_bytes - self._bytes_seen
        self._bytes_seen = self.writer.container_bytes
        self.counters.compressed_bytes_out += grown
        encode = self.writer.encode_seconds
        self.writer.encode_seconds = 0.0
        self.counters.seconds_encode += encode
        return encode

    def write(self, scanned: np.ndarray) -> float:
        self.writer.feed(scanned)
        return self._account()

    def sync(self):
        self.writer.sync()

    def io_state(self):
        return self.writer.state()

    def finish(self):
        self.writer.finalize()
        self._account()
        # The header+index region reserved ahead of the payloads only
        # becomes real container bytes when finalize fills it in; count
        # it exactly once, here (payload growth is counted per write).
        self.counters.compressed_bytes_out += self.writer.data_offset

    def close(self):
        self.writer.close()


def scan_file(
    input_path,
    output_path,
    *,
    dtype="int32",
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    engine=None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    checkpoint=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
    adaptive_chunks: bool = False,
    threads=None,
    float_mode: Optional[str] = None,
    input_format: str = "auto",
    output_format: str = "raw",
    output_block_elements: Optional[int] = None,
    output_codec_order: Optional[int] = None,
    fail_after_chunks: Optional[int] = None,
) -> StreamResult:
    """Scan a binary file into ``output_path``, out of core.

    Parameters mirror :func:`repro.api.prefix_sum` plus the streaming
    knobs: ``chunk_bytes`` (per-chunk budget), ``checkpoint`` (path for
    durable progress; ``None`` disables), ``checkpoint_every`` (chunks
    between checkpoints), and ``resume`` (continue from an existing
    checkpoint instead of restarting; with no checkpoint file present
    the job simply starts fresh).  ``adaptive_chunks`` enables the
    sharded driver's measured-phase-seconds chunk sizing (off by
    default here: a fixed ``chunk_bytes`` keeps checkpoint cadence and
    chunk counts predictable).  ``threads`` routes per-chunk row-kind
    stage scans through the slab-parallel in-memory kernel
    (``None`` = serial; an int or ``"auto"`` enables it; fused and
    compensated scans stay serial) — results are unchanged either
    way.  ``float_mode`` picks the session's float
    handling (``"exact"``, ``"compensated"``, or ``"regrouped"``; see
    :class:`repro.stream.ScanSession`); ``None`` keeps the default
    bit-exact sequential float path.

    ``input_format`` accepts raw bytes or a blocked ``.samb`` container
    (``"auto"``, the default, sniffs the magic); a blocked input's
    dtype and length come from its header, overriding ``dtype``.
    ``output_format="blocked"`` writes the scanned values as a blocked
    container (``output_block_elements`` elements per block;
    ``output_codec_order=None`` auto-selects the delta order per
    block), fused into the same loop.  ``fail_after_chunks`` is a
    test-only hook that aborts the job after N chunks to exercise
    resumption.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(
            f"output_format must be one of {OUTPUT_FORMATS}, got {output_format!r}"
        )
    input_path = os.fspath(input_path)
    output_path = os.fspath(output_path)
    input_format = resolve_input_format(input_path, input_format)

    resolved_op = get_op(op)
    reader = None
    if input_format == "blocked":
        reader = BlockedFileReader(input_path)
        # The container header is authoritative for the input's dtype
        # and element count; ``dtype`` only applies to raw inputs.
        resolved_dtype = resolved_op.check_dtype(reader.dtype)
        itemsize = resolved_dtype.itemsize
        total_elements = reader.count
        in_block = reader.block_elements
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
        in_block = 1

    out_block = 1
    codec_tuple = tuple_size if 1 <= tuple_size <= 255 else 1
    if output_format == "blocked":
        if resolved_dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            raise ValueError(
                f"blocked output supports int32/int64, not {resolved_dtype}"
            )
        from repro.compression.blocked import align_block_elements

        out_block = align_block_elements(
            int(output_block_elements or 65536), codec_tuple
        )

    # Chunk ends must align to the *output* block size so the writer's
    # tail buffer is empty whenever a checkpoint lands (the reader can
    # seek to any element, so input blocks impose no requirement —
    # aligning to their lcm as well is purely an efficiency preference,
    # taken only when it fits in the chunk budget, since it stops
    # adjacent chunks from decoding a shared input block twice).
    align = out_block
    stride = math.lcm(in_block, out_block)
    chunk_elements = _aligned_take(
        max(1, int(chunk_bytes) // itemsize), align, stride
    )

    session = ScanSession(
        op=resolved_op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        dtype=resolved_dtype,
        engine=engine,
        threads=threads,
        float_mode=float_mode,
    )

    start_elements = 0
    writer_state = None
    if resume and checkpoint is not None and os.path.exists(checkpoint):
        start_elements, writer_state = _restore(
            session, checkpoint, total_elements, output_path,
            input_format=input_format, output_format=output_format,
            align=align, out_block=out_block,
        )
    elif checkpoint is not None and os.path.exists(checkpoint):
        # Starting fresh: a leftover checkpoint from a previous job must
        # not survive, or a later crash + resume would restore a stale
        # offset against this job's output and corrupt it silently.
        os.remove(checkpoint)
    counters = session.counters

    if output_format == "blocked":
        if start_elements:
            writer = BlockedStreamWriter.resume(
                output_path, dtype=resolved_dtype, total_count=total_elements,
                state=writer_state, tuple_size=codec_tuple,
                block_elements=out_block, order=output_codec_order,
            )
        else:
            writer = BlockedStreamWriter(
                output_path, dtype=resolved_dtype, total_count=total_elements,
                tuple_size=codec_tuple, block_elements=out_block,
                order=output_codec_order,
            )
        sink = _BlockedOutput(writer, counters)
    else:
        sink = _RawOutput(output_path, start_elements, itemsize)

    io_record = None
    if input_format == "blocked" or output_format == "blocked":
        io_record = {
            "input_format": input_format,
            "output_format": output_format,
        }
        if input_format == "blocked":
            io_record["input_block_elements"] = in_block
        if output_format == "blocked":
            io_record["output_block_elements"] = out_block

    # Not a memmap: each chunk is read (or decoded) into one of two
    # slots the job reuses, which the session then scans in place.
    source = open(input_path, "rb") if reader is None else None
    chunker = _AdaptiveChunker(chunk_elements, itemsize, adaptive_chunks, counters)
    chunks = _chunks(
        reader._read_into if reader is not None
        else functools.partial(_read_raw, source, input_path),
        resolved_dtype, start_elements, total_elements,
        lambda pos: min(pos + _aligned_take(chunker.elements, align, stride),
                        total_elements),
        counters, reader=reader,
    )
    position = start_elements
    chunks_done = 0
    since_checkpoint = 0

    try:
        t_chunk = time.perf_counter()
        for chunk in chunks:
            scanned = session._feed(chunk, own=True)
            t0 = time.perf_counter()
            encode_seconds = sink.write(scanned)
            counters.seconds_write += time.perf_counter() - t0 - encode_seconds
            counters.bytes_out += scanned.nbytes
            chunker.observe(time.perf_counter() - t_chunk)
            position += len(chunk)
            chunks_done += 1
            since_checkpoint += 1
            if (
                checkpoint is not None
                and since_checkpoint >= checkpoint_every
                and position < total_elements
            ):
                _checkpoint(session, checkpoint, total_elements, sink, io_record)
                since_checkpoint = 0
            if (
                fail_after_chunks is not None
                and chunks_done >= fail_after_chunks
                and position < total_elements
            ):
                raise InjectedFailureError(
                    f"injected failure after {chunks_done} chunks "
                    f"(element {position} of {total_elements})"
                )
            t_chunk = time.perf_counter()
        t0 = time.perf_counter()
        sink.finish()
        counters.seconds_write += time.perf_counter() - t0
    finally:
        sink.close()
        chunks.close()
        if reader is not None:
            reader.close()
        if source is not None:
            source.close()

    if checkpoint is not None and os.path.exists(checkpoint):
        os.remove(checkpoint)  # the job is complete; nothing to resume
    return StreamResult(
        elements=total_elements,
        dtype=resolved_dtype.name,
        output_path=output_path,
        counters=counters,
        resumed_from=start_elements,
        input_format=input_format,
        output_format=output_format,
    )


def _checkpoint(
    session: ScanSession, path, total_elements: int, sink, io_record
) -> None:
    """Make all output durable, then atomically persist the state."""
    t0 = time.perf_counter()
    sink.sync()
    session.counters.checkpoint_writes += 1  # count the write being persisted
    io = None
    if io_record is not None:
        io = dict(io_record)
        writer_state = sink.io_state()
        if writer_state is not None:
            io["writer"] = writer_state
    payload = build_checkpoint(
        session.state_dict(), total_elements, session.counters.as_dict(), io=io
    )
    write_checkpoint(path, payload)
    session.counters.seconds_checkpoint += time.perf_counter() - t0


def _restore(
    session: ScanSession,
    checkpoint,
    total_elements: int,
    output_path: str,
    *,
    input_format: str = "raw",
    output_format: str = "raw",
    align: int = 1,
    out_block: int = 1,
):
    """Load a checkpoint into ``session``; returns the resume offset
    and the blocked writer's cursor (``None`` for raw output)."""
    payload = read_checkpoint(checkpoint)
    state = payload["session"]
    if state["config_hash"] != session.config_hash():
        # Delegate to load_state_dict for the detailed per-key diff.
        session.load_state_dict(state)
        raise CheckpointMismatchError(  # pragma: no cover - diff raised above
            f"checkpoint {checkpoint!r} belongs to a different configuration"
        )
    if payload["input_elements"] != total_elements:
        raise CheckpointMismatchError(
            f"checkpoint {checkpoint!r} was taken against an input of "
            f"{payload['input_elements']} elements; this input has "
            f"{total_elements}"
        )
    io = payload.get("io") or {}
    stored_in = io.get("input_format", "raw")
    stored_out = io.get("output_format", "raw")
    if stored_in != input_format or stored_out != output_format:
        raise CheckpointMismatchError(
            f"checkpoint {checkpoint!r} was taken with formats "
            f"{stored_in}->{stored_out}; this job runs "
            f"{input_format}->{output_format}"
        )
    session.load_state_dict(state)
    restored = StreamCounters.from_dict(payload.get("counters", {}))
    restored.resumes += 1
    restored.engine_used = session.counters.engine_used
    session.counters = restored
    offset = session.offset
    if offset % align:
        raise CheckpointMismatchError(
            f"checkpoint offset {offset} is not aligned to the container "
            f"block size {align}; the checkpoint belongs to a different "
            f"container geometry"
        )
    writer_state = None
    if output_format == "blocked":
        stored_block = io.get("output_block_elements")
        if stored_block is not None and stored_block != out_block:
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint!r} wrote {stored_block}-element "
                f"output blocks; this job is configured for {out_block}"
            )
        writer_state = io.get("writer")
        if offset and not isinstance(writer_state, dict):
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint!r} lacks the blocked writer cursor"
            )
        if offset and writer_state.get("blocks_written") != offset // out_block:
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint!r} writer cursor "
                f"({writer_state.get('blocks_written')} blocks) disagrees "
                f"with the session offset ({offset} elements)"
            )
        if not offset:
            writer_state = None
    if offset and not os.path.exists(output_path):
        raise StreamError(
            f"cannot resume: checkpoint says {offset} elements are done "
            f"but output file {output_path!r} does not exist"
        )
    if (
        offset
        and output_format == "raw"
        and os.path.getsize(output_path) < offset * session.dtype.itemsize
    ):
        raise StreamError(
            f"cannot resume: output file {output_path!r} is shorter than "
            f"the checkpointed offset ({offset} elements); the checkpoint "
            f"and output are out of sync"
        )
    return offset, writer_state
