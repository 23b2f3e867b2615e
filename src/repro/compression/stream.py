"""Streaming access to blocked (.samb) containers on disk.

The in-memory :class:`~repro.compression.blocked.BlockedDeltaCodec`
round-trips whole containers; the stream layer needs the same format
without ever materializing it.  Two halves:

:class:`BlockedFileReader`
    Parses the header and index up front (a few bytes per block), then
    serves random-access element ranges by decoding only the covering
    blocks — block payload offsets are an exclusive prefix sum over the
    index, so any range is one seek away.  Shards and resumed jobs both
    lean on this.

:class:`BlockedStreamWriter`
    Writes a container incrementally while the element count is known
    up front (a scan's output length equals its input length): the
    header+index region is reserved, payloads append sequentially, and
    index entries backfill as blocks complete.  The header — whose CRC
    covers the whole index — is written *last*, by :meth:`finalize`, so
    a crashed writer leaves a file that fails validation cleanly rather
    than one that parses to wrong values.  :meth:`state` /
    :meth:`resume` round-trip the write cursor through checkpoints;
    per-block encoding is deterministic, so a resumed job re-encodes
    its tail and lands bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compression.blocked import (
    HEADER_BYTES,
    INDEX_ENTRY_BYTES,
    MAGIC,
    align_block_elements,
    decode_block_payload,
    pack_header,
    pack_index_entry,
    parse_header_bytes,
    parse_index_bytes,
)
from repro.compression.codec import CodecError, _encode_residuals

__all__ = [
    "BlockedFileReader",
    "BlockedIndex",
    "BlockedStreamWriter",
    "is_blocked_file",
    "read_index",
]


def is_blocked_file(path) -> bool:
    """True when ``path`` starts with the blocked-container magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


@dataclass
class BlockedIndex:
    """The parsed header+index of a blocked container — cheap to share
    across threads so each reader re-opens the file but not the
    metadata."""

    dtype: np.dtype
    tuple_size: int
    block_elements: int
    count: int
    payload_sizes: List[int]
    orders: List[int]
    payload_crcs: List[int]
    container_bytes: int

    @property
    def num_blocks(self) -> int:
        return len(self.payload_sizes)

    def block_offsets(self) -> np.ndarray:
        sizes = np.asarray(self.payload_sizes, dtype=np.int64)
        base = HEADER_BYTES + INDEX_ENTRY_BYTES * self.num_blocks
        return base + np.concatenate([[0], np.cumsum(sizes)[:-1]])


def read_index(path) -> BlockedIndex:
    """Parse and validate a container's header+index from disk."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
        fields = parse_header_bytes(header)
        num_blocks = fields["num_blocks"]
        index = fh.read(INDEX_ENTRY_BYTES * num_blocks)
        sizes, orders, crcs = parse_index_bytes(
            index, num_blocks, fields["index_crc"]
        )
        fh.seek(0, os.SEEK_END)
        file_bytes = fh.tell()
    expected = HEADER_BYTES + INDEX_ENTRY_BYTES * num_blocks + sum(sizes)
    if file_bytes != expected:
        raise CodecError(
            f"container is {file_bytes} bytes, index implies {expected}"
        )
    return BlockedIndex(
        dtype=fields["dtype"],
        tuple_size=fields["tuple_size"],
        block_elements=fields["block_elements"],
        count=fields["count"],
        payload_sizes=sizes,
        orders=orders,
        payload_crcs=crcs,
        container_bytes=file_bytes,
    )


class BlockedFileReader:
    """Random-access reader over a blocked container file.

    ``index`` lets callers share one parsed :class:`BlockedIndex`
    across several readers (e.g. one per shard task) instead of
    re-validating the metadata per open.  ``payload_bytes_read`` and
    ``decode_seconds`` accumulate across calls so drivers can report
    compressed IO and decode time separately from raw IO.

    Blocks decode straight into the caller's memory: every block lying
    wholly inside a range decodes into its slice of the destination.
    Only a block the range cuts goes through a one-block cache, so a
    block shared by two adjacent ranges is read and decoded once.
    """

    def __init__(self, path, decode_engine=None, index: Optional[BlockedIndex] = None):
        self.path = os.fspath(path)
        self.index = index if index is not None else read_index(self.path)
        self.decode_engine = decode_engine
        self._offsets = self.index.block_offsets()
        self._fh = open(self.path, "rb")
        self.payload_bytes_read = 0
        self.decode_seconds = 0.0
        # The one-block cache of a cut block: chunk budgets smaller than
        # a block would otherwise re-read and re-decode it once per
        # chunk.
        self._cache_block = -1
        self._cache_values: Optional[np.ndarray] = None

    # -- metadata passthrough -------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.index.dtype)

    @property
    def count(self) -> int:
        return self.index.count

    @property
    def block_elements(self) -> int:
        return self.index.block_elements

    @property
    def num_blocks(self) -> int:
        return self.index.num_blocks

    @property
    def container_bytes(self) -> int:
        return self.index.container_bytes

    def ratio(self) -> float:
        return (self.count * self.dtype.itemsize) / max(1, self.container_bytes)

    # -- access ----------------------------------------------------------

    def _block_count(self, block: int) -> int:
        return min(
            self.index.block_elements,
            self.index.count - block * self.index.block_elements,
        )

    def _decode(self, block: int, out=None) -> np.ndarray:
        """Read and decode one block, into ``out`` when given."""
        self._fh.seek(int(self._offsets[block]))
        size = self.index.payload_sizes[block]
        payload = self._fh.read(size)
        if len(payload) != size:
            raise CodecError("container truncated under reader")
        self.payload_bytes_read += size
        start = time.perf_counter()
        values = decode_block_payload(
            payload,
            count=self._block_count(block),
            dtype=self.index.dtype,
            order=self.index.orders[block],
            tuple_size=self.index.tuple_size,
            payload_crc=self.index.payload_crcs[block],
            block_index=block,
            decode_engine=self.decode_engine,
            out=out,
        )
        self.decode_seconds += time.perf_counter() - start
        return values

    def _block_values(self, block: int) -> np.ndarray:
        """Decoded values of one block through the one-block cache.

        The returned array is the cache's own storage — callers must
        copy before mutating (:meth:`read_block` / :meth:`_read_into`
        do)."""
        if block != self._cache_block:
            self._cache_values = self._decode(block)
            self._cache_block = block
        return self._cache_values

    def read_block(self, block: int) -> np.ndarray:
        """Decode one block (random access)."""
        if not 0 <= block < self.num_blocks:
            raise CodecError(
                f"block index {block} out of range [0, {self.num_blocks})"
            )
        return self._block_values(block).copy()

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Decode elements ``[lo, hi)`` into a fresh array the caller
        owns and may scan in place."""
        lo, hi = int(lo), int(hi)
        return self._read_into(lo, hi, np.empty(max(0, hi - lo), self.dtype))

    def _read_into(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Decode elements ``[lo, hi)`` into the front of ``out`` and
        return that view: each block wholly inside the range decodes
        straight into its slice, a cut block is copied from the cache.
        After a :class:`CodecError` the contents of ``out`` are
        unspecified."""
        if not 0 <= lo <= hi <= self.count:
            raise CodecError(
                f"element range [{lo}, {hi}) outside [0, {self.count})"
            )
        be = self.index.block_elements
        for block in range(lo // be, -(-hi // be) if lo < hi else 0):
            b_lo = block * be
            b_hi = b_lo + self._block_count(block)
            a, b = max(lo, b_lo), min(hi, b_hi)
            if (a, b) == (b_lo, b_hi) and block != self._cache_block:
                self._decode(block, out[a - lo : b - lo])
            else:
                out[a - lo : b - lo] = self._block_values(block)[a - b_lo : b - b_lo]
        return out[: hi - lo]

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class BlockedStreamWriter:
    """Incremental blocked-container writer for a known element count.

    Payloads stream sequentially after a reserved header+index region;
    completed index entries backfill on :meth:`sync` (before the
    driver's checkpoints) and the header lands only in
    :meth:`finalize`.  ``state`` captures the write cursor —
    ``(blocks_written, payload_pos)`` — which with deterministic
    per-block encoding is everything :meth:`resume` needs to continue
    bit-identically after a crash, even a SIGKILL mid-write: entries
    past the cursor are simply re-encoded and overwritten.
    """

    def __init__(
        self,
        path,
        *,
        dtype,
        total_count: int,
        tuple_size: int = 1,
        block_elements: int = 65536,
        order: Optional[int] = None,
        _resume: Optional[Tuple[int, int]] = None,
    ):
        self.path = os.fspath(path)
        self.dtype = np.dtype(dtype)
        self.total_count = int(total_count)
        if not 1 <= tuple_size <= 255:
            raise CodecError(f"tuple_size must be in [1, 255], got {tuple_size}")
        self.tuple_size = tuple_size
        self.block_elements = align_block_elements(int(block_elements), tuple_size)
        self.order = order
        self.num_blocks = (
            -(-self.total_count // self.block_elements) if self.total_count else 0
        )
        self._data_offset = HEADER_BYTES + INDEX_ENTRY_BYTES * self.num_blocks
        self._entries: List[bytes] = []  # packed index entries, in order
        self._entries_synced = 0
        # The buffered tail, always the writer's own copy (under a block).
        self._pending = np.empty(0, self.dtype)
        self._elements_fed = 0
        self.encode_seconds = 0.0
        self._finalized = False

        if _resume is None:
            self._fh = open(self.path, "wb")
            self._fh.write(b"\x00" * self._data_offset)
            self._payload_pos = self._data_offset
        else:
            blocks_written, payload_pos = _resume
            if not 0 <= blocks_written <= self.num_blocks:
                raise CodecError(
                    f"resume cursor {blocks_written} outside "
                    f"[0, {self.num_blocks}] blocks"
                )
            if payload_pos < self._data_offset:
                raise CodecError("resume payload position inside the index")
            if os.path.getsize(self.path) < payload_pos:
                raise CodecError(
                    "output container shorter than its resume cursor"
                )
            self._fh = open(self.path, "r+b")
            # Re-read the entries persisted before the checkpoint; the
            # rest of the index region is stale and will be rewritten.
            self._fh.seek(HEADER_BYTES)
            index = self._fh.read(INDEX_ENTRY_BYTES * blocks_written)
            if len(index) != INDEX_ENTRY_BYTES * blocks_written:
                raise CodecError("output container index truncated")
            for i in range(blocks_written):
                self._entries.append(
                    index[i * INDEX_ENTRY_BYTES : (i + 1) * INDEX_ENTRY_BYTES]
                )
            self._entries_synced = blocks_written
            self._fh.truncate(payload_pos)
            self._payload_pos = payload_pos
            self._fh.seek(payload_pos)
            self._elements_fed = min(
                blocks_written * self.block_elements, self.total_count
            )

    # -- accounting ------------------------------------------------------

    @property
    def blocks_written(self) -> int:
        return len(self._entries)

    @property
    def data_offset(self) -> int:
        """Bytes reserved for the header + index ahead of the payloads."""
        return self._data_offset

    @property
    def elements_written(self) -> int:
        """Elements durably encoded into blocks (excludes the pending
        tail buffer)."""
        done = self.blocks_written * self.block_elements
        return min(done, self.total_count)

    @property
    def container_bytes(self) -> int:
        return self._payload_pos

    def state(self) -> dict:
        """Checkpointable write cursor.  Only valid while the pending
        buffer is empty — the stream driver aligns its chunks to the
        writer's block size precisely so checkpoints land here."""
        if self._pending.size:
            raise CodecError(
                f"writer has {self._pending.size} buffered elements; "
                "checkpoints must land on block boundaries"
            )
        return {
            "blocks_written": self.blocks_written,
            "payload_pos": self._payload_pos,
        }

    @classmethod
    def resume(cls, path, *, dtype, total_count, state: dict,
               tuple_size: int = 1, block_elements: int = 65536,
               order: Optional[int] = None) -> "BlockedStreamWriter":
        return cls(
            path,
            dtype=dtype,
            total_count=total_count,
            tuple_size=tuple_size,
            block_elements=block_elements,
            order=order,
            _resume=(int(state["blocks_written"]), int(state["payload_pos"])),
        )

    # -- writing ---------------------------------------------------------

    def _write_block(self, block: np.ndarray):
        index = self.blocks_written
        if index >= self.num_blocks:
            raise CodecError("more elements fed than total_count")
        start = time.perf_counter()
        payload, order = _encode_residuals(block, self.order, self.tuple_size)
        self.encode_seconds += time.perf_counter() - start
        self._fh.write(payload)
        self._payload_pos += len(payload)
        self._entries.append(
            pack_index_entry(len(payload), order, zlib.crc32(payload))
        )

    def feed(self, values: np.ndarray):
        """Append scanned elements; full blocks are encoded and written
        immediately (while the chunk is hot), and a copy of the tail is
        buffered, so the caller may reuse ``values`` at once."""
        values = np.asarray(values)
        if values.dtype != self.dtype:
            raise CodecError(
                f"writer expects {self.dtype}, got {values.dtype}"
            )
        if values.size == 0:
            return
        self._elements_fed += int(values.size)
        if self._elements_fed > self.total_count:
            raise CodecError(
                f"fed {self._elements_fed} elements, expected {self.total_count}"
            )
        if self._pending.size:
            values = np.concatenate((self._pending, values))
        full = values.size - values.size % self.block_elements
        for start in range(0, full, self.block_elements):
            self._write_block(values[start : start + self.block_elements])
        self._pending = values[full:].copy()

    def sync(self):
        """Persist completed index entries and fsync — called before
        each driver checkpoint so ``state()`` is durable."""
        if self._entries_synced < len(self._entries):
            self._fh.flush()
            pos = self._fh.tell()
            self._fh.seek(
                HEADER_BYTES + INDEX_ENTRY_BYTES * self._entries_synced
            )
            self._fh.write(b"".join(self._entries[self._entries_synced :]))
            self._entries_synced = len(self._entries)
            self._fh.seek(pos)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def finalize(self):
        """Flush the tail block, backfill the index, and write the
        header (last, so partial files never validate)."""
        if self._finalized:
            return
        if self._pending.size:
            self._write_block(self._pending)
            self._pending = self._pending[:0]
        if self._elements_fed != self.total_count:
            raise CodecError(
                f"finalize after {self._elements_fed} of "
                f"{self.total_count} elements"
            )
        if self.blocks_written != self.num_blocks:
            raise CodecError(
                f"finalize with {self.blocks_written} of "
                f"{self.num_blocks} blocks written"
            )
        index = b"".join(self._entries)
        self._fh.flush()
        self._fh.seek(HEADER_BYTES)
        self._fh.write(index)
        self._fh.seek(0)
        self._fh.write(
            pack_header(
                self.dtype, self.tuple_size, self.block_elements,
                self.total_count, self.num_blocks, zlib.crc32(index),
            )
        )
        self._entries_synced = len(self._entries)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._finalized = True

    def close(self):
        if not self._finalized and not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.finalize()
        else:
            self.close()
        return False
