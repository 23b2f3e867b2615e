"""Blocked container format: random access and parallel decompression.

The single-blob :class:`~repro.compression.codec.DeltaCodec` needs the
whole residual stream before the prefix sum can run.  Real deployments
(and the paper's massively-parallel decompression motivation) want the
opposite: many independently-decodable blocks so that thousands of
threads can decompress concurrently and applications can seek.

Layout (version 2)::

    header:  magic "SAMB" | version | dtype | tuple_size | block_elements
             | total count | num_blocks | index CRC32 | header CRC32
    index:   num_blocks x (payload_bytes, order, payload CRC32)
    blocks:  concatenated single-block payloads (zigzag+varint residuals)

Each block's delta model restarts (its first lane values are encoded
against zero), so any block can be decoded knowing only the header and
its payload — block byte offsets are, fittingly, an exclusive prefix
sum over the index's payload sizes.  Per-block orders are auto-selected
independently, which also adapts to signals whose character changes
over time.  Every container byte is covered by exactly one CRC32
(header, index, or one block payload), so corruption — down to a single
flipped bit — raises :class:`CodecError` instead of decoding to wrong
values.

The module-level ``pack_*`` / ``parse_*`` / ``decode_block_payload``
helpers are shared with the streaming reader/writer
(:mod:`repro.compression.stream`), which processes the same format
without materializing whole containers in memory.  A block payload
encodes and decodes through the same residual coder as a
:class:`~repro.compression.codec.DeltaCodec` blob
(``codec._encode_residuals`` / ``codec._decode_residuals``): on decode,
varints straight to signed residuals, then the order-``q`` prefix sum
in place, so the block's residual array becomes its output.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compression.codec import CodecError, _decode_residuals, _encode_residuals

MAGIC = b"SAMB"
#: v2 appends CRC32 checksums: per-payload in the index, plus index and
#: header checksums in the header.
VERSION = 2

_DTYPE_CODES = {np.dtype(np.int32): 1, np.dtype(np.int64): 2}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

_HEADER = struct.Struct("<4sBBBxIqIII")
_INDEX_ENTRY = struct.Struct("<IB3xI")

HEADER_BYTES = _HEADER.size
INDEX_ENTRY_BYTES = _INDEX_ENTRY.size


def align_block_elements(block_elements: int, tuple_size: int) -> int:
    """Block boundaries must be tuple-aligned so every block's lane
    phase starts at lane 0 and decodes independently."""
    aligned = block_elements - block_elements % tuple_size
    return max(tuple_size, aligned)


def pack_header(dtype, tuple_size: int, block_elements: int, count: int,
                num_blocks: int, index_crc: int) -> bytes:
    """Pack a v2 blocked header, computing the trailing header CRC."""
    base = _HEADER.pack(
        MAGIC, VERSION, _DTYPE_CODES[np.dtype(dtype)], tuple_size,
        block_elements, count, num_blocks, index_crc, 0,
    )
    body = base[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def pack_index_entry(payload_len: int, order: int, payload_crc: int) -> bytes:
    return _INDEX_ENTRY.pack(payload_len, order, payload_crc)


def parse_header_bytes(data: bytes) -> dict:
    """Validate the fixed-size header; returns its fields as a dict."""
    if len(data) >= 4 and bytes(data[:4]) != MAGIC:
        raise CodecError(f"bad magic {bytes(data[:4])!r}")
    if len(data) < _HEADER.size:
        raise CodecError("buffer shorter than the container header")
    (
        magic, version, dtype_code, tuple_size, block_elements, count,
        num_blocks, index_crc, header_crc,
    ) = _HEADER.unpack(data[: _HEADER.size])
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    if zlib.crc32(bytes(data[: _HEADER.size - 4])) != header_crc:
        raise CodecError("header checksum mismatch (corrupt container)")
    if dtype_code not in _CODE_DTYPES:
        raise CodecError(f"unknown dtype code {dtype_code}")
    if tuple_size < 1 or block_elements < 1:
        raise CodecError("corrupt header fields")
    if count < 0:
        raise CodecError(f"negative element count {count}")
    expected_blocks = -(-count // block_elements) if count else 0
    if num_blocks != expected_blocks:
        raise CodecError(
            f"block count {num_blocks} inconsistent with {count} elements"
        )
    return {
        "dtype": _CODE_DTYPES[dtype_code],
        "tuple_size": tuple_size,
        "block_elements": block_elements,
        "count": count,
        "num_blocks": num_blocks,
        "index_crc": index_crc,
    }


def parse_index_bytes(
    index: bytes, num_blocks: int, index_crc: int
) -> Tuple[List[int], List[int], List[int]]:
    """Validate the index region; returns (sizes, orders, payload CRCs)."""
    if len(index) < _INDEX_ENTRY.size * num_blocks:
        raise CodecError("truncated block index")
    index = bytes(index[: _INDEX_ENTRY.size * num_blocks])
    if zlib.crc32(index) != index_crc:
        raise CodecError("index checksum mismatch (corrupt container)")
    sizes, orders, crcs = [], [], []
    for i in range(num_blocks):
        size, order, crc = _INDEX_ENTRY.unpack_from(index, i * _INDEX_ENTRY.size)
        if order < 1:
            raise CodecError(f"corrupt order in index entry {i}")
        sizes.append(size)
        orders.append(order)
        crcs.append(crc)
    return sizes, orders, crcs


def decode_block_payload(
    payload: bytes,
    *,
    count: int,
    dtype,
    order: int,
    tuple_size: int,
    payload_crc: Optional[int] = None,
    block_index: int = 0,
    decode_engine=None,
) -> np.ndarray:
    """Decode one block payload back to its values, exactly.

    The CRC is checked first; then the shared residual decoder runs
    (see :mod:`repro.compression.zigzag` for its two paths).  All
    coder-layer failures surface as :class:`CodecError` (cause chained)
    so callers can catch one typed error for any malformed container.
    """
    dtype = np.dtype(dtype)
    payload = bytes(payload)
    if payload_crc is not None and zlib.crc32(payload) != payload_crc:
        raise CodecError(
            f"block {block_index} payload checksum mismatch "
            "(truncated or corrupt payload)"
        )
    return _decode_residuals(
        payload, count, dtype, order, tuple_size, decode_engine,
        where=f" in block {block_index}",
    )


@dataclass
class BlockedBlob:
    """A blocked container plus its parsed metadata."""

    data: bytes
    dtype: np.dtype
    tuple_size: int
    block_elements: int
    count: int
    payload_sizes: List[int]
    orders: List[int]
    payload_crcs: List[int] = None

    @property
    def num_blocks(self) -> int:
        return len(self.payload_sizes)

    @property
    def nbytes(self) -> int:
        return len(self.data)

    def ratio(self) -> float:
        original = self.count * self.dtype.itemsize
        return original / max(1, len(self.data))

    def block_offsets(self) -> np.ndarray:
        """Byte offset of each block's payload — an exclusive prefix sum."""
        sizes = np.asarray(self.payload_sizes, dtype=np.int64)
        base = _HEADER.size + _INDEX_ENTRY.size * self.num_blocks
        return base + np.concatenate([[0], np.cumsum(sizes)[:-1]])


class BlockedDeltaCodec:
    """Chunked delta codec with per-block model selection.

    ``decode_engine`` works like :class:`DeltaCodec`'s: any object with
    ``run(values, order=..., tuple_size=...)``.
    """

    def __init__(self, block_elements: int = 65536, decode_engine=None):
        if block_elements < 1:
            raise CodecError(f"block_elements must be >= 1, got {block_elements}")
        self.block_elements = block_elements
        self.decode_engine = decode_engine

    # -- compression -----------------------------------------------------

    def compress(
        self,
        values,
        order: Optional[int] = None,
        tuple_size: int = 1,
    ) -> BlockedBlob:
        """Compress ``values``; ``order=None`` auto-selects per block."""
        array = np.asarray(values)
        if array.ndim != 1:
            raise CodecError(f"expected a 1-D array, got shape {array.shape}")
        dtype = np.dtype(array.dtype)
        if dtype not in _DTYPE_CODES:
            raise CodecError(f"unsupported dtype {dtype}; int32/int64 only")
        if not 1 <= tuple_size <= 255:
            raise CodecError(f"tuple_size must be in [1, 255], got {tuple_size}")
        block_elements = align_block_elements(self.block_elements, tuple_size)

        payloads: List[bytes] = []
        orders: List[int] = []
        for start in range(0, len(array), block_elements) or [0]:
            block = array[start : start + block_elements]
            if block.size == 0:
                continue
            payload, block_order = _encode_residuals(block, order, tuple_size)
            payloads.append(payload)
            orders.append(block_order)

        crcs = [zlib.crc32(payload) for payload in payloads]
        index = b"".join(
            pack_index_entry(len(payload), block_order, crc)
            for payload, block_order, crc in zip(payloads, orders, crcs)
        )
        header = pack_header(
            dtype, tuple_size, block_elements, len(array), len(payloads),
            zlib.crc32(index),
        )
        return BlockedBlob(
            data=header + index + b"".join(payloads),
            dtype=dtype,
            tuple_size=tuple_size,
            block_elements=block_elements,
            count=len(array),
            payload_sizes=[len(p) for p in payloads],
            orders=orders,
            payload_crcs=crcs,
        )

    # -- decompression ---------------------------------------------------

    def parse(self, data: bytes) -> BlockedBlob:
        """Validate and parse a container (headers + index, no payload)."""
        fields = parse_header_bytes(data)
        num_blocks = fields["num_blocks"]
        index_end = _HEADER.size + _INDEX_ENTRY.size * num_blocks
        payload_sizes, orders, crcs = parse_index_bytes(
            data[_HEADER.size : index_end], num_blocks, fields["index_crc"]
        )
        blob = BlockedBlob(
            data=data,
            dtype=fields["dtype"],
            tuple_size=fields["tuple_size"],
            block_elements=fields["block_elements"],
            count=fields["count"],
            payload_sizes=payload_sizes,
            orders=orders,
            payload_crcs=crcs,
        )
        if num_blocks and blob.block_offsets()[-1] + payload_sizes[-1] != len(data):
            raise CodecError("payload length does not match the index")
        if not num_blocks and len(data) != _HEADER.size:
            raise CodecError("payload length does not match the index")
        return blob

    def _decode_payload(self, blob: BlockedBlob, index: int) -> np.ndarray:
        offsets = blob.block_offsets()
        start = int(offsets[index])
        payload = blob.data[start : start + blob.payload_sizes[index]]
        count = min(
            blob.block_elements, blob.count - index * blob.block_elements
        )
        crc = blob.payload_crcs[index] if blob.payload_crcs else None
        return decode_block_payload(
            payload,
            count=count,
            dtype=blob.dtype,
            order=blob.orders[index],
            tuple_size=blob.tuple_size,
            payload_crc=crc,
            block_index=index,
            decode_engine=self.decode_engine,
        )

    def decompress_block(self, blob, index: int) -> np.ndarray:
        """Random access: decode one block without touching the others."""
        parsed = blob if isinstance(blob, BlockedBlob) else self.parse(bytes(blob))
        if not 0 <= index < parsed.num_blocks:
            raise CodecError(
                f"block index {index} out of range [0, {parsed.num_blocks})"
            )
        return self._decode_payload(parsed, index)

    def decompress(self, blob) -> np.ndarray:
        """Decode the whole container (blocks are independent — this
        loop is what a GPU would run one block per thread block)."""
        parsed = blob if isinstance(blob, BlockedBlob) else self.parse(bytes(blob))
        if parsed.count == 0:
            return np.zeros(0, dtype=parsed.dtype)
        pieces = [
            self._decode_payload(parsed, index) for index in range(parsed.num_blocks)
        ]
        return np.concatenate(pieces)
