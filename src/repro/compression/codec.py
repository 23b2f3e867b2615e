"""The delta codec: model selection, container format, parallel decode.

Compression pipeline (Section 1's architecture, concretely):

1. **Model** — order-``q``, tuple-``s`` delta encoding
   (:func:`repro.api.delta_encode`).  Encoding is embarrassingly
   parallel; :func:`choose_model` picks the (order, tuple size) whose
   residuals cost the fewest coder bytes, the way an install-time
   profile would.
2. **Coder** — zigzag + LEB128 varints over the residuals.

Encoding is a hot path too: every ``.samb`` block a streaming writer
emits runs it.  Both containers encode through
:func:`_encode_residuals`, as they decode through
:func:`_decode_residuals`.  Scoring orders 1..3 takes one difference
pass per order (order ``q``'s residuals are one pass over order
``q - 1``'s), prices each with :func:`~repro.compression.zigzag.varint_lengths`
without building bytes, and the winner's zigzagged residuals are the
ones encoded.

Decompression inverts the coder, then runs the generalized prefix sum.
The prefix-sum engine is pluggable: the serial reference, the fast host
engine (default), or SAM on the GPU simulator — all bit-identical,
which the round-trip tests verify.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.compression.zigzag import (
    _zigzag,
    _zigzag_varint_decode,
    varint_encode,
    varint_lengths,
    zigzag_encode,
)
from repro.core.host import _validate, host_delta_encode
from repro.kernels import scan_into
from repro.ops import ADD

#: Container magic ("SAM delta"), bumped on format changes.
MAGIC = b"SAMD"
#: v2 appends CRC32 checksums (payload, then header) so corruption is
#: detected instead of silently decoding to wrong values.
VERSION = 2

_DTYPE_CODES = {np.dtype(np.int32): 1, np.dtype(np.int64): 2}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

#: Header: magic, version, dtype code, order, tuple size, element
#: count, payload CRC32, header CRC32 (over all preceding bytes).
_HEADER = struct.Struct("<4sBBBBqII")


class CodecError(ValueError):
    """Malformed container or unsupported payload."""


def pack_header(dtype, order: int, tuple_size: int, count: int,
                payload_crc: int) -> bytes:
    """Pack a v2 container header, computing the trailing header CRC."""
    base = _HEADER.pack(
        MAGIC, VERSION, _DTYPE_CODES[np.dtype(dtype)], order, tuple_size,
        count, payload_crc, 0,
    )
    body = base[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


@dataclass
class CompressedBlob:
    """A compressed buffer plus its parsed header (for inspection)."""

    data: bytes
    order: int
    tuple_size: int
    dtype: np.dtype
    count: int
    payload_crc: int = 0

    @property
    def nbytes(self) -> int:
        return len(self.data)

    def ratio(self) -> float:
        """Compression ratio (original bytes / compressed bytes)."""
        original = self.count * self.dtype.itemsize
        return original / max(1, len(self.data))


def residual_cost_bytes(values: np.ndarray, order: int, tuple_size: int) -> int:
    """Coder bytes the residuals of this model would need.

    The varint length of a zigzagged residual is a pure function of its
    magnitude, so this sums :func:`varint_lengths` without building the
    byte stream.
    """
    residuals = host_delta_encode(values, order=order, tuple_size=tuple_size)
    return int(varint_lengths(_zigzag(residuals, residuals)).sum())


def choose_model(
    values,
    orders: Iterable[int] = (1, 2, 3),
    tuple_sizes: Iterable[int] = (1,),
) -> Tuple[int, int]:
    """Pick the (order, tuple_size) minimizing the coder's byte cost.

    Ties go to the lower order, then the smaller tuple size.
    """
    order, tuple_size, _ = _best_model(np.asarray(values), orders, tuple_sizes)
    return order, tuple_size


def _best_model(
    array: np.ndarray, orders: Iterable[int], tuple_sizes: Iterable[int]
) -> Tuple[int, int, np.ndarray]:
    """:func:`choose_model` plus the winner's zigzagged residuals.

    Per tuple size, order ``q``'s residuals are one difference pass over
    order ``q - 1``'s, so scoring orders 1..3 takes three passes, not
    1 + 2 + 3.
    """
    orders = sorted(set(orders))
    best: Optional[Tuple[int, int, int]] = None
    coded = None
    for tuple_size in tuple_sizes:
        residuals, done = array, 0
        for order in orders:
            residuals = host_delta_encode(
                residuals, order=order - done, tuple_size=tuple_size
            )
            done = order
            zigzagged = zigzag_encode(residuals)
            key = (int(varint_lengths(zigzagged).sum()), order, tuple_size)
            if best is None or key < best:
                best, coded = key, zigzagged
    if best is None:
        raise ValueError("empty model search space")
    return best[1], best[2], coded


def _encode_residuals(
    array: np.ndarray, order: Optional[int], tuple_size: int
) -> Tuple[bytes, int]:
    """The residual encoder both containers share: the order-``q``
    delta model, zigzag, varints; returns ``(payload, order)``.

    ``order=None`` picks the cheapest of orders 1..3 and encodes the
    residuals that scoring already built.  Deterministic for a given
    (array, order, tuple_size), which is what lets an interrupted
    streaming writer re-encode its tail blocks on resume and land
    bit-identical.
    """
    if order is None:
        order, _, coded = _best_model(array, (1, 2, 3), (tuple_size,))
    else:
        residuals = host_delta_encode(array, order=order, tuple_size=tuple_size)
        coded = _zigzag(residuals, residuals)
    return varint_encode(coded), order


class DeltaCodec:
    """Order-``q``, tuple-``s`` delta compressor with pluggable decoder.

    Parameters
    ----------
    decode_engine:
        Object with ``run(values, order=..., tuple_size=...)`` returning
        a result with ``.values`` (e.g. :class:`repro.core.SamScan`), or
        ``None`` for the fast vectorized host decoder.
    """

    def __init__(self, decode_engine=None):
        self.decode_engine = decode_engine

    def compress(
        self,
        values,
        order: Optional[int] = None,
        tuple_size: int = 1,
    ) -> CompressedBlob:
        """Compress ``values``; ``order=None`` auto-selects (1..3)."""
        array = np.asarray(values)
        if array.ndim != 1:
            raise CodecError(f"expected a 1-D array, got shape {array.shape}")
        dtype = np.dtype(array.dtype)
        if dtype not in _DTYPE_CODES:
            raise CodecError(f"unsupported dtype {dtype}; int32/int64 only")
        if tuple_size < 1 or tuple_size > 255:
            raise CodecError(f"tuple_size must be in [1, 255], got {tuple_size}")
        if order is not None and not 1 <= order <= 255:
            raise CodecError(f"order must be in [1, 255], got {order}")

        payload, order = _encode_residuals(array, order, tuple_size)
        payload_crc = zlib.crc32(payload)
        header = pack_header(
            dtype, order, tuple_size, len(array), payload_crc
        )
        return CompressedBlob(
            data=header + payload,
            order=order,
            tuple_size=tuple_size,
            dtype=dtype,
            count=len(array),
            payload_crc=payload_crc,
        )

    def parse_header(self, data: bytes) -> CompressedBlob:
        """Validate and parse a container header (no payload decode)."""
        if len(data) >= 4 and data[:4] != MAGIC:
            raise CodecError(f"bad magic {bytes(data[:4])!r}")
        if len(data) < _HEADER.size:
            raise CodecError("buffer shorter than the container header")
        (
            magic, version, dtype_code, order, tuple_size, count,
            payload_crc, header_crc,
        ) = _HEADER.unpack(data[: _HEADER.size])
        if magic != MAGIC:
            raise CodecError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CodecError(f"unsupported version {version}")
        if zlib.crc32(bytes(data[: _HEADER.size - 4])) != header_crc:
            raise CodecError("header checksum mismatch (corrupt container)")
        if dtype_code not in _CODE_DTYPES:
            raise CodecError(f"unknown dtype code {dtype_code}")
        if count < 0:
            raise CodecError(f"negative element count {count}")
        if order < 1 or tuple_size < 1:
            raise CodecError("order and tuple_size must be >= 1")
        return CompressedBlob(
            data=data,
            order=order,
            tuple_size=tuple_size,
            dtype=_CODE_DTYPES[dtype_code],
            count=count,
            payload_crc=payload_crc,
        )

    def decompress(self, blob) -> np.ndarray:
        """Decode a container back to the original array, exactly."""
        data = blob.data if isinstance(blob, CompressedBlob) else bytes(blob)
        parsed = self.parse_header(data)
        payload = data[_HEADER.size :]
        if zlib.crc32(bytes(payload)) != parsed.payload_crc:
            raise CodecError(
                "payload checksum mismatch (truncated or corrupt payload)"
            )
        return _decode_residuals(
            payload, parsed.count, parsed.dtype, parsed.order,
            parsed.tuple_size, self.decode_engine,
        )


def _decode_residuals(
    payload: bytes,
    count: int,
    dtype,
    order: int,
    tuple_size: int,
    decode_engine=None,
    where: str = "",
) -> np.ndarray:
    """The residual decoder both containers share: varint payload ->
    signed residuals -> order-``q`` prefix sum, run in place, so the
    residual array is the one returned.  A ``decode_engine`` receives
    the residuals and returns its own result instead.  Varint errors
    surface as :class:`CodecError` naming ``where`` (cause chained).
    """
    try:
        residuals = _zigzag_varint_decode(payload, count, dtype)
    except ValueError as exc:
        raise CodecError(f"corrupt varint payload{where}: {exc}") from exc
    if decode_engine is not None:
        return decode_engine.run(
            residuals, order=order, tuple_size=tuple_size
        ).values
    _validate(residuals, order, tuple_size)
    if residuals.size == 0:
        return residuals
    return scan_into(residuals, residuals, ADD, order=order, tuple_size=tuple_size)
