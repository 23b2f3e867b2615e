"""Zigzag mapping and LEB128 varints — the residual coder.

Delta residuals cluster around zero but alternate in sign.  The zigzag
map interleaves the sign into the low bit (0, -1, 1, -2, 2 -> 0, 1, 2,
3, 4) so that small magnitudes become small unsigned integers, which
LEB128 varints then store in as few bytes as their magnitude needs.
This is the same residual coder used by protobuf and many column
stores — a simple, honest stand-in for the paper's unspecified "coder"
component.

Both directions are hot paths, and both are vectorized around the
same observation: a smooth signal's residuals are almost all one-byte
varints, behind each delta block's few wide head residuals.

* **Encode** (every container write, including each block a streaming
  writer emits): :func:`varint_encode` is one ``astype(uint8)`` when
  every value is narrow, and otherwise walks byte positions over the
  compacted wide values only; :func:`varint_lengths`, the one
  varint-length function, prices a model's residuals without building
  bytes.
* **Decode**: :func:`_zigzag_varint_decode` turns a payload straight
  into signed residuals, byte-wide when almost every varint is one
  byte, through :func:`varint_decode` (whose validation defines the
  error contract) otherwise.
"""

from __future__ import annotations

import numpy as np

_UNSIGNED = {np.dtype(np.int32): np.dtype(np.uint32), np.dtype(np.int64): np.dtype(np.uint64)}
_SIGNED = {v: k for k, v in _UNSIGNED.items()}


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: (v << 1) ^ (v >> (bits-1))."""
    values = np.asarray(values)
    if values.dtype not in _UNSIGNED:
        raise TypeError(f"zigzag needs int32/int64, got {values.dtype}")
    return _zigzag(values, np.empty_like(values))


def _zigzag(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`zigzag_encode` into ``out`` (which may be ``values``),
    returned as an unsigned view; the sign mask is the one temporary."""
    unsigned = _UNSIGNED[values.dtype]
    sign = values >> values.dtype.type(8 * values.dtype.itemsize - 1)
    out = out.view(unsigned)
    np.left_shift(values.view(unsigned), unsigned.type(1), out=out)
    np.bitwise_xor(out, sign.view(unsigned), out=out)
    return out


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values)
    if values.dtype not in _SIGNED:
        raise TypeError(f"zigzag decode needs uint32/uint64, got {values.dtype}")
    return _unzigzag(values, np.empty_like(values))


def _unzigzag(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(v >> 1) ^ -(v & 1)`` into ``out`` (which may be ``values``),
    returned as a signed view; the sign mask is the one temporary."""
    one = values.dtype.type(1)
    sign = values & one
    np.right_shift(values, one, out=out)
    np.negative(sign, out=sign)
    np.bitwise_xor(out, sign, out=out)
    return out.view(f"i{out.dtype.itemsize}")


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Bytes each unsigned value's LEB128 varint takes (uint8, 1 to 10).

    A value needs ``k + 1`` bytes iff it is at least ``2**(7 * k)`` and
    below ``2**(7 * (k + 1))``, so the length is one plus the count of
    thresholds it reaches.  Each threshold is compared only against the
    values that reached the one before: the first compare runs over
    every value, later ones over the wide values alone, compacted once
    fewer than half of the working set is left.
    """
    values = np.asarray(values)
    if values.dtype.kind != "u":
        raise TypeError(f"varint lengths need an unsigned dtype, got {values.dtype}")
    lengths = np.ones(values.shape, dtype=np.uint8)
    flat = lengths.reshape(-1)
    live = values.reshape(-1)
    where = None  # indices of ``live`` in ``flat``; None = all
    for k in range(1, -(-8 * values.dtype.itemsize // 7)):
        wide = live >= values.dtype.type(1 << (7 * k))
        nwide = int(np.count_nonzero(wide))
        if not nwide:
            break
        if 2 * nwide < wide.size:
            keep = np.flatnonzero(wide)
            where = keep if where is None else where[keep]
            live = live[keep]
            flat[where] += np.uint8(1)
        elif where is None:
            flat += wide
        else:
            flat[where] += wide
    return lengths


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode an unsigned integer array.

    The encoder mirrors the decoder's narrow path.  Values below 0x80
    are their own one-byte varint, so when every value is, the payload
    is one ``astype(uint8)``.  Otherwise each value's terminator byte
    (the whole value when narrow, its top 7-bit group when wide) lands
    through one mask at its position shifted by the continuation bytes
    of the wide values before it, and only the compacted set of wide
    values is walked byte position by byte position to write those
    continuation bytes.  A handful of wide values (each delta block's
    first residuals) thus costs no full-length pass per byte position.
    """
    values = np.asarray(values)
    if values.dtype.kind != "u":
        raise TypeError(f"varint encoding needs an unsigned dtype, got {values.dtype}")
    values = values.reshape(-1)
    wide = np.flatnonzero(values >= values.dtype.type(0x80))
    terms = values.astype(np.uint8)
    if not wide.size:
        return terms.tobytes()
    groups = values[wide]
    extra = varint_lengths(groups).astype(np.intp) - 1  # continuation bytes
    # First byte of each wide varint: its index plus the continuation
    # bytes of the wide values before it.
    heads = np.cumsum(extra) - extra + wide
    terms[wide] = groups >> (7 * extra).astype(values.dtype)
    out = np.empty(values.size + int(extra.sum()), dtype=np.uint8)
    is_term = np.ones(out.size, dtype=bool)
    for k in range(int(extra.max())):
        if k:
            live = extra > k
            if not live.all():
                keep = np.flatnonzero(live)
                heads, extra, groups = heads[keep], extra[keep], groups[keep]
            groups = groups >> values.dtype.type(7)
        at = heads + k
        is_term[at] = False
        out[at] = (groups & values.dtype.type(0x7F)).astype(np.uint8) | np.uint8(0x80)
    out[is_term] = terms
    return out.tobytes()


def varint_decode(data: bytes, count: int, dtype=np.uint64) -> np.ndarray:
    """Decode ``count`` LEB128 varints from ``data``.

    Vectorized by byte ordinal: continuation bits mark each varint's
    extent, so value boundaries fall out of a prefix sum over the
    terminator mask.  Values are assembled directly in ``dtype``
    (:func:`_assemble`): one gather of every varint's first byte, then
    one pass per further byte position that touches the varints still
    that wide.  Groups at or past ``dtype``'s width are dropped, which
    is the scalar decoder's wraparound (a uint32 result is its uint64
    value mod 2**32).  Error behavior is
    bit-for-bit the scalar decoder's (`_varint_decode_scalar`): raises
    ``ValueError`` on truncated input, overlong varints, or trailing
    garbage, reporting the first offending value in stream order.
    """
    return _varint_decode(data, count, np.dtype(dtype))


def _varint_decode(data: bytes, count: int, dtype: np.dtype, out=None) -> np.ndarray:
    """:func:`varint_decode` into ``out`` when given, written only once
    every check has passed."""
    if dtype.kind != "u":
        raise TypeError(f"varint decoding needs an unsigned dtype, got {dtype}")
    raw = np.frombuffer(data, dtype=np.uint8)
    count = int(count)
    if count == 0:
        if len(raw):
            raise ValueError(
                f"{len(raw)} trailing bytes after decoding 0 varints"
            )
        return np.zeros(0, dtype=dtype)
    if len(raw) == 0:
        raise ValueError("truncated varint stream at value 0")

    ends = (raw & np.uint8(0x80)) == 0  # terminator byte of each varint
    # A byte starts a varint iff it is the first byte or follows a
    # terminator; runs of bytes between starts are one varint each.
    starts = np.flatnonzero(np.concatenate(([True], ends[:-1])))
    run_len = np.diff(np.append(starts, len(raw)))
    complete = int(ends.sum())  # terminated varints present in the data
    nruns = len(starts)

    # Find the first value (in stream order) the scalar decoder would
    # reject, considering only values it actually reaches (< count).
    error = None  # (value index, message)
    overlong = np.flatnonzero(run_len[:complete] >= 11)
    if overlong.size:
        i = int(overlong[0])
        error = (i, f"varint longer than 64 bits at value {i}")
    if nruns > complete:  # trailing unterminated run
        i = nruns - 1
        if run_len[-1] >= 10:
            tail = (i, f"varint longer than 64 bits at value {i}")
        else:
            tail = (i, f"truncated varint stream at value {i}")
        if error is None or tail[0] < error[0]:
            error = tail
    elif count > nruns and error is None:
        error = (nruns, f"truncated varint stream at value {nruns}")
    if error is not None and error[0] < count:
        raise ValueError(error[1])
    if nruns > count:
        trailing = len(raw) - int(starts[count])
        raise ValueError(
            f"{trailing} trailing bytes after decoding {count} varints"
        )

    return _assemble(raw, starts[:count], run_len[:count], dtype, out)


def _assemble(raw: np.ndarray, starts: np.ndarray, lens: np.ndarray,
              dtype: np.dtype, out=None) -> np.ndarray:
    """OR the 7-bit groups of the (valid) varints at ``starts`` with byte
    lengths ``lens`` into an unsigned ``dtype`` array (``out``, when
    given).

    Pass ``k`` ORs in byte ``k`` of every varint longer than ``k``
    bytes.  While those are at least half of the working set, the pass
    runs over the whole set with the shorter varints' bytes masked to
    zero (no scatter); below half, the set is first compacted to them.
    A group shifted to bit ``8 * itemsize`` or past it is zero mod
    ``2**bits``, so the loop stops there.
    """
    if out is None:
        out = np.empty(starts.size, dtype)
    np.copyto(out, raw[starts] & np.uint8(0x7F), casting="unsafe")
    where = None  # indices of the working set in ``out``; None = all
    last = len(raw) - 1
    for k in range(1, -(-8 * dtype.itemsize // 7)):
        live = lens > k
        nlive = int(np.count_nonzero(live))
        if not nlive:
            break
        if 2 * nlive < live.size:
            keep = np.flatnonzero(live)
            where = keep if where is None else where[keep]
            starts, lens = starts[keep], lens[keep]
        at = starts + k
        if nlive < at.size:
            np.minimum(at, last, out=at)
            byte = raw[at] & np.uint8(0x7F)
            byte *= live
        else:
            byte = raw[at] & np.uint8(0x7F)
        group = byte.astype(dtype)
        group <<= dtype.type(7 * k)
        if where is None:
            out |= group
        else:
            out[where] |= group
    return out


#: The narrow path runs when at most one byte in this many is a
#: continuation byte (see :func:`_zigzag_varint_decode`).
_NARROW_SHARE = 10


def _zigzag_varint_decode(data: bytes, count: int, dtype, out=None) -> np.ndarray:
    """Decode ``count`` zigzag varints straight to signed ``dtype``
    (int32/int64) residuals, into ``out`` when given (its contents are
    unspecified after a ``ValueError``).

    Bit-identical to ``zigzag_decode(varint_decode(data, count,
    unsigned))``, errors included.  Two paths, picked by the payload's
    count of continuation bytes:

    * **narrow** (almost all one-byte varints, as smooth signals give):
      the terminator bytes are compressed out with one uint8 mask,
      zigzagged as bytes and widened once; the few wide varints — each
      delta block's first residuals, coded against zero — are then
      assembled from the continuation-byte positions and patched in.
      The destination, widened into with one ``np.copyto``, is the
      only block-sized array wider than a byte.  A payload this path
      finds invalid (terminator count is not ``count``, a trailing
      continuation byte, an 11-byte run) goes to the general path,
      whose validation raises the usual error.
    * **general**: :func:`varint_decode` (its validation index arrays
      included) straight into the unsigned width, then an in-place
      zigzag.
    """
    dtype = np.dtype(dtype)
    raw = np.frombuffer(data, dtype=np.uint8)
    count = int(count)
    if out is None:
        out = np.empty(count, dtype)
    if 0 < count and len(raw) and raw[-1] < 0x80:
        ends = raw < 0x80
        wide_bytes = len(raw) - int(np.count_nonzero(ends))
        if (wide_bytes == len(raw) - count
                and wide_bytes * _NARROW_SHARE <= len(raw)
                and _narrow_decode(raw, ends, wide_bytes, out) is not None):
            return out
    unsigned = _varint_decode(data, count, _UNSIGNED[dtype], out.view(_UNSIGNED[dtype]))
    return _unzigzag(unsigned, unsigned)


def _narrow_decode(raw, ends, wide_bytes: int, out: np.ndarray):
    """The narrow path of :func:`_zigzag_varint_decode`, into ``out``;
    ``None`` when a varint is longer than ten bytes."""
    terms = raw[ends] if wide_bytes else raw.copy()
    # Zigzag the one-byte values as bytes, then widen once.
    np.copyto(out, _unzigzag(terms, terms), casting="unsafe")
    if not wide_bytes:
        return out
    cont = np.flatnonzero(~ends)
    # A byte belongs to the varint numbered by the terminators before
    # it: its position less the continuation bytes before it.
    owner = cont - np.arange(wide_bytes)
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    lens = np.diff(np.append(heads, wide_bytes)) + 1
    if lens.max() > 10:
        return None
    unsigned = _assemble(raw, cont[heads], lens, _UNSIGNED[out.dtype])
    out[owner[heads]] = _unzigzag(unsigned, unsigned)
    return out


def _varint_decode_scalar(data: bytes, count: int, dtype=np.uint64) -> np.ndarray:
    """Reference scalar decoder — the error-contract oracle for
    :func:`varint_decode` (kept for the differential tests, not used on
    any hot path)."""
    dtype = np.dtype(dtype)
    if dtype.kind != "u":
        raise TypeError(f"varint decoding needs an unsigned dtype, got {dtype}")
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.zeros(count, dtype=np.uint64)
    position = 0
    for i in range(count):
        shift = np.uint64(0)
        while True:
            if position >= len(raw):
                raise ValueError(f"truncated varint stream at value {i}")
            byte = raw[position]
            position += 1
            out[i] |= np.uint64(byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += np.uint64(7)
            if shift > 63:
                raise ValueError(f"varint longer than 64 bits at value {i}")
    if position != len(raw):
        raise ValueError(
            f"{len(raw) - position} trailing bytes after decoding {count} varints"
        )
    return out.astype(dtype)
