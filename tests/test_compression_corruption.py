"""Byte-level corruption fuzz for both compressed container formats.

The robustness contract under test: a corrupted container may decode to
exactly the original values (flips in padding or other dead bytes) or
raise :class:`CodecError` — never return a wrong answer, and never leak
a foreign exception type (``struct.error``, ``IndexError``, a bare
``ValueError`` from the varint layer) out of the codec boundary.

Three layers of attack:

* exhaustive single-bit flips over every byte of a ``SAMD`` and a
  ``SAMB`` container (codec API and, for blocked, the file reader);
* truncation at every prefix length;
* crafted containers whose CRCs are *valid* but whose varint payload is
  not — the regression case for the typed-error fix: the coder layer's
  ``ValueError`` must surface as :class:`CodecError` with the original
  exception chained as ``__cause__``.
"""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.compression import BlockedDeltaCodec, CodecError, DeltaCodec
from repro.compression import blocked as blocked_mod
from repro.compression.codec import _HEADER as SAMD_HEADER
from repro.compression.stream import BlockedFileReader, read_index
from repro.compression.zigzag import _varint_decode_scalar, varint_decode


def _samd_container(rng, n=600, dtype=np.int32):
    values = np.cumsum(rng.integers(-40, 41, n)).astype(dtype)
    blob = DeltaCodec().compress(values)
    return values, bytes(blob.data)


def _samb_container(rng, n=500, dtype=np.int64, block_elements=128):
    values = np.cumsum(rng.integers(-40, 41, n)).astype(dtype)
    blob = BlockedDeltaCodec(block_elements=block_elements).compress(values)
    return values, bytes(blob.data)


def _flip(data: bytes, pos: int, bit: int) -> bytes:
    mutated = bytearray(data)
    mutated[pos] ^= 1 << bit
    return bytes(mutated)


def _assert_error_or_equal(decode, values):
    """The fuzz contract: CodecError, or a bit-identical round trip."""
    try:
        result = decode()
    except CodecError:
        return
    # CodecError subclasses ValueError, so any other exception type —
    # including a bare ValueError — propagates and fails the test.
    assert np.array_equal(result, values), (
        "corrupted container decoded to a WRONG answer"
    )


class TestByteFlipMonolithic:
    def test_every_byte_flip_is_error_or_exact(self, rng):
        values, data = _samd_container(rng)
        codec = DeltaCodec()
        for pos in range(len(data)):
            mutated = _flip(data, pos, pos % 8)
            _assert_error_or_equal(lambda: codec.decompress(mutated), values)

    def test_every_truncation_is_error(self, rng):
        _, data = _samd_container(rng, n=200)
        codec = DeltaCodec()
        for length in range(len(data)):
            with pytest.raises(CodecError):
                codec.decompress(data[:length])


class TestByteFlipBlocked:
    def test_every_byte_flip_is_error_or_exact(self, rng):
        values, data = _samb_container(rng)
        codec = BlockedDeltaCodec()
        for pos in range(len(data)):
            mutated = _flip(data, pos, pos % 8)
            _assert_error_or_equal(lambda: codec.decompress(mutated), values)

    def test_every_truncation_is_error(self, rng):
        _, data = _samb_container(rng, n=300)
        codec = BlockedDeltaCodec()
        for length in range(len(data)):
            with pytest.raises(CodecError):
                codec.decompress(data[:length])

    def test_file_reader_flips_are_error_or_exact(self, rng, tmp_path):
        """The stream-layer reader enforces the same contract: a
        corrupted .samb file opened for scanning either fails typed at
        open/read time or decodes exactly."""
        values, data = _samb_container(rng, n=400, block_elements=64)
        path = os.path.join(tmp_path, "c.samb")
        for pos in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(_flip(data, pos, pos % 8))

            def read_all():
                with BlockedFileReader(path) as reader:
                    return np.array(
                        reader.read_range(0, reader.count), copy=True
                    )

            _assert_error_or_equal(read_all, values)


class TestValidCrcBadVarint:
    """Satellite regression: CRCs can be *re*computed by an attacker or
    a buggy writer, so a checksum pass must not exempt the varint layer
    from typed error handling."""

    @staticmethod
    def _resign_samd(data: bytes, payload: bytes) -> bytes:
        head = data[:16] + struct.pack("<I", zlib.crc32(payload))
        return head + struct.pack("<I", zlib.crc32(head)) + payload

    @pytest.mark.parametrize("where", ["final-byte", "mid-payload"])
    def test_monolithic_wraps_varint_error(self, rng, where):
        _, data = _samd_container(rng)
        payload = bytearray(data[SAMD_HEADER.size:])
        # Setting a continuation bit either starves the decoder of
        # elements (truncated) or over-runs 64 bits — both ValueError
        # in the coder layer, both must surface as CodecError.
        pos = len(payload) - 1 if where == "final-byte" else len(payload) // 2
        payload[pos] |= 0x80
        mutated = self._resign_samd(data, bytes(payload))
        with pytest.raises(CodecError, match="varint|truncated|trailing"):
            DeltaCodec().decompress(mutated)
        try:
            DeltaCodec().decompress(mutated)
        except CodecError as exc:
            assert isinstance(exc.__cause__, ValueError)

    @staticmethod
    def _resign_samb(data: bytes, block: int, new_payload: bytes):
        header = blocked_mod.parse_header_bytes(data)
        nb = header["num_blocks"]
        index_lo = blocked_mod.HEADER_BYTES
        index_hi = index_lo + nb * blocked_mod.INDEX_ENTRY_BYTES
        sizes, orders, _ = blocked_mod.parse_index_bytes(
            data[index_lo:index_hi], nb, header["index_crc"]
        )
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        payloads = [
            data[index_hi + offsets[i]: index_hi + offsets[i + 1]]
            for i in range(nb)
        ]
        payloads[block] = new_payload
        sizes[block] = len(new_payload)
        index = b"".join(
            blocked_mod.pack_index_entry(
                sizes[i], orders[i], zlib.crc32(payloads[i])
            )
            for i in range(nb)
        )
        head = blocked_mod.pack_header(
            header["dtype"], header["tuple_size"], header["block_elements"],
            header["count"], nb, zlib.crc32(index),
        )
        return head + index + b"".join(payloads)

    @pytest.mark.parametrize("where", ["final-byte", "mid-payload"])
    def test_blocked_wraps_varint_error(self, rng, where, tmp_path):
        _, data = _samb_container(rng)
        header = blocked_mod.parse_header_bytes(data)
        nb = header["num_blocks"]
        index_lo = blocked_mod.HEADER_BYTES
        index_hi = index_lo + nb * blocked_mod.INDEX_ENTRY_BYTES
        sizes, _, _ = blocked_mod.parse_index_bytes(
            data[index_lo:index_hi], nb, header["index_crc"]
        )
        payload = bytearray(data[index_hi: index_hi + sizes[0]])
        pos = len(payload) - 1 if where == "final-byte" else len(payload) // 2
        payload[pos] |= 0x80
        mutated = self._resign_samb(data, 0, bytes(payload))

        with pytest.raises(CodecError, match="varint|truncated|trailing"):
            BlockedDeltaCodec().decompress(mutated)

        # The stream-layer reader hits the same typed wrap per block.
        path = os.path.join(tmp_path, "bad.samb")
        with open(path, "wb") as fh:
            fh.write(mutated)
        with pytest.raises(CodecError, match="varint|truncated|trailing"):
            with BlockedFileReader(path) as reader:
                reader.read_block(0)

    def test_cause_is_chained(self, rng):
        _, data = _samb_container(rng)
        header = blocked_mod.parse_header_bytes(data)
        nb = header["num_blocks"]
        index_lo = blocked_mod.HEADER_BYTES
        index_hi = index_lo + nb * blocked_mod.INDEX_ENTRY_BYTES
        sizes, _, _ = blocked_mod.parse_index_bytes(
            data[index_lo:index_hi], nb, header["index_crc"]
        )
        payload = bytearray(data[index_hi: index_hi + sizes[0]])
        payload[-1] |= 0x80
        mutated = self._resign_samb(data, 0, bytes(payload))
        try:
            BlockedDeltaCodec().decompress(mutated)
        except CodecError as exc:
            assert isinstance(exc.__cause__, ValueError)
        else:  # pragma: no cover - the decode must fail
            pytest.fail("corrupt varint payload decoded successfully")


class TestVarintDifferential:
    """The vectorized varint decoder and the scalar reference must be
    bit-for-bit interchangeable — on valid streams *and* on garbage."""

    def test_random_garbage_agrees_with_scalar(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 40))
            data = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            count = int(rng.integers(0, 12))
            try:
                vec = varint_decode(data, count)
            except ValueError as exc:
                with pytest.raises(ValueError) as scalar:
                    _varint_decode_scalar(data, count)
                assert str(exc) == str(scalar.value)
            else:
                assert np.array_equal(
                    vec, _varint_decode_scalar(data, count)
                )

    def test_valid_streams_agree_with_scalar(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 200))
            values = rng.integers(0, 2**63, n).astype(np.uint64)
            from repro.compression import varint_encode

            data = varint_encode(values)
            assert np.array_equal(
                varint_decode(data, n), _varint_decode_scalar(data, n)
            )
