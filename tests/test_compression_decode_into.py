"""The decode contract of ``.samb`` readers and of the chunk drivers.

Reader level: ``BlockedFileReader.read_range`` and the drivers' private
``_read_into`` equal a whole-container decode, slice for slice, for
every range shape, dtype, tuple size and codec order, on both residual
decode paths and through a ``decode_engine``; a corrupt payload raises
the same :class:`CodecError`; payload bytes and decodes are counted
once per block.  Driver level: raw and blocked ``scan_file`` jobs and
the sharded blocked passes give the bytes of a one-shot scan, and a
multi-chunk job hands its session chunks backed by two buffers at most.
"""

import numpy as np
import pytest

from conftest import small_sam
from repro.compression import BlockedDeltaCodec, CodecError
from repro.compression import stream as stream_mod
from repro.compression import zigzag as zigzag_mod
from repro.compression.stream import BlockedFileReader, BlockedStreamWriter
from repro.core.host import host_prefix_sum
from repro.stream import (
    InjectedFailureError,
    ScanSession,
    scan_file,
    scan_file_sharded,
)

BLOCK = 96
N = 1000

#: (lo, hi) ranges: empty (on and off a block edge), inside one block,
#: crossing several blocks, ending on the short last block, and whole.
RANGES = [(0, 0), (37, 37), (5, 50), (96, 192), (50, 300), (700, N), (0, N)]


def _blob(rng, dtype, tuple_size, order, wide=False):
    if wide:
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, N, dtype=dtype)
    else:
        values = np.cumsum(rng.integers(-60, 61, N)).astype(dtype)
    codec = BlockedDeltaCodec(block_elements=BLOCK)
    return values, codec.compress(values, order=order, tuple_size=tuple_size)


def _write(tmp_path, blob, name="in.samb"):
    path = tmp_path / name
    path.write_bytes(blob.data)
    return path


def _reads(reader, lo, hi):
    """``read_range`` and ``_read_into`` (into a larger, poisoned
    destination) of the same range."""
    out = np.full(hi - lo + 5, 7, dtype=reader.dtype)
    into = reader._read_into(lo, hi, out)
    assert np.shares_memory(into, out) or into.size == 0
    return reader.read_range(lo, hi), into


class TestReaderContract:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("tuple_size", [1, 3])
    @pytest.mark.parametrize("order", [2, None])
    def test_ranges_match_whole_decode(self, tmp_path, rng, dtype,
                                       tuple_size, order):
        values, blob = _blob(rng, dtype, tuple_size, order)
        whole = BlockedDeltaCodec().decompress(blob.data)
        assert np.array_equal(whole, values)
        with BlockedFileReader(_write(tmp_path, blob)) as reader:
            for lo, hi in RANGES:
                for got in _reads(reader, lo, hi):
                    assert got.dtype == whole.dtype
                    assert np.array_equal(got, whole[lo:hi]), (lo, hi)

    def test_general_varint_path(self, tmp_path, rng, monkeypatch):
        values, blob = _blob(rng, np.int64, 1, 1, wide=True)
        calls = []
        real = zigzag_mod._varint_decode
        monkeypatch.setattr(
            zigzag_mod, "_varint_decode",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        assert np.array_equal(BlockedDeltaCodec().decompress(blob), values)
        with BlockedFileReader(_write(tmp_path, blob)) as reader:
            for lo, hi in RANGES:
                for got in _reads(reader, lo, hi):
                    assert np.array_equal(got, values[lo:hi]), (lo, hi)
        assert calls

    def test_decode_engine(self, tmp_path, rng):
        values, blob = _blob(rng, np.int32, 3, 2)
        codec = BlockedDeltaCodec(decode_engine=small_sam())
        assert np.array_equal(codec.decompress(blob), values)
        path = _write(tmp_path, blob)
        with BlockedFileReader(path, decode_engine=small_sam()) as reader:
            for lo, hi in [(5, 50), (50, 300), (0, N)]:
                for got in _reads(reader, lo, hi):
                    assert np.array_equal(got, values[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("lo,hi", [(0, N), (2 * BLOCK + 9, 2 * BLOCK + 20)])
    def test_corrupt_payload_raises_same_error(self, tmp_path, rng, lo, hi):
        _, blob = _blob(rng, np.int64, 1, 1)
        data = bytearray(blob.data)
        offset = int(blob.block_offsets()[2])
        data[offset + 3] ^= 0x10
        path = tmp_path / "bad.samb"
        path.write_bytes(bytes(data))
        text = "block 2 payload checksum mismatch (truncated or corrupt payload)"
        with pytest.raises(CodecError) as whole:
            BlockedDeltaCodec().decompress(bytes(data))
        assert str(whole.value) == text
        with BlockedFileReader(path) as reader:
            with pytest.raises(CodecError) as ranged:
                reader.read_range(lo, hi)
            assert str(ranged.value) == text
            with pytest.raises(CodecError) as into:
                reader._read_into(lo, hi, np.empty(hi - lo, np.int64))
            assert str(into.value) == text

    @pytest.mark.parametrize("cuts", [[0, 150, 400, N], [0, 96, 192, N],
                                      [0, 10, 20, 30, 500, N]])
    def test_each_block_counted_once(self, tmp_path, rng, monkeypatch, cuts):
        values, blob = _blob(rng, np.int64, 1, None)
        decodes = []
        real = stream_mod.decode_block_payload
        monkeypatch.setattr(
            stream_mod, "decode_block_payload",
            lambda *a, **k: decodes.append(k["block_index"]) or real(*a, **k),
        )
        with BlockedFileReader(_write(tmp_path, blob)) as reader:
            parts = [reader.read_range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), values)
            assert sorted(decodes) == list(range(blob.num_blocks))
            assert reader.payload_bytes_read == sum(blob.payload_sizes)
            assert reader.decode_seconds > 0.0


def _expected(values, order, tuple_size, inclusive=True):
    return host_prefix_sum(values, order=order, tuple_size=tuple_size,
                           inclusive=inclusive)


class TestDriverContract:
    @pytest.mark.parametrize("fmt", ["raw", "blocked"])
    @pytest.mark.parametrize("options", [
        dict(chunk_bytes=8 * BLOCK + 24),
        dict(chunk_bytes=8 * BLOCK * 2 - 40, adaptive_chunks=True),
        dict(chunk_bytes=3000, inclusive=False),
        dict(chunk_bytes=2000, output_format="blocked",
             output_block_elements=64),
    ])
    def test_scan_file_matches_one_shot(self, tmp_path, rng, fmt, options):
        values = np.cumsum(rng.integers(-60, 61, 5003)).astype(np.int64)
        if fmt == "raw":
            src = tmp_path / "in.bin"
            values.tofile(src)
        else:
            blob = BlockedDeltaCodec(block_elements=BLOCK).compress(
                values, tuple_size=3)
            src = _write(tmp_path, blob)
        out = tmp_path / "out.bin"
        scan_file(src, out, dtype="int64", order=2, tuple_size=3, **options)
        expected = _expected(values, 2, 3, options.get("inclusive", True))
        if options.get("output_format") == "blocked":
            got = BlockedDeltaCodec().decompress(out.read_bytes())
        else:
            got = np.fromfile(out, dtype=np.int64)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fmt", ["raw", "blocked"])
    @pytest.mark.parametrize("output_format", ["raw", "blocked"])
    def test_crash_then_resume(self, tmp_path, rng, fmt, output_format):
        values = np.cumsum(rng.integers(-60, 61, 4000)).astype(np.int64)
        if fmt == "raw":
            src = tmp_path / "in.bin"
            values.tofile(src)
        else:
            src = _write(tmp_path, BlockedDeltaCodec(
                block_elements=BLOCK).compress(values))
        out, ckpt = tmp_path / "out.bin", tmp_path / "job.ckpt"
        kwargs = dict(dtype="int64", order=3, chunk_bytes=8 * 200,
                      checkpoint=ckpt, checkpoint_every=2,
                      output_format=output_format, output_block_elements=100)
        with pytest.raises(InjectedFailureError):
            scan_file(src, out, fail_after_chunks=5, **kwargs)
        result = scan_file(src, out, resume=True, **kwargs)
        assert result.resumed_from > 0
        if output_format == "blocked":
            got = BlockedDeltaCodec().decompress(out.read_bytes())
        else:
            got = np.fromfile(out, dtype=np.int64)
        assert got.tobytes() == _expected(values, 3, 1).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("order,inclusive", [(1, True), (2, False)])
    def test_sharded_blocked_matches_one_shot(self, tmp_path, rng, workers,
                                              order, inclusive):
        values = np.cumsum(rng.integers(-60, 61, 6001)).astype(np.int32)
        src = _write(tmp_path, BlockedDeltaCodec(
            block_elements=BLOCK).compress(values, tuple_size=3))
        out, ckpt = tmp_path / "out.bin", tmp_path / "job.manifest"
        kwargs = dict(order=order, tuple_size=3, inclusive=inclusive,
                      shards=3, workers=workers, chunk_bytes=4 * 250 + 12,
                      adaptive_chunks=False, checkpoint=ckpt)
        with pytest.raises(InjectedFailureError):
            scan_file_sharded(src, out, fail_after_shards=3, **kwargs)
        result = scan_file_sharded(src, out, resume=True, **kwargs)
        assert result.fallback_reason is None
        assert result.counters.decoded_bytes_in == values.nbytes
        assert result.counters.overlapped_decodes > 0
        expected = _expected(values, order, 3, inclusive)
        assert np.fromfile(out, dtype=np.int32).tobytes() == expected.tobytes()


class TestTwoSlots:
    @pytest.mark.parametrize("fmt", ["raw", "blocked"])
    def test_chunks_share_two_buffers(self, tmp_path, rng, monkeypatch, fmt):
        values = np.cumsum(rng.integers(-60, 61, 9000)).astype(np.int64)
        if fmt == "raw":
            src = tmp_path / "in.bin"
            values.tofile(src)
        else:
            src = _write(tmp_path, BlockedDeltaCodec(
                block_elements=BLOCK).compress(values))
        buffers = []  # kept alive, so no two buffers share an id
        real = ScanSession._feed

        def spy(self, chunk, own):
            buffers.append(chunk if chunk.base is None else chunk.base)
            return real(self, chunk, own)

        monkeypatch.setattr(ScanSession, "_feed", spy)
        out = tmp_path / "out.bin"
        scan_file(src, out, dtype="int64", chunk_bytes=8 * 2 * BLOCK)
        assert len(buffers) == -(-values.size // (2 * BLOCK))
        assert len({id(b) for b in buffers}) <= 2
        assert np.array_equal(np.fromfile(out, np.int64), np.cumsum(values))


@pytest.mark.parametrize("step", [300, 10])
def test_writer_keeps_no_view_of_fed_chunks(tmp_path, rng, step):
    """Feeding a blocked writer from one reused buffer encodes what was
    fed, not what the buffer holds later."""
    values = rng.integers(-1000, 1000, N).astype(np.int64)
    path = tmp_path / "w.samb"
    buf = np.empty(step, np.int64)
    with BlockedStreamWriter(path, dtype=np.int64, total_count=N,
                             block_elements=64) as writer:
        for lo in range(0, N, step):
            part = buf[: min(step, N - lo)]
            part[:] = values[lo : lo + step]
            writer.feed(part)
            buf[:] = -1
    assert np.array_equal(BlockedDeltaCodec().decompress(path.read_bytes()), values)
