"""Differential tests for the residual decoder both containers share.

``decode_block_payload`` (blocked ``.samb``) and ``DeltaCodec.decompress``
(single-blob ``SAMD``) must decode exactly like the reference chain
``_varint_decode_scalar`` -> ``zigzag_decode`` -> ``repro.reference``:
same values, and on a bad payload the same ``CodecError`` text.  The
fixtures cover both decode paths — the narrow one (almost every varint
one byte) and the general one — and int32 payloads whose varints carry
more than 32 bits, which both decoders truncate mod 2**32.
"""

import zlib

import numpy as np
import pytest

from repro.compression import CodecError, DeltaCodec, zigzag_decode
from repro.compression import zigzag as zigzag_mod
from repro.compression.blocked import decode_block_payload
from repro.compression.codec import pack_header
from repro.compression.zigzag import (
    _varint_decode_scalar,
    varint_encode,
    zigzag_encode,
)
from repro.reference import prefix_sum_serial

N = 1200
GRID = [
    (dtype, order, tuple_size)
    for dtype in (np.int32, np.int64)
    for order in (1, 2, 3)
    for tuple_size in (1, 3)
]
GRID_IDS = [f"{np.dtype(d).name}-q{q}-s{s}" for d, q, s in GRID]


def _reference(payload, count, dtype, order, tuple_size):
    """(values, None) or (None, varint error text) from the scalar chain."""
    unsigned = np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64
    try:
        encoded = _varint_decode_scalar(payload, count, dtype=unsigned)
    except ValueError as exc:
        return None, str(exc)
    residuals = zigzag_decode(encoded).astype(dtype)
    return prefix_sum_serial(residuals, order=order, tuple_size=tuple_size), None


def _samd(payload, count, dtype, order, tuple_size):
    header = pack_header(dtype, order, tuple_size, count, zlib.crc32(payload))
    return header + payload


def _assert_decoders_agree(payload, count, dtype, order, tuple_size):
    """Both containers' decoders against the reference; returns whether
    the payload was valid."""
    expected, error = _reference(payload, count, dtype, order, tuple_size)
    surfaces = (
        (
            lambda: decode_block_payload(
                payload, count=count, dtype=dtype, order=order,
                tuple_size=tuple_size, payload_crc=zlib.crc32(payload),
                block_index=7,
            ),
            "corrupt varint payload in block 7: ",
        ),
        (
            lambda: DeltaCodec().decompress(
                _samd(payload, count, dtype, order, tuple_size)
            ),
            "corrupt varint payload: ",
        ),
    )
    for decode, prefix in surfaces:
        if error is None:
            got = decode()
            assert got.dtype == np.dtype(dtype)
            assert np.array_equal(got, expected)
        else:
            with pytest.raises(CodecError) as info:
                decode()
            assert str(info.value) == prefix + error
            assert isinstance(info.value.__cause__, ValueError)
    return error is None


def _residual_fixtures(rng, dtype, heads):
    """name -> residual varint payload, one per varint width regime."""
    info = np.iinfo(dtype)
    small = rng.integers(-64, 64, N)
    wide_head = small.copy()
    wide_head[:heads] = rng.integers(info.min, info.max, heads, endpoint=True)
    magnitude = {
        "two_byte": (64, 1 << 13),
        "five_byte": (1 << 28, 1 << 30) if dtype == np.int32 else (1 << 28, 1 << 34),
    }
    fixtures = {"one_byte": small, "one_byte_wide_head": wide_head}
    for name, (lo, hi) in magnitude.items():
        sign = rng.choice([-1, 1], N)
        fixtures[name] = sign * rng.integers(lo, hi, N)
    if dtype == np.int64:
        sign = rng.choice([-1, 1], N)
        fixtures["ten_byte"] = sign * rng.integers(1 << 62, info.max, N)
    return {
        name: varint_encode(zigzag_encode(r.astype(dtype)))
        for name, r in fixtures.items()
    }


@pytest.mark.parametrize("dtype,order,tuple_size", GRID, ids=GRID_IDS)
class TestResidualDecoder:
    def test_fixtures_agree_with_reference(self, rng, dtype, order, tuple_size):
        fixtures = _residual_fixtures(rng, dtype, order * tuple_size)
        for name, payload in fixtures.items():
            assert _assert_decoders_agree(payload, N, dtype, order, tuple_size), name

    def test_int32_varints_wider_than_32_bits_truncate(
        self, rng, dtype, order, tuple_size
    ):
        # Only the int32 width truncates; the int64 run is a control.
        wide = rng.integers(1 << 32, np.iinfo(np.uint64).max, N,
                            dtype=np.uint64, endpoint=True)
        mostly_small = rng.integers(0, 128, N).astype(np.uint64)
        mostly_small[: order * tuple_size] = wide[: order * tuple_size]
        for encoded in (wide, mostly_small):
            payload = varint_encode(encoded)
            assert _assert_decoders_agree(payload, N, dtype, order, tuple_size)

    def test_random_payloads_agree_with_reference(
        self, rng, dtype, order, tuple_size
    ):
        valid = 0
        for trial in range(60):
            n = int(rng.integers(0, 400))
            # Mostly terminator bytes, so the narrow path sees garbage too.
            high = rng.random(n) < rng.choice([0.02, 0.5])
            raw = rng.integers(0, 128, n, dtype=np.uint8)
            raw[high] |= np.uint8(0x80)
            payload = bytes(raw)
            terminators = int(np.count_nonzero(~high))
            count = terminators + int(rng.integers(-2, 3)) if trial % 2 else terminators
            valid += _assert_decoders_agree(
                payload, max(count, 0), dtype, order, tuple_size
            )
        assert 0 < valid < 60


class TestDecodePaths:
    """The fixtures above must reach both paths, or they prove little."""

    @pytest.fixture
    def narrow_calls(self, monkeypatch):
        calls = []
        real = zigzag_mod._narrow_decode

        def spy(*args):
            out = real(*args)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(zigzag_mod, "_narrow_decode", spy)
        return calls

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_narrow_fixtures_take_the_narrow_path(self, rng, dtype, narrow_calls):
        fixtures = _residual_fixtures(rng, dtype, 9)
        for name in ("one_byte", "one_byte_wide_head"):
            assert _assert_decoders_agree(fixtures[name], N, dtype, 3, 3)
        assert narrow_calls == [True] * 4

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_wide_fixtures_take_the_general_path(self, rng, dtype, narrow_calls):
        fixtures = _residual_fixtures(rng, dtype, 9)
        for name, payload in fixtures.items():
            if not name.startswith("one_byte"):
                assert _assert_decoders_agree(payload, N, dtype, 2, 1)
        assert narrow_calls == []

    def test_overlong_varint_falls_back_and_raises(self, narrow_calls):
        # 11-byte run among enough one-byte varints to try the narrow path.
        payload = b"\x80" * 10 + b"\x01" + b"\x02" * 200
        assert not _assert_decoders_agree(payload, 201, np.int64, 1, 1)
        assert narrow_calls == [False, False]

    def test_decode_engine_receives_the_residuals(self, rng):
        residuals = rng.integers(-64, 64, N).astype(np.int64)
        payload = varint_encode(zigzag_encode(residuals))
        seen = []

        class Engine:
            def run(self, values, order, tuple_size):
                seen.append((values.copy(), order, tuple_size))

                class Result:
                    pass

                result = Result()
                result.values = prefix_sum_serial(values, order, tuple_size)
                return result

        got = decode_block_payload(payload, count=N, dtype=np.int64, order=2,
                                   tuple_size=3, decode_engine=Engine())
        assert np.array_equal(seen[0][0], residuals)
        assert seen[0][1:] == (2, 3)
        assert np.array_equal(got, prefix_sum_serial(residuals, 2, 3))
