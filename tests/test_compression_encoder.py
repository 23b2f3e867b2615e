"""Differential tests for the residual encoder both containers share.

``varint_encode`` must emit exactly the bytes of the scalar LEB128
reference ``_varint_encode_scalar`` below, on both of its paths (every
value narrow; some values wide) and at every varint length a dtype
allows.  ``varint_lengths`` must agree with the reference's per-value
lengths, ``residual_cost_bytes`` with the encoded payload length, and
``choose_model`` with a brute-force search over those lengths, ties
broken by ``(cost, order, tuple_size)``.
"""

import numpy as np
import pytest

from repro.compression import DeltaCodec, choose_model, varint_encode, zigzag_encode
from repro.compression.codec import _HEADER, residual_cost_bytes
from repro.compression.zigzag import _varint_decode_scalar, varint_lengths
from repro.core.host import host_delta_encode

ORDERS = (1, 2, 3)
TUPLE_SIZES = (1, 2, 3, 4)


def _varint_encode_scalar(values) -> bytes:
    """Reference scalar LEB128 encoder — the oracle for
    :func:`varint_encode` (one Python int at a time, 7 bits per byte)."""
    out = bytearray()
    for value in np.asarray(values).reshape(-1).tolist():
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def _boundaries(dtype) -> np.ndarray:
    """Both edges of every varint length the dtype can reach: each
    ``2**(7k) - 1`` and ``2**(7k)``, plus zero and the dtype's max."""
    bits = 8 * np.dtype(dtype).itemsize
    edges = {0, 1, (1 << bits) - 1}
    for k in range(1, -(-bits // 7)):
        edges.update({(1 << (7 * k)) - 1, 1 << (7 * k)})
    return np.array(sorted(edges), dtype=dtype)


def _assert_encodes_like_reference(values):
    values = np.asarray(values)
    payload = varint_encode(values)
    assert payload == _varint_encode_scalar(values)
    lengths = varint_lengths(values)
    assert lengths.dtype == np.uint8
    assert lengths.tolist() == [len(_varint_encode_scalar([v])) for v in values.tolist()]
    assert int(lengths.sum()) == len(payload)
    assert np.array_equal(
        _varint_decode_scalar(payload, values.size, dtype=values.dtype), values
    )


class TestVarintEncode:
    @pytest.mark.parametrize("dtype, longest", [(np.uint64, 10), (np.uint32, 5)])
    def test_every_varint_length(self, dtype, longest):
        values = _boundaries(dtype)
        lengths = {len(_varint_encode_scalar([v])) for v in values.tolist()}
        assert lengths == set(range(1, longest + 1))
        _assert_encodes_like_reference(values)
        # One value at a time, so each length is also the only (wide) value.
        for value in values:
            _assert_encodes_like_reference(np.array([value], dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_empty(self, dtype):
        assert varint_encode(np.zeros(0, dtype=dtype)) == b""
        assert varint_lengths(np.zeros(0, dtype=dtype)).shape == (0,)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_all_narrow(self, dtype, rng):
        values = rng.integers(0, 0x80, 5000).astype(dtype)
        assert varint_encode(values) == values.astype(np.uint8).tobytes()
        _assert_encodes_like_reference(values)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_a_few_wide(self, dtype, rng):
        values = rng.integers(0, 0x80, 5000).astype(dtype)
        wide = np.array([0, 1, 2, 1234, 4998, 4999])
        values[wide] = _boundaries(dtype)[-len(wide):]
        _assert_encodes_like_reference(values)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_all_wide(self, dtype, rng):
        info = np.iinfo(dtype)
        values = rng.integers(0x80, int(info.max), 3000, dtype=dtype, endpoint=True)
        # Mixed lengths: shift each value down by a random bit count
        # that still leaves it at least 0x80.
        values >>= rng.integers(0, 8 * np.dtype(dtype).itemsize - 8, 3000).astype(dtype)
        values |= dtype(0x80)
        _assert_encodes_like_reference(values)

    def test_uint64_max(self):
        values = np.full(7, np.iinfo(np.uint64).max, dtype=np.uint64)
        assert varint_encode(values) == (b"\xff" * 9 + b"\x01") * 7
        _assert_encodes_like_reference(values)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_narrow_dtypes(self, dtype):
        _assert_encodes_like_reference(_boundaries(dtype))


def _signals(rng):
    walk = np.cumsum(rng.integers(-50, 51, 3000))
    ramp = np.arange(3000) * 100
    xy = np.empty(3000, dtype=np.int64)
    xy[0::3] = np.cumsum(rng.integers(-2, 3, 1000))
    xy[1::3] = 10**6 + np.cumsum(rng.integers(-2, 3, 1000))
    xy[2::3] = -(10**9) + np.arange(1000) * 7
    wild = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 3000)
    return {
        "walk": walk, "ramp": ramp, "xyz": xy, "wild": wild,
        "zeros": np.zeros(3000, dtype=np.int64), "one": np.array([-5]),
        "empty": np.zeros(0, dtype=np.int64),
    }


def _reference_cost(values, order, tuple_size) -> int:
    residuals = host_delta_encode(values, order=order, tuple_size=tuple_size)
    return len(_varint_encode_scalar(zigzag_encode(residuals)))


class TestModelSearch:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_cost_is_payload_length_for_every_model(self, dtype, rng):
        for name, signal in _signals(rng).items():
            values = signal.astype(dtype)
            for order in ORDERS:
                for s in TUPLE_SIZES:
                    cost = residual_cost_bytes(values, order, s)
                    assert cost == _reference_cost(values, order, s), (name, order, s)
                    blob = DeltaCodec().compress(values, order=order, tuple_size=s)
                    assert cost == blob.nbytes - _HEADER.size, (name, order, s)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_choose_model_is_the_brute_force_minimum(self, dtype, rng):
        for name, signal in _signals(rng).items():
            values = signal.astype(dtype)
            expected = min(
                (_reference_cost(values, q, s), q, s)
                for q in ORDERS for s in TUPLE_SIZES
            )
            got = choose_model(values, orders=ORDERS, tuple_sizes=TUPLE_SIZES)
            assert got == expected[1:], name
            # Search order never matters: ties go to (order, tuple_size).
            got = choose_model(values, orders=ORDERS[::-1], tuple_sizes=TUPLE_SIZES[::-1])
            assert got == expected[1:], name

    def test_ties_go_to_lowest_order_then_smallest_tuple(self):
        values = np.zeros(500, dtype=np.int64)
        assert choose_model(values, orders=(3, 2, 1), tuple_sizes=(4, 3)) == (1, 3)
        assert choose_model(values, orders=(2, 3), tuple_sizes=(2, 1)) == (2, 1)

    def test_auto_order_encodes_the_chosen_model(self, rng):
        values = np.cumsum(np.arange(4000) * 3 + rng.integers(-2, 3, 4000))
        for s in (1, 3):
            auto = DeltaCodec().compress(values, order=None, tuple_size=s)
            pinned = DeltaCodec().compress(values, order=auto.order, tuple_size=s)
            assert auto.order == choose_model(values, tuple_sizes=(s,))[0]
            assert auto.data == pinned.data

    def test_empty_search_space_raises(self):
        with pytest.raises(ValueError, match="empty model search space"):
            choose_model(np.arange(10), orders=())
