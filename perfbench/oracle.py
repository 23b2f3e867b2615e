"""Independent checks of the program's outputs.

Integers: lane-wise ``numpy.cumsum`` applied ``order`` times, in
bounded chunks with one carry row per order, plus a
``repro.reference`` spot check on a prefix slice.  Compensated floats:
bit-identity with the serial compensated session scan fed in chunks
that cut across the segment grid, plus an accuracy check against a
long-double running sum on a prefix slice.
"""

from __future__ import annotations

import numpy as np

#: Elements per verification chunk (bounds the checker's own memory).
CHUNK_ELEMENTS = 1 << 20

#: Elements covered by the slow pure-Python reference spot check.
SPOT_ELEMENTS = 2048


def _chunks(total: int, step: int):
    for lo in range(0, total, step):
        yield lo, min(total, lo + step)


def lane_cumsum_matches(read_in, read_out, total: int, dtype, order: int,
                        tuple_size: int) -> bool:
    """Whether the output equals the order-``q``, tuple-``s`` prefix
    sum of the input.  ``read_in(lo, hi)`` / ``read_out(lo, hi)`` return
    element ranges, so files are checked without mapping them whole.
    Integer ``cumsum`` and ``+=`` wrap exactly like the kernels."""
    dtype = np.dtype(dtype)
    s = int(tuple_size)
    if total % s:
        raise ValueError("benchmark inputs hold whole lane rows")
    carry = np.zeros((order, s), dtype=dtype)
    for lo, hi in _chunks(total, CHUNK_ELEMENTS - CHUNK_ELEMENTS % s):
        x = np.asarray(read_in(lo, hi), dtype=dtype).reshape(-1, s)
        for level in range(order):
            x = np.cumsum(x, axis=0, dtype=dtype)
            x += carry[level]
            carry[level] = x[-1]
        got = np.asarray(read_out(lo, hi))
        if got.dtype != dtype or not np.array_equal(x.reshape(-1), got):
            return False
    return True


def array_reader(array):
    return lambda lo, hi: array[lo:hi]


def file_reader(path: str, dtype):
    dtype = np.dtype(dtype)

    def read(lo, hi):
        return np.fromfile(path, dtype=dtype, count=hi - lo,
                           offset=lo * dtype.itemsize)

    return read


def reference_prefix_matches(inp, out, order: int, tuple_size: int) -> bool:
    """Spot check of the output's first elements against the serial
    pure-Python reference."""
    from repro.reference import delta_decode_serial

    m = min(len(inp), SPOT_ELEMENTS)
    m -= m % tuple_size
    want = np.asarray(
        delta_decode_serial(np.asarray(inp[:m]), order=order,
                            tuple_size=tuple_size)
    )
    return want.dtype == out.dtype and np.array_equal(want, out[:m])


def int_output_ok(inp: np.ndarray, out, order: int, tuple_size: int) -> bool:
    if not isinstance(out, np.ndarray) or out.shape != inp.shape:
        return False
    return lane_cumsum_matches(
        array_reader(inp), array_reader(out), inp.size, inp.dtype,
        order, tuple_size,
    ) and reference_prefix_matches(inp, out, order, tuple_size)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


def compensated_output_ok(inp: np.ndarray, out) -> bool:
    """Bit-identity with a chunk-fed serial compensated session, and
    every value of a prefix slice within one ulp (of the largest
    partial sum so far) of the long-double running sum."""
    from repro.stream import ScanSession

    if not isinstance(out, np.ndarray) or out.shape != inp.shape:
        return False
    session = ScanSession(dtype=inp.dtype, float_mode="compensated")
    # An odd chunk length cuts through the fixed segment grid, so the
    # splice of carried state is exercised on every chunk boundary.
    for lo, hi in _chunks(inp.size, CHUNK_ELEMENTS + 3):
        if not _same_bits(session.feed(inp[lo:hi]), out[lo:hi]):
            return False
    m = min(inp.size, 1 << 16)
    ref = np.cumsum(inp[:m].astype(np.longdouble))
    err = np.abs(out[:m].astype(np.longdouble) - ref)
    # One ulp of the largest partial sum so far: the compensated scan
    # stays near half of it, the naive left fold drifts to tens.
    ulp = np.spacing(np.maximum.accumulate(np.abs(ref)).astype(np.float64))
    return bool(np.all(err <= ulp))


def self_check(rng: np.random.Generator) -> bool:
    """The checks accept correct outputs and catch a deliberately
    corrupted one (one flipped low bit)."""
    import repro

    x = rng.integers(-1000, 1000, 3 * 4096, dtype=np.int64)
    y = repro.delta_decode(x, order=3, tuple_size=3, engine="host")
    good = int_output_ok(x, y, 3, 3)
    y[int(rng.integers(y.size))] ^= 1
    caught = not int_output_ok(x, y, 3, 3)
    y = repro.delta_decode(x, order=2, tuple_size=3, engine="host")
    y[int(rng.integers(SPOT_ELEMENTS, y.size))] ^= 1
    caught_late = not int_output_ok(x, y, 2, 3)

    f = rng.standard_normal(20000)
    g = repro.prefix_sum(f, float_mode="compensated", engine="host")
    good_f = compensated_output_ok(f, g)
    g.view(np.int64)[int(rng.integers(g.size))] ^= 1
    caught_f = not compensated_output_ok(f, g)
    return good and caught and caught_late and good_f and caught_f
