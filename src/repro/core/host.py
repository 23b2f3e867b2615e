"""Fast vectorized host implementations of the generalized scans.

This is the library most downstream users call: plain numpy, no
simulation, same semantics as SAM bit-for-bit.  The simulator engines
exist to reproduce the paper's *system*; these functions exist to make
the paper's *math* fast on a CPU.

All functions accept the order / tuple-size / operator generalizations
and agree exactly with :mod:`repro.reference` (enforced by tests).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import scan_into
from repro.ops import ADD, get_op


def _validate(values, order: int, tuple_size: int) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {array.shape}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if tuple_size < 1:
        raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
    return array


def host_scan(
    values,
    op=ADD,
    tuple_size: int = 1,
    inclusive: bool = True,
    threads=None,
    float_mode=None,
):
    """One generalized scan pass: :func:`host_prefix_sum` at order 1."""
    return host_prefix_sum(
        values, order=1, tuple_size=tuple_size, op=op, inclusive=inclusive,
        threads=threads, float_mode=float_mode,
    )


def host_prefix_sum(
    values,
    order: int = 1,
    tuple_size: int = 1,
    op=ADD,
    inclusive: bool = True,
    threads=None,
    float_mode=None,
):
    """Order-``q``, tuple-``s`` prefix scan: ``q`` vectorized passes.

    Matches Section 2.4's iterative formulation, on the one in-memory
    kernel (:func:`repro.kernels.scan_into`).  All ``q`` passes run
    through one output buffer — pass 1 scans the input into it, later
    passes rescan it in place — and the exclusive shift happens on the
    final pass only (Section 2.4's observation that only the last
    iteration differs).  ``threads`` (``None`` serial, an int, ``0`` or
    ``"auto"``) makes each row-kind pass slab-parallel, bit-identical
    for every dtype (fused and compensated scans stay serial); ``float_mode`` picks the float contract (``"exact"`` by
    default; ``"compensated"`` is float ``add`` only).
    """
    op = get_op(op)
    array = _validate(values, order, tuple_size)
    dtype = op.check_dtype(array.dtype)
    array = array.astype(dtype, copy=False)
    return scan_into(
        array,
        np.empty_like(array),
        op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        threads=threads,
        float_mode=float_mode,
    )


def host_delta_encode(values, order: int = 1, tuple_size: int = 1):
    """Order-``q``, tuple-``s`` delta encoding, vectorized.

    Each pass subtracts the lane predecessor (``in[k] - in[k - s]``)
    with wraparound; the inverse of :func:`host_delta_decode`.
    """
    array = _validate(values, order, tuple_size)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"delta encoding needs a numeric dtype, got {array.dtype}")
    out = array
    s = tuple_size
    for _ in range(order):
        prev, out = out, np.empty_like(out)
        out[:s] = prev[:s]
        with np.errstate(over="ignore"):
            np.subtract(prev[s:], prev[:-s], out=out[s:])
    return out


def host_delta_decode(deltas, order: int = 1, tuple_size: int = 1):
    """Decode a difference sequence: the generalized prefix sum."""
    return host_prefix_sum(deltas, order=order, tuple_size=tuple_size, op=ADD)
