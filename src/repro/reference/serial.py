"""Serial prefix scans: the oracle every parallel engine is tested against.

The code mirrors the paper's definitional loop (Section 1):

    for (i = 1; i < n; i++) { A[i] = A[i] + A[i - 1]; }

generalized along the paper's three orthogonal axes:

* **scan** — an arbitrary associative operator instead of ``+``;
* **order** — the order-``q`` prefix sum is the ordinary prefix sum
  applied ``q`` times (Section 2.4);
* **tuple size** — ``s`` interleaved independent prefix sums, where the
  m-th sum runs over positions ``m + j*s`` (Section 1).

All three compose; :func:`prefix_sum_serial` exposes the full product.
"""

from __future__ import annotations

import numpy as np

from repro.ops import ADD, AssociativeOp, get_op


def _validate(values, order: int, tuple_size: int) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {array.shape}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if tuple_size < 1:
        raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
    return array


def inclusive_scan_serial(values, op: AssociativeOp = ADD, tuple_size: int = 1):
    """Inclusive scan with stride ``tuple_size``, one explicit pass.

    ``out[i] = op(out[i - tuple_size], in[i])`` for ``i >= tuple_size``;
    the first ``tuple_size`` elements are copied unchanged.
    """
    op = get_op(op)
    array = _validate(values, 1, tuple_size)
    dtype = op.check_dtype(array.dtype)
    out = array.astype(dtype).copy()
    for i in range(tuple_size, len(out)):
        out[i] = op.apply(out[i - tuple_size], out[i])
    return out


def exclusive_scan_serial(values, op: AssociativeOp = ADD, tuple_size: int = 1):
    """Exclusive scan: position ``i`` combines inputs strictly before ``i``
    in its tuple lane; the first element of each lane is the identity.

    Each lane's running total starts at its first element, as in
    :func:`inclusive_scan_serial`, never at ``op(identity, first)``:
    for floats ``0.0 + -0.0`` is ``0.0``, so seeding with the identity
    would turn a leading ``-0.0`` into ``0.0`` one stride later.
    """
    op = get_op(op)
    array = _validate(values, 1, tuple_size)
    dtype = op.check_dtype(array.dtype)
    array = array.astype(dtype)
    out = np.empty_like(array)
    out[:tuple_size] = op.identity(dtype)
    running = list(array[:tuple_size])
    for i in range(tuple_size, len(array)):
        lane = i % tuple_size
        out[i] = running[lane]
        running[lane] = op.apply(running[lane], array[i])
    return out


def prefix_sum_serial(
    values,
    order: int = 1,
    tuple_size: int = 1,
    op: AssociativeOp = ADD,
    inclusive: bool = True,
):
    """The fully generalized serial prefix scan.

    Applies the stride-``tuple_size`` scan ``order`` times.  ``order > 1``
    with a non-invertible operator is well-defined (it is just iteration)
    but only ``ADD`` corresponds to decoding an order-``q`` difference
    sequence.

    An exclusive variant with ``order > 1`` applies inclusive passes for
    the first ``order - 1`` iterations and an exclusive pass last, which
    matches "shift the final decoded sequence right by one".
    """
    op = get_op(op)
    array = _validate(values, order, tuple_size)
    out = array
    for iteration in range(order):
        last = iteration == order - 1
        if inclusive or not last:
            out = inclusive_scan_serial(out, op=op, tuple_size=tuple_size)
        else:
            out = exclusive_scan_serial(out, op=op, tuple_size=tuple_size)
    return out


def tuple_prefix_sum_serial(values, tuple_size: int, op: AssociativeOp = ADD):
    """Tuple-based prefix sum via the paper's reorder/scan/unreorder recipe.

    This is the *alternative* formulation from Section 2.3 — group the
    elements by tuple lane, scan each group independently, and undo the
    grouping.  It exists as an independently-derived oracle for the
    strided formulation: both must agree on every input, including
    lengths that are not a multiple of ``tuple_size``.
    """
    op = get_op(op)
    array = _validate(values, 1, tuple_size)
    out = np.empty_like(array)
    for lane in range(tuple_size):
        lane_values = array[lane::tuple_size]
        out[lane::tuple_size] = inclusive_scan_serial(lane_values, op=op)
    return out


def higher_order_prefix_sum_serial(values, order: int, op: AssociativeOp = ADD):
    """Order-``q`` prefix scan by explicit iteration (Section 2.4).

    Kept separate from :func:`prefix_sum_serial` so property tests can
    cross-check two independently written loops.
    """
    op = get_op(op)
    array = _validate(values, order, 1)
    out = array.astype(op.check_dtype(array.dtype)).copy()
    for _ in range(order):
        for i in range(1, len(out)):
            out[i] = op.apply(out[i - 1], out[i])
    return out
