"""Binary associative operators for prefix scans.

Section 1 of the paper: "Prefix sums have been generalized before to
work with arbitrary binary associative operations instead of just with
sums.  That generalization is called a prefix scan."  Section 6 reports
that the authors also ran SAM with ``max`` and ``xor``.

Every engine in this reproduction is parameterized by an
:class:`AssociativeOp`.  An operator provides:

* ``identity(dtype)`` — the neutral element (0 for +, dtype-min for max,
  ...).  Exclusive scans and carry initialization depend on it.
* ``apply(a, b)`` — the vectorized binary operation.  For fixed-width
  integers this wraps on overflow exactly like GPU arithmetic.
* ``accumulate(a, axis)`` — a vectorized running scan, used by the fast
  host engine and by the simulator's block-local scan.
* ``invertible`` / ``invert`` — only addition is invertible; the
  higher-order generalization (decoding of difference sequences) is
  therefore only meaningful for ``ADD``, while plain and tuple-based
  scans work with every operator.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

import numpy as np

from repro.ops.dtypes import as_dtype, is_integer_dtype


def _quiet(dtype):
    """Silence float overflow; integer arrays wrap without a warning,
    so they skip the (microsecond) ``np.errstate`` context."""
    return contextlib.nullcontext() if dtype.kind in "iu" else np.errstate(over="ignore")


class AssociativeOp:
    """A named binary associative operator over numpy arrays.

    Parameters
    ----------
    name:
        Stable identifier used in APIs, benchmarks, and reports.
    fn:
        Vectorized binary function ``(ndarray, ndarray) -> ndarray``.
    identity_fn:
        ``dtype -> scalar`` returning the neutral element.
    ufunc:
        Optional numpy ufunc whose ``.accumulate`` implements a running
        scan.  When absent, :meth:`accumulate` falls back to a Python
        loop (correct, slower) so user-defined operators still work with
        every engine.
    invertible:
        True only when an ``invert_fn`` exists with
        ``fn(invert_fn(a, b), b) == a`` (i.e. subtraction for ``ADD``).
    commutative:
        Recorded for documentation/testing; scans only need
        associativity.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        identity_fn: Callable[[np.dtype], object],
        ufunc: Optional[np.ufunc] = None,
        invert_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        commutative: bool = True,
        integer_only: bool = False,
    ):
        self.name = name
        self._fn = fn
        self._identity_fn = identity_fn
        self._ufunc = ufunc
        self._invert_fn = invert_fn
        self.commutative = commutative
        self.integer_only = integer_only

    def __repr__(self) -> str:
        return f"AssociativeOp({self.name!r})"

    @property
    def invertible(self) -> bool:
        """Whether an inverse (e.g. subtraction) is available."""
        return self._invert_fn is not None

    @property
    def ufunc(self) -> Optional[np.ufunc]:
        """The backing numpy ufunc, or ``None`` for looped operators.

        Kernel fast paths (the strided 2-D accumulate, the threaded
        slab scans) are only valid when the operator is a real ufunc
        whose inner loop releases the GIL; looped operators take the
        general per-lane fallback instead.
        """
        return self._ufunc

    def supports_dtype(self, dtype) -> bool:
        """True when the operator is defined for ``dtype``."""
        if self.integer_only:
            return is_integer_dtype(dtype)
        return True

    def check_dtype(self, dtype) -> np.dtype:
        """Resolve and validate ``dtype`` for this operator."""
        resolved = as_dtype(dtype)
        if not self.supports_dtype(resolved):
            raise TypeError(f"operator {self.name!r} does not support dtype {resolved}")
        return resolved

    def identity(self, dtype):
        """The neutral element of the operator for ``dtype``."""
        resolved = self.check_dtype(dtype)
        return resolved.type(self._identity_fn(resolved))

    def apply(self, a, b):
        """Apply the operator elementwise; preserves the dtype of ``a``."""
        a = np.asarray(a)
        with np.errstate(over="ignore"):
            return self._fn(a, np.asarray(b)).astype(a.dtype, copy=False)

    def apply_into(self, a, b, out):
        """Elementwise ``op(a, b)`` written into ``out`` (may alias ``b``).

        The in-place variant of :meth:`apply` for hot paths that cannot
        afford the intermediate allocation (the sharded out-of-core
        driver folds spliced carries into whole shard regions this
        way).  Falls back to apply-then-copy for operators without a
        ufunc.
        """
        if self._ufunc is not None:
            with _quiet(out.dtype):
                self._ufunc(a, b, out=out, dtype=out.dtype)
        else:
            out[...] = self.apply(a, b)
        return out

    def invert(self, a, b):
        """Return ``x`` such that ``apply(x, b) == a`` (only if invertible)."""
        if self._invert_fn is None:
            raise TypeError(f"operator {self.name!r} is not invertible")
        a = np.asarray(a)
        with np.errstate(over="ignore"):
            return self._invert_fn(a, np.asarray(b)).astype(a.dtype, copy=False)

    def accumulate(self, a, axis: int = -1, out=None):
        """Inclusive running scan of ``a`` along ``axis``.

        Uses the numpy ufunc accumulate when one exists; otherwise falls
        back to an explicit loop so arbitrary Python operators remain
        usable (at reduced speed).  ``out`` may alias ``a`` for an
        in-place scan (accumulate is a left fold, so aliasing is safe).
        """
        a = np.asarray(a)
        if a.size == 0:
            return a.copy() if out is None else out
        if self._ufunc is not None:
            # Pin the accumulator dtype: numpy otherwise promotes small
            # integers to the platform int, breaking wraparound semantics.
            with _quiet(a.dtype):
                return self._ufunc.accumulate(a, axis=axis, dtype=a.dtype, out=out)
        if out is None:
            moved = np.moveaxis(a, axis, 0).copy()
            for i in range(1, moved.shape[0]):
                moved[i] = self.apply(moved[i - 1], moved[i])
            return np.moveaxis(moved, 0, axis)
        # Scan directly into ``out`` (it may alias ``a``): the loop is a
        # left fold, so seeding out with a and overwriting row by row
        # needs no staging copy.
        moved = np.moveaxis(out, axis, 0)
        if out is not a:
            moved[...] = np.moveaxis(a, axis, 0)
        for i in range(1, moved.shape[0]):
            moved[i] = self.apply(moved[i - 1], moved[i])
        return out

    def reduce(self, a, axis: int = -1):
        """Reduce ``a`` along ``axis`` (the block 'local sum' primitive)."""
        a = np.asarray(a)
        if self._ufunc is not None:
            with np.errstate(over="ignore"):
                return self._ufunc.reduce(a, axis=axis, dtype=a.dtype)
        moved = np.moveaxis(a, axis, 0)
        if moved.shape[0] == 0:
            raise ValueError("cannot reduce an empty axis without an identity")
        total = moved[0].copy()
        for i in range(1, moved.shape[0]):
            total = self.apply(total, moved[i])
        return total


def _int_min(dtype: np.dtype):
    if dtype.kind in "iu":
        return np.iinfo(dtype).min
    return -np.inf


def _int_max(dtype: np.dtype):
    if dtype.kind in "iu":
        return np.iinfo(dtype).max
    return np.inf


ADD = AssociativeOp(
    "add",
    fn=np.add,
    identity_fn=lambda dt: 0,
    ufunc=np.add,
    invert_fn=np.subtract,
)

MUL = AssociativeOp(
    "mul",
    fn=np.multiply,
    identity_fn=lambda dt: 1,
    ufunc=np.multiply,
)

MAX = AssociativeOp(
    "max",
    fn=np.maximum,
    identity_fn=_int_min,
    ufunc=np.maximum,
)

MIN = AssociativeOp(
    "min",
    fn=np.minimum,
    identity_fn=_int_max,
    ufunc=np.minimum,
)

XOR = AssociativeOp(
    "xor",
    fn=np.bitwise_xor,
    identity_fn=lambda dt: 0,
    ufunc=np.bitwise_xor,
    invert_fn=np.bitwise_xor,
    integer_only=True,
)

BITAND = AssociativeOp(
    "and",
    fn=np.bitwise_and,
    identity_fn=lambda dt: -1 if dt.kind == "i" else _int_max(dt),
    ufunc=np.bitwise_and,
    integer_only=True,
)

BITOR = AssociativeOp(
    "or",
    fn=np.bitwise_or,
    identity_fn=lambda dt: 0,
    ufunc=np.bitwise_or,
    integer_only=True,
)

#: Operators addressable by name in the public API.
BUILTIN_OPS = {
    op.name: op for op in (ADD, MUL, MAX, MIN, XOR, BITAND, BITOR)
}


def get_op(op) -> AssociativeOp:
    """Resolve ``op`` (name or :class:`AssociativeOp`) to an operator."""
    if isinstance(op, AssociativeOp):
        return op
    if isinstance(op, str):
        if op not in BUILTIN_OPS:
            raise KeyError(
                f"unknown operator {op!r}; built-ins are {sorted(BUILTIN_OPS)}"
            )
        return BUILTIN_OPS[op]
    raise TypeError(f"expected operator name or AssociativeOp, got {type(op).__name__}")
