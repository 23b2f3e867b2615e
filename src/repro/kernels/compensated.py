"""Compensated float lane scans: deterministic parallelism for floats.

Every parallel path in this repo — the sharded driver, the batched
serve kernel, the threaded slab kernel — regroups the scan's
reduction, which is exact for fixed-width integers and *wrong by one
rounding per regroup* for floats.  The exact float path therefore has
to stay sequential (the head-fold continuation).

This module opens the sharded driver and the batched serve kernel to
floats with error-free transformations (:mod:`repro.ops.eft`).  The
threaded slab kernel stays closed to them: a compensated slab made a
local pass and a render pass over memory where the serial scan makes
one, and lost to it (CHANGES.md), so ``threads=`` on a compensated
scan runs the serial kernel.

The compensated scan is defined per lane as:

1. **Segments.**  Each lane's element stream is cut into *segments* of
   :data:`SEGMENT_ROWS` elements.  Segment boundaries are a pure
   function of the global element index (every ``SEGMENT_ROWS * s``
   elements) — never of the thread count, shard count, or chunk split,
   which is what makes the result bit-identical across all of them.
2. **Local naive scan.**  Within a segment, the lane is scanned by the
   plain sequential left fold ``L_j = fl(L_{j-1} + x_j)`` (one
   vectorized ``accumulate`` — exactly the fast integer inner loop).
3. **Exact error recovery.**  Each step's discarded rounding error is
   recovered *exactly* with :func:`repro.ops.two_sum_err` (branch-free,
   vectorized) and accumulated into a running local compensation
   ``E_j`` (its own naive scan — errors of errors are second order).
4. **The double-double chain.**  Segment totals ``(T, F) = (L_B, E_B)``
   feed a sequential double-double carry chain
   ``(H, G) <- dd_add(H, G, T, F)`` — tiny (one step per segment), so
   the host replays it identically no matter how segments were
   distributed over shards or batched streams.
5. **Render.**  The emitted value is
   ``out_j = fl(fl(fl(E_j + G) + H) + L_j)`` — local value plus the
   compensated carry, small terms first.

The carry state is four floats per lane — ``(H, G)`` plus the
in-segment partials ``(L, E)`` — all canonically zeroed to ``-0.0``
(the true float-add identity, see :mod:`repro.ops.eft`), which makes a
zero carry a bitwise no-op: for inputs shorter than one segment the
compensated scan *is* the naive scan, ``-0.0`` outputs included.

Accuracy: intra-segment errors are recovered exactly and re-injected
per element; inter-segment errors live in the double-double chain.
The worst-case error is a couple of ulps of the running prefix —
versus the naive serial fold's O(n)-growth — so compensated results
are *more* accurate than the exact-sequential path's on
cancellation-heavy inputs, while still being deterministic.
Non-finite inputs poison the error chain: outputs at and after the
first ``inf``/``NaN`` are non-finite (in general NaN, because
``inf - inf`` appears in the recovered error), deterministically.

Only ``add`` compensates — two-sum is an additive identity.  Float
``max``/``min`` are exactly associative and never needed this; float
``mul`` keeps the exact sequential path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.kernels.lane import phase_perm, phase_totals
from repro.ops import get_op
from repro.ops.eft import NEG_ZERO, canonicalize_errors, dd_add, two_sum_err

#: Per-lane elements per segment.  A segment of one float64 lane is
#: 32 KiB — cache-resident for the whole recover/compensate pipeline —
#: and the double-double chain gets one step per segment.  Fixed (not
#: tuned): the segment grid is part of the compensated result's
#: definition, so it must not vary with the machine.
SEGMENT_ROWS = 4096

#: Row indices of the ``(4, s)`` compensated carry state.
HI, LO, VPART, EPART = 0, 1, 2, 3

#: The three float handling modes of every scan surface.
FLOAT_MODES = ("exact", "compensated", "regrouped")


def compensated_supported(op, dtype) -> bool:
    """Whether ``(op, dtype)`` can take the compensated path: float
    dtype under the real-ufunc ``add`` (two-sum is addition-specific)."""
    try:
        op = get_op(op)
        resolved = np.dtype(dtype)
    except (TypeError, ValueError):
        return False
    return op.name == "add" and op.ufunc is not None and resolved.kind == "f"


def check_compensated(op, dtype):
    """Validate ``(op, dtype)`` for the compensated path (raises
    ``TypeError``); returns the resolved ``(op, dtype)``."""
    op = get_op(op)
    resolved = np.dtype(dtype)
    if not compensated_supported(op, resolved):
        raise TypeError(
            f"compensated float mode requires the ufunc 'add' operator on a "
            f"float dtype (two-sum recovers *addition* errors); got "
            f"op={op.name!r}, dtype={resolved.name}"
        )
    return op, resolved


def resolve_float_mode(dtype, float_mode=None):
    """Resolve a scan surface's float mode.

    Returns one of :data:`FLOAT_MODES` for float dtypes (``"exact"``
    when ``float_mode`` is ``None``), ``None`` for integers (integer
    regrouping is exact; the modes do not apply).
    """
    if np.dtype(dtype).kind in "iu":
        return None
    if float_mode is None:
        return "exact"
    if float_mode not in FLOAT_MODES:
        raise ValueError(
            f"float_mode must be one of {FLOAT_MODES}, got {float_mode!r}"
        )
    return float_mode


def fresh_state(dtype, tuple_size: int) -> np.ndarray:
    """A new ``(4, s)`` compensated carry state, canonically zeroed."""
    return np.full((4, int(tuple_size)), NEG_ZERO, dtype=np.dtype(dtype))


def segment_span(tuple_size: int) -> int:
    """Global elements per segment (all ``s`` lanes advance together)."""
    return SEGMENT_ROWS * int(tuple_size)


def cross_segment(state: np.ndarray) -> None:
    """Fold the finished segment's ``(T, F)`` partials into the
    double-double chain and reset them (in place)."""
    hi, lo = dd_add(state[HI], state[LO], state[VPART], state[EPART])
    state[HI] = hi
    state[LO] = lo
    state[VPART] = NEG_ZERO
    state[EPART] = NEG_ZERO


# -- one piece (never crosses a segment boundary) --------------------------


def _piece_naive(piece, s, state, pos):
    """Continue the naive value scan and the error chain over one piece.

    Returns ``(L, E)`` — the naive per-lane continuation and the
    running local compensation, both fresh buffers aligned with
    ``piece`` — and updates ``state``'s partial rows in place.  The
    piece must not cross a segment boundary (the caller splits).
    """
    k = piece.size
    dtype = piece.dtype
    if s == 1:
        buf = np.empty(k + 1, dtype)
        buf[0] = state[VPART, 0]
        buf[1:] = piece
        np.add.accumulate(buf, out=buf)
        L = buf[1:]
        e = two_sum_err(buf[:k], piece, L)
        canonicalize_errors(e)
        ebuf = np.empty(k + 1, dtype)
        ebuf[0] = state[EPART, 0]
        ebuf[1:] = e
        np.add.accumulate(ebuf, out=ebuf)
        E = ebuf[1:]
        state[VPART, 0] = L[-1]
        state[EPART, 0] = E[-1]
        return L, E
    perm = phase_perm(pos, s)
    m, r = divmod(k, s)
    buf = np.empty(k + s, dtype)
    buf[:s] = state[VPART][perm]
    buf[s:] = piece
    body = (m + 1) * s
    b2 = buf[:body].reshape(m + 1, s)
    np.add.accumulate(b2, axis=0, out=b2)
    if r:
        np.add(buf[body - s : body - s + r], piece[m * s :], out=buf[body:])
    L = buf[s:]
    e = two_sum_err(buf[:k], piece, L)
    canonicalize_errors(e)
    ebuf = np.empty(k + s, dtype)
    ebuf[:s] = state[EPART][perm]
    ebuf[s:] = e
    eb2 = ebuf[:body].reshape(m + 1, s)
    np.add.accumulate(eb2, axis=0, out=eb2)
    if r:
        np.add(ebuf[body - s : body - s + r], e[m * s :], out=ebuf[body:])
    E = ebuf[s:]
    tL = phase_totals(L, s)
    tE = phase_totals(E, s)
    lanes = (pos + np.arange(tL.size)) % s
    state[VPART][lanes] = tL
    state[EPART][lanes] = tE
    return L, E


def _dd_render(L, E, hi, lo, out):
    """``out ~= H + L + E + G`` with one effective rounding.

    ``H`` dominates, so the pair ``(H, L)`` is split exactly with
    two-sum and the small terms fold into its error before the single
    final add — folding them into ``H`` first would round them away at
    the running total's magnitude.  The combined small term is
    canonicalized (exact zero -> ``-0.0``) so a dormant carry stays a
    bitwise no-op and ``-0.0`` outputs survive.  ``hi``/``lo``
    broadcast; ``out`` may alias ``L`` (it is written after every read).
    """
    S = hi + L
    r = two_sum_err(hi, L, S)
    with np.errstate(invalid="ignore"):  # poisoned chains render as NaN
        t = r + (E + lo)
        t[t == 0] = NEG_ZERO
        return np.add(S, t, out=out)


def _render_piece(L, E, state, pos, s, out):
    """Render one piece with the chain rows in phase order (``out``
    may alias ``L``)."""
    k = out.size
    if s == 1:
        return _dd_render(L, E, state[HI, 0], state[LO, 0], out)
    perm = phase_perm(pos, s)
    hi_row = state[HI][perm]
    lo_row = state[LO][perm]
    m, r = divmod(k, s)
    body = m * s
    if m:
        _dd_render(
            L[:body].reshape(m, s),
            E[:body].reshape(m, s),
            hi_row,
            lo_row,
            out[:body].reshape(m, s),
        )
    if r:
        _dd_render(L[body:], E[body:], hi_row[:r], lo_row[:r], out[body:])
    return out


def _scan_serial(chunk, s, state, pos, out):
    """Sequential compensated scan of ``chunk`` into ``out``; advances
    ``state`` (crossing segments as reached) and returns ``out``."""
    n = chunk.size
    span = segment_span(s)
    i = 0
    while i < n:
        seg_end = (pos // span + 1) * span
        take = min(n - i, seg_end - pos)
        L, E = _piece_naive(chunk[i : i + take], s, state, pos)
        _render_piece(L, E, state, pos, s, out[i : i + take])
        pos += take
        i += take
        if pos == seg_end:
            cross_segment(state)
    return out


# -- public kernel entry points --------------------------------------------


def lane_scan_compensated(
    chunk: np.ndarray,
    op,
    tuple_size: int,
    state: np.ndarray,
    pos: int = 0,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One compensated continuation pass of ``chunk``; returns a fresh
    scanned array (``chunk`` is never modified) and advances ``state``
    (a :func:`fresh_state` array) in place.

    ``pos`` is the global index of ``chunk[0]``; outputs are
    bit-identical to the one-shot compensated scan for *any* chunk
    split.  ``out`` may alias ``chunk``: each piece is read before it is
    written.
    """
    op, _ = check_compensated(op, np.asarray(chunk).dtype)
    chunk = np.asarray(chunk)
    if out is None:
        out = np.empty_like(chunk)
    if chunk.size == 0:
        return out
    return _scan_serial(chunk, int(tuple_size), state, int(pos), out)


def compensated_scan_into(
    src: np.ndarray,
    out: np.ndarray,
    op,
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
) -> np.ndarray:
    """Order-``q`` one-shot compensated scan: :func:`repro.kernels.scan_into`
    under ``float_mode="compensated"``, raising ``TypeError`` for a
    non-float dtype or an operator other than ``add``."""
    from repro.kernels.lane import scan_into

    op, _ = check_compensated(op, np.asarray(src).dtype)
    return scan_into(
        src, out, op, order, tuple_size, inclusive, float_mode="compensated",
    )


# -- the sharded driver's reduce kernel -------------------------------------


class CompensatedCollectKernel:
    """Shard reduce-pass kernel: per-segment totals, and nothing else.

    The sharded driver's reduce pass needs only each shard's segment
    totals: the splice chains them into the ``(H, G)`` state entering
    every shard, and the scan pass then renders from it.  ``feed``
    continues the naive value and error chains over each chunk (shards
    start on segment boundaries, so they match the serial chains) and
    keeps each finished segment's ``(T, F)`` totals; it returns nothing
    and keeps no output.
    """

    def __init__(self, op, dtype, tuple_size: int = 1, start: int = 0):
        self.op, self.dtype = check_compensated(op, dtype)
        self.s = int(tuple_size)
        self.pos = int(start)
        if self.pos % segment_span(self.s):
            raise ValueError(
                f"compensated shards must start on a segment boundary "
                f"(multiples of {segment_span(self.s)}), got start={start}"
            )
        self.state = fresh_state(self.dtype, self.s)
        self._totals: List[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk)
        n = chunk.size
        s = self.s
        span = segment_span(s)
        pos = self.pos
        i = 0
        while i < n:
            seg_end = (pos // span + 1) * span
            take = min(n - i, seg_end - pos)
            _piece_naive(chunk[i : i + take], s, self.state, pos)
            pos += take
            i += take
            if pos == seg_end:
                self._totals.append(self.state[[VPART, EPART]].copy())
                self.state[VPART] = NEG_ZERO
                self.state[EPART] = NEG_ZERO
        self.pos = pos

    def segment_totals(self) -> np.ndarray:
        """The shard's ``(K, 2, s)`` per-segment ``(T, F)`` totals — its
        aggregate for the compensated splice.  A trailing partial
        segment (final shard only) contributes its partials."""
        totals = list(self._totals)
        if self.pos % segment_span(self.s):
            totals.append(self.state[[VPART, EPART]].copy())
        if not totals:
            return np.empty((0, 2, self.s), dtype=self.dtype)
        return np.stack(totals)
