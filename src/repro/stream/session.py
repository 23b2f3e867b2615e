"""``ScanSession`` — a prefix scan that accepts its input in chunks.

The paper's central object is the O(1) carry state that lets SAM scan
in a single pass: a persistent block only ever needs its per-order,
per-tuple-lane running totals to continue the scan from wherever it
stopped.  A :class:`ScanSession` generalizes that observation across
*time* instead of across blocks: it holds exactly that state — an
``(order, tuple_size)`` accumulator array plus the number of elements
consumed so far — and ``feed(chunk)`` returns the scanned chunk such
that the concatenation of all outputs is **bit-identical** to a
one-shot scan of the concatenation of all inputs, for every operator,
dtype (floats included), order, tuple size, and both inclusive and
exclusive flavors.  Chunk boundaries are arbitrary: empty chunks,
single elements, and edges that fall inside a tuple stride are all
fine, because the lane of a value is determined by its *global*
position, which the session tracks.

How bit-identity is kept
------------------------

Each of the ``order`` scan passes is continued through the shared
:mod:`repro.kernels` layer:

* **Host path (default).**  Integer chunks take the lean in-place
  kernel (:func:`repro.kernels.lane_scan`): one 2-D accumulate over
  all lanes, carry folded in afterwards — exact because fixed-width
  integer arithmetic is truly associative.  Float chunks take the
  exact prepend kernel (:func:`repro.kernels.lane_scan_exact`): the
  carry row is *prepended* to the chunk and the ufunc accumulate —
  a sequential left fold — reproduces the one-shot scan's exact
  sequence of partial results, float rounding included, which mere
  ``op(carry, local_scan)`` folding would change.  Unprimed lanes
  (no elements seen yet) are scanned without a prepend so that even
  non-identities-in-floating-point like ``0.0 + (-0.0)`` cannot leak
  in.

* **Delegated path (``engine=...``).**  For integer dtypes the chunk's
  stage scan is handed to any one-shot engine (``SamScan``, a
  baseline...) and the carry is folded on afterwards — exact because
  fixed-width integer arithmetic is truly associative (wraparound
  included).  The inner engine is constructed once and reused across
  chunks, so any set-up it does amortizes over the whole stream.  Float inputs silently take
  the exact path: float addition is only pseudo-associative, and the
  session's contract is bit-identity with the one-shot host scan.

* **Float modes.**  The default float contract above is
  ``float_mode="exact"``.  ``float_mode="compensated"`` switches float
  streams to the error-free-carry kernel
  (:mod:`repro.kernels.compensated`): still bit-identical across any
  chunk split, *additionally* bit-identical across thread counts (so
  ``threads=`` applies to floats too) and batchable by the serve
  layer, and more accurate than the naive fold — at the cost of not
  being bit-identical to the exact mode's output.
  ``float_mode="regrouped"`` opts into the fast in-place integer-style
  fold (regrouped rounding).

Sessions serialize their entire state (:meth:`state_dict` /
:meth:`load_state_dict`) with the carry encoded byte-exactly — the
compensated error carry included — which is what makes the out-of-core
driver's checkpoints possible; a configuration hash guards against
resuming somebody else's state.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
from typing import Optional

import numpy as np

from repro import kernels
from repro.ops import get_op
from repro.stream.counters import StreamCounters
from repro.stream.errors import CheckpointMismatchError, SessionStateError


def _engine_label(engine) -> str:
    if engine is None:
        return "host"
    if isinstance(engine, str):
        return engine
    return type(engine).__name__


class ScanSession:
    """Persistent carry state for a chunked generalized prefix scan.

    Parameters
    ----------
    op:
        Operator name or :class:`repro.ops.AssociativeOp`.
    order / tuple_size / inclusive:
        The usual scan generalizations; fixed for the session's
        lifetime (they are part of the carry state's meaning).
    dtype:
        Element dtype.  ``None`` locks it on the first non-configured
        ``feed``; checkpoint-backed sessions always pass it explicitly.
    engine:
        Inner one-shot engine for the per-chunk stage scans: ``None``
        (exact host path), a name accepted by
        :func:`repro.api.resolve_engine`, or a constructed engine
        object.  Only consulted for integer dtypes (see module docs).
    threads:
        ``None`` (default) keeps the serial per-chunk kernel.  An int
        or ``"auto"`` routes integer host-path stage scans through the
        slab-parallel in-memory kernel
        (:func:`repro.kernels.threaded_lane_scan`) — bit-identical for
        integers; exact-mode float chunks keep the serial prepend path
        regardless (compensated-mode chunks *do* thread).  Not part of
        :meth:`config`: like the engine, the thread count never changes
        results, so checkpoints stay portable across it.
    float_mode:
        Float handling: ``"exact"`` (default — bit-identical to the
        one-shot serial scan), ``"compensated"`` (error-free carries:
        bit-identical for any chunk split *and* thread count, more
        accurate than the naive fold, parallel- and batch-friendly), or
        ``"regrouped"`` (the fast in-place fold; regroups rounding).
        Integers ignore it.  Part of :meth:`config` when non-default:
        the mode changes emitted bits, so checkpoints must not cross it.
    """

    def __init__(
        self,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        dtype=None,
        engine=None,
        threads=None,
        float_mode: Optional[str] = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if tuple_size < 1:
            raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
        if float_mode is not None and float_mode not in kernels.FLOAT_MODES:
            raise ValueError(
                f"float_mode must be one of {kernels.FLOAT_MODES}, "
                f"got {float_mode!r}"
            )
        self.op = get_op(op)
        self.order = int(order)
        self.tuple_size = int(tuple_size)
        self.inclusive = bool(inclusive)
        self._float_mode_param = float_mode
        # Resolved when the dtype locks (None for integer dtypes).
        self.float_mode: Optional[str] = None
        self._comp: Optional[np.ndarray] = None
        label = _engine_label(engine)
        if isinstance(engine, str):
            from repro.api import resolve_engine

            engine = resolve_engine(engine)
            if engine is None:  # "host" resolves to the exact path
                label = "host"
        self._engine = engine
        # None = serial kernel; "auto"/0/int = threaded slab kernel for
        # integer host-path chunks (resolved per chunk by the kernel).
        self.threads = threads
        self.counters = StreamCounters(engine_used=label)
        self.dtype: Optional[np.dtype] = None
        self._carry: Optional[np.ndarray] = None
        self._offset = 0
        if dtype is not None:
            self._set_dtype(dtype)

    def __repr__(self) -> str:
        return (
            f"ScanSession(op={self.op.name!r}, order={self.order}, "
            f"tuple_size={self.tuple_size}, inclusive={self.inclusive}, "
            f"dtype={None if self.dtype is None else self.dtype.name}, "
            f"offset={self._offset})"
        )

    # -- configuration & state -------------------------------------------

    @property
    def offset(self) -> int:
        """Total elements consumed so far (the stream position)."""
        return self._offset

    def config(self) -> dict:
        """The session's semantic configuration (engine excluded:
        engines are bit-identical, so a checkpoint taken on one engine
        may be resumed on another).  ``float_mode`` appears only when
        non-default — the mode changes emitted bits, but default-mode
        configs must stay byte-compatible with pre-mode checkpoints."""
        config = {
            "op": self.op.name,
            "order": self.order,
            "tuple_size": self.tuple_size,
            "inclusive": self.inclusive,
            "dtype": None if self.dtype is None else self.dtype.name,
        }
        mode = (
            self.float_mode if self.dtype is not None else self._float_mode_param
        )
        if mode in ("compensated", "regrouped"):
            config["float_mode"] = mode
        return config

    def config_hash(self) -> str:
        return hash_config(self.config())

    def state_dict(self) -> dict:
        """Byte-exact snapshot of the session (JSON-serializable)."""
        if self.dtype is None or self._carry is None:
            raise SessionStateError(
                "cannot snapshot a session before its dtype is known "
                "(pass dtype= at construction or feed a chunk first)"
            )
        state = {
            "offset": int(self._offset),
            "carry": base64.b64encode(self._carry.tobytes()).decode("ascii"),
            "config": self.config(),
            "config_hash": self.config_hash(),
        }
        if self._comp is not None:
            state["comp"] = base64.b64encode(self._comp.tobytes()).decode("ascii")
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by a compatibly-configured session."""
        config = state.get("config", {})
        mine = self.config()
        if config != mine:
            diffs = sorted(
                key
                for key in set(config) | set(mine)
                if config.get(key) != mine.get(key)
            )
            raise CheckpointMismatchError(
                f"session state belongs to a different configuration "
                f"(differs in {', '.join(diffs) or 'structure'}: "
                f"saved {config!r}, this session {mine!r})"
            )
        stored_hash = state.get("config_hash")
        if stored_hash is not None and stored_hash != hash_config(config):
            raise CheckpointMismatchError(
                f"session state is internally inconsistent: its config "
                f"hashes to {hash_config(config)!r} but records "
                f"{stored_hash!r} (edited or corrupted snapshot)"
            )
        raw = base64.b64decode(state["carry"])
        expected = self.order * self.tuple_size * self.dtype.itemsize
        if len(raw) != expected:
            raise CheckpointMismatchError(
                f"carry blob is {len(raw)} bytes, expected {expected}"
            )
        self._carry = (
            np.frombuffer(raw, dtype=self.dtype)
            .reshape(self.order, self.tuple_size)
            .copy()
        )
        if self.float_mode == "compensated":
            blob = state.get("comp")
            if blob is None:
                raise CheckpointMismatchError(
                    "compensated session state is missing its 'comp' "
                    "error-carry blob"
                )
            raw = base64.b64decode(blob)
            expected = self.order * 4 * self.tuple_size * self.dtype.itemsize
            if len(raw) != expected:
                raise CheckpointMismatchError(
                    f"comp blob is {len(raw)} bytes, expected {expected}"
                )
            self._comp = (
                np.frombuffer(raw, dtype=self.dtype)
                .reshape(self.order, 4, self.tuple_size)
                .copy()
            )
        self._offset = int(state["offset"])

    def _set_dtype(self, dtype) -> None:
        self.dtype = self.op.check_dtype(dtype)
        identity = self.op.identity(self.dtype)
        self._carry = np.full(
            (self.order, self.tuple_size), identity, dtype=self.dtype
        )
        self.float_mode = kernels.resolve_float_mode(
            self.dtype, self._float_mode_param
        )
        if self.float_mode == "compensated":
            from repro.kernels.compensated import check_compensated

            # Raises TypeError for unsupported (op, dtype) pairs.
            check_compensated(self.op, self.dtype)
            self._comp = np.stack(
                [
                    kernels.fresh_state(self.dtype, self.tuple_size)
                    for _ in range(self.order)
                ]
            )

    # -- feeding ---------------------------------------------------------

    def feed(self, chunk) -> np.ndarray:
        """Scan the next chunk; returns the scanned values.

        The concatenation of every returned chunk equals the one-shot
        scan of the concatenation of every fed chunk, bit for bit.
        The caller's chunk is never modified.
        """
        return self._feed(chunk, own=False)

    def _feed(self, chunk, own: bool) -> np.ndarray:
        """:meth:`feed`, where ``own=True`` hands the chunk's buffer to
        the session: the scan may run in place in it and return it (the
        file driver reads every chunk into a fresh array it owns)."""
        array = np.asarray(chunk)
        if array.ndim != 1:
            raise ValueError(f"expected a 1-D chunk, got shape {array.shape}")
        if self.dtype is None:
            self._set_dtype(array.dtype)
        else:
            resolved = self.op.check_dtype(array.dtype)
            if resolved != self.dtype:
                raise SessionStateError(
                    f"session is locked to dtype {self.dtype.name}, "
                    f"got a {resolved.name} chunk"
                )
        array = array.astype(self.dtype, copy=False)
        if array.size == 0:
            # Empty chunks are scan no-ops but real feed calls: count
            # them so StreamCounters.chunks always equals the number of
            # feed calls (and agrees with the driver's own chunk count).
            self.counters.chunks += 1
            self.counters.bytes_in += array.nbytes
            return array.copy()

        t0 = time.perf_counter()
        if (
            self.order > 1
            and self._engine is None
            and kernels.fused_supported(
                self.op, self.dtype, self.order, self.tuple_size
            )
        ):
            out = self._feed_fused(array, own)
        else:
            out = array
            for iteration in range(self.order):
                last = iteration == self.order - 1
                out = self._stage_pass(
                    out,
                    iteration,
                    inclusive_output=self.inclusive or not last,
                    # The first pass reads the caller's array (never
                    # mutate it unless the caller handed it over);
                    # later passes own their buffer and scan in place.
                    own=own or iteration > 0,
                )
        self._offset += len(array)
        self.counters.chunks += 1
        self.counters.elements += len(array)
        self.counters.bytes_in += array.nbytes
        self.counters.seconds_scan += time.perf_counter() - t0
        return out

    # -- internals -------------------------------------------------------

    def _feed_fused(self, array: np.ndarray, own: bool) -> np.ndarray:
        """Single-pass fused order-q feed (integer ADD, ``s >= 2``).

        The session's ``(order, tuple_size)`` carry *is* the fused
        carry matrix — row ``j-1`` holds the running order-``j`` lane
        totals — so one :func:`repro.kernels.fused_lane_scan` call
        replaces the ``order`` stage passes and advances the identical
        carry, bit for bit: checkpoints taken on either path resume on
        the other.
        """
        s, q, pos = self.tuple_size, self.order, self._offset
        prev_last = self._carry[q - 1].copy() if not self.inclusive else None
        out = array if own else array.copy()
        perm = kernels.phase_perm(pos, s)
        carry = np.ascontiguousarray(self._carry[:, perm])
        if self.threads is None:
            kernels.fused_lane_scan(out, self.op, s, q, carry)
        else:
            self.counters.threaded_scans += 1
            kernels.threaded_fused_lane_scan(
                out,
                self.op,
                s,
                q,
                carry,
                threads=None if self.threads in ("auto", 0) else self.threads,
            )
        self._carry[:, perm] = carry
        self.counters.fused_order_scans += 1
        if self.inclusive:
            return out
        heads = prev_last[perm]
        heads[perm >= pos] = self.op.identity(self.dtype)
        return kernels.exclusive_shift(out, heads)

    def _lane_scan(self, values, out, carry_row=None) -> np.ndarray:
        """One lane-scan pass: serial kernel, or slab-parallel when the
        session was opened with ``threads=``."""
        if self.threads is None:
            return kernels.lane_scan(
                values, self.op, self.tuple_size, out=out, carry=carry_row
            )
        self.counters.threaded_scans += 1
        return kernels.threaded_lane_scan(
            values,
            self.op,
            self.tuple_size,
            out=out,
            carry=carry_row,
            threads=None if self.threads in ("auto", 0) else self.threads,
        )

    def _seen_lanes(self) -> np.ndarray:
        """Which global lanes have received at least one element: lane
        ``l`` first appears at global index ``l``, so exactly the lanes
        below the stream offset."""
        return np.arange(self.tuple_size) < self._offset

    def _update_carry(self, iteration: int, scanned: np.ndarray) -> None:
        """Fold a scanned chunk's running totals into ``carry[iteration]``."""
        totals = kernels.phase_totals(scanned, self.tuple_size)
        if totals.size:
            lanes = (self._offset + np.arange(totals.size)) % self.tuple_size
            self._carry[iteration, lanes] = totals

    def _stage_pass(
        self,
        values: np.ndarray,
        iteration: int,
        inclusive_output: bool,
        own: bool,
    ) -> np.ndarray:
        prev_carry = self._carry[iteration].copy()
        incl = self._stage_inclusive(values, iteration, own)
        if inclusive_output:
            return incl
        # Exclusive = the lane-shifted inclusive continuation.  The
        # shifted-in heads are the lanes' pre-chunk running totals (or
        # the identity at the very start of the stream) — exactly the
        # values the one-shot exclusive shift would place there.
        s = self.tuple_size
        perm = kernels.phase_perm(self._offset, s)
        heads = prev_carry[perm]
        heads[perm >= self._offset] = self.op.identity(self.dtype)
        return kernels.exclusive_shift(incl, heads)

    def _stage_inclusive(
        self, values: np.ndarray, iteration: int, own: bool
    ) -> np.ndarray:
        """One inclusive stage pass; updates ``carry[iteration]``."""
        if self._engine is not None and self.dtype.kind in "iu":
            return self._stage_inclusive_delegated(values, iteration)
        return self._stage_inclusive_host(values, iteration, own)

    def _stage_inclusive_host(
        self, values: np.ndarray, iteration: int, own: bool
    ) -> np.ndarray:
        op, s, pos = self.op, self.tuple_size, self._offset
        carry = self._carry[iteration]
        if self.dtype.kind in "iu" or self.float_mode == "regrouped":
            # Fixed-width integers are truly associative, so the lean
            # in-place kernel applies: accumulate all lanes in one 2-D
            # call, fold the carry afterwards — no prepend copies (the
            # ROADMAP port of the sharded driver's ``_LaneKernel``).
            # With threads= requested the same pass runs slab-parallel
            # (bit-identical: integer regrouping is exact).  Regrouped
            # floats opt into the same fold, regrouped rounding and all.
            scan = self._lane_scan
            out = values if own else np.empty_like(values)
            if pos >= s:
                row = carry[kernels.phase_perm(pos, s)] if s > 1 else carry
                scan(values, out, carry_row=row)
            elif pos > 0:
                # Stream younger than one stride: only lanes < pos
                # carry state; fold those lanes alone.
                scan(values, out)
                kernels.fold_lanes(
                    out, op, carry, pos=pos, tuple_size=s, seen=self._seen_lanes()
                )
            else:
                scan(values, out)
        elif self.float_mode == "compensated":
            # Error-free carries: deterministic for any chunk split and
            # thread count, so — unlike the exact prepend path — the
            # compensated pass may thread.
            threads = None
            if self.threads is not None:
                threads = "auto" if self.threads in ("auto", 0) else self.threads
                self.counters.threaded_scans += 1
            out = kernels.lane_scan_compensated(
                values, op, s, self._comp[iteration], pos, threads=threads
            )
        else:
            # Floats are only pseudo-associative: bit-identity needs
            # the exact prepend continuation (vectorized across lanes).
            out = kernels.lane_scan_exact(
                values, op, s, carry, self._seen_lanes(), pos
            )
        self._update_carry(iteration, out)
        return out

    def _stage_inclusive_delegated(
        self, values: np.ndarray, iteration: int
    ) -> np.ndarray:
        # A stride-s local scan does not depend on how lanes are
        # *labelled*, only on the stride — so the inner engine can scan
        # any chunk alignment; the carry fold below maps global lane l
        # to its in-chunk phase.
        result = self._engine.run(
            values,
            order=1,
            tuple_size=self.tuple_size,
            op=self.op,
            inclusive=True,
        )
        local = np.asarray(result.values)
        if not local.flags.writeable:
            local = local.copy()
        self.counters.delegated_stage_scans += 1
        s, pos = self.tuple_size, self._offset
        carry = self._carry[iteration]
        if pos > 0:
            kernels.fold_lanes(
                local,
                self.op,
                carry,
                pos=pos,
                tuple_size=s,
                seen=None if pos >= s else self._seen_lanes(),
            )
        self._update_carry(iteration, local)
        return local


def hash_config(config: dict) -> str:
    """Stable hash of a session configuration (used by checkpoints)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
