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

The carry continuation itself is :class:`repro.kernels.LaneKernel`,
the one state machine every stream driver holds (slab-parallel when
``threads=`` is set).  The session adds only what a stream needs
around it: the dtype lock, the counters, the exclusive epilogue and
the serialized state.  Per order, the kernel continues each chunk in
one of its modes:

* **The head fold (default, every dtype).**  Each lane's carry is
  folded into its first element of the chunk, then one 2-D accumulate
  scans all lanes: the ufunc accumulate is a sequential left fold, so
  this reproduces the one-shot scan's exact sequence of partial
  results, float rounding included.  Lanes with no element yet fold
  nothing, so that even non-identities-in-floating-point like
  ``0.0 + (-0.0)`` cannot leak in.  At ``order >= 2`` and
  ``tuple_size >= 2`` one single-pass tile scan advances all orders at
  once.

* **Delegated path (``engine=...``).**  For integer dtypes the chunk's
  stage scan is handed to any one-shot engine (``SamScan``, a
  baseline...), with the carry folded into the chunk's head first.
  The inner engine is constructed once and reused across chunks, so
  any set-up it does amortizes over the whole stream.  Float inputs
  silently take the head fold on the host: the session's contract is
  bit-identity with the one-shot host scan.

* **Float modes.**  The default float contract above is
  ``float_mode="exact"``.  ``float_mode="compensated"`` switches float
  streams to the error-free-carry kernel
  (:mod:`repro.kernels.compensated`): still bit-identical across any
  chunk split, *additionally* bit-identical across shard counts and
  batchable by the serve layer, and more accurate than the naive fold — at the cost of not
  being bit-identical to the exact mode's output.
  ``float_mode="regrouped"`` opts into the slab-parallel splice under
  ``threads=`` (regrouped rounding); serially it is the head fold.

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
        ``None`` (default) keeps the serial per-chunk kernel.  An int,
        ``0`` or ``"auto"`` makes the kernel's row-kind passes
        slab-parallel — bit-identical for integers; fused order-``q``
        chunks, exact-mode float chunks and compensated-mode chunks
        scan serially regardless
        (:func:`repro.kernels.threaded.runs_slabs`).  Invalid values raise
        ``ValueError`` here, for every dtype.  Not part of
        :meth:`config`: like the engine, the thread count never
        changes results, so checkpoints stay portable across it.
    float_mode:
        Float handling: ``"exact"`` (default — bit-identical to the
        one-shot serial scan), ``"compensated"`` (error-free carries:
        bit-identical for any chunk split *and* thread count, more
        accurate than the naive fold, parallel- and batch-friendly), or
        ``"regrouped"`` (slab-parallel under ``threads=``, regrouping
        rounding at the splice; serially the same bytes as ``"exact"``).
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
        label = _engine_label(engine)
        if isinstance(engine, str):
            from repro.api import resolve_engine

            engine = resolve_engine(engine)
            if engine is None:  # "host" resolves to the exact path
                label = "host"
        self.engine = engine
        # None = serial passes; "auto" (also given as 0) or an int =
        # slab-parallel passes.
        self.threads = kernels.check_threads(threads)
        #: The carry state machine; built when the dtype locks.
        self.kernel: Optional[kernels.LaneKernel] = None
        self.counters = StreamCounters(engine_used=label)
        self.dtype: Optional[np.dtype] = None
        if dtype is not None:
            self._set_dtype(dtype)

    def __repr__(self) -> str:
        return (
            f"ScanSession(op={self.op.name!r}, order={self.order}, "
            f"tuple_size={self.tuple_size}, inclusive={self.inclusive}, "
            f"dtype={None if self.dtype is None else self.dtype.name}, "
            f"offset={self.offset})"
        )

    # -- configuration & state -------------------------------------------

    @property
    def offset(self) -> int:
        """Total elements consumed so far (the stream position)."""
        return 0 if self.kernel is None else self.kernel.pos

    @property
    def counters(self) -> StreamCounters:
        """The session's counters; the kernel counts its passes
        (threaded, fused, delegated) straight into them."""
        return self._counters

    @counters.setter
    def counters(self, counters: StreamCounters) -> None:
        self._counters = counters
        if self.kernel is not None:
            self.kernel.counters = counters

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
        if self.kernel is None:
            raise SessionStateError(
                "cannot snapshot a session before its dtype is known "
                "(pass dtype= at construction or feed a chunk first)"
            )
        kernel = self.kernel
        state = {
            "offset": int(kernel.pos),
            "carry": base64.b64encode(kernel.carry.tobytes()).decode("ascii"),
            "config": self.config(),
            "config_hash": self.config_hash(),
        }
        if kernel.comp is not None:
            state["comp"] = base64.b64encode(kernel.comp.tobytes()).decode("ascii")
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by a compatibly-configured session.

        Snapshots arrive from checkpoint files and serve RESTORE
        frames, so every field is validated: anything malformed raises
        :class:`CheckpointMismatchError` and leaves the session as it
        was.
        """
        if not isinstance(state, dict):
            raise CheckpointMismatchError(
                f"session state must be a mapping, got {type(state).__name__}"
            )
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
        if self.kernel is None:
            raise CheckpointMismatchError("session state records no dtype")
        offset = state.get("offset")
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise CheckpointMismatchError(
                f"session state offset must be a non-negative integer, "
                f"got {offset!r}"
            )
        shape = (self.order, self.tuple_size)
        carry = self._decode_blob(state, "carry", shape)
        comp = None
        if self.kernel.comp is not None:
            comp = self._decode_blob(
                state, "comp", (self.order, 4, self.tuple_size)
            )
        self.kernel.load_state(offset, carry, comp)

    def _decode_blob(self, state: dict, key: str, shape) -> np.ndarray:
        blob = state.get(key)
        if not isinstance(blob, str):
            raise CheckpointMismatchError(
                f"session state is missing its {key!r} blob"
            )
        try:
            raw = base64.b64decode(blob, validate=True)
        except ValueError as exc:  # binascii.Error included
            raise CheckpointMismatchError(
                f"{key} blob is not valid base64: {exc}"
            ) from exc
        expected = int(np.prod(shape)) * self.dtype.itemsize
        if len(raw) != expected:
            raise CheckpointMismatchError(
                f"{key} blob is {len(raw)} bytes, expected {expected}"
            )
        return np.frombuffer(raw, dtype=self.dtype).reshape(shape)

    def _set_dtype(self, dtype) -> None:
        self.dtype = self.op.check_dtype(dtype)
        self.float_mode = kernels.resolve_float_mode(
            self.dtype, self._float_mode_param
        )
        kernel = kernels.LaneKernel(
            self.op, self.dtype, self.tuple_size, order=self.order,
            float_mode=self.float_mode, engine=self.engine, threads=self.threads,
        )
        kernel.counters = self.counters
        self.kernel = kernel

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
        counters = self._counters
        if array.size == 0:
            # Empty chunks are scan no-ops but real feed calls: count
            # them so StreamCounters.chunks always equals the number of
            # feed calls (and agrees with the driver's own chunk count).
            counters.chunks += 1
            counters.bytes_in += array.nbytes
            return array.copy()

        t0 = time.perf_counter()
        kernel = self.kernel
        # Exclusive = the lane-shifted inclusive continuation; the
        # shifted-in heads are the lanes' pre-chunk running totals (or
        # the identity at the very start of the stream), exactly the
        # values the one-shot exclusive shift would place there.
        heads = None if self.inclusive else kernel.heads()
        out = kernel.feed(array, inplace=own)
        if heads is not None:
            out = kernels.exclusive_shift(out, heads)
        counters.chunks += 1
        counters.elements += array.size
        counters.bytes_in += array.nbytes
        counters.seconds_scan += time.perf_counter() - t0
        return out


def hash_config(config: dict) -> str:
    """Stable hash of a session configuration (used by checkpoints)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
