"""The top-level user API.

Thin, validated wrappers over the fast host engine
(:mod:`repro.core.host`).  Every scan-shaped function accepts an
optional ``engine`` — either a name from :data:`ENGINE_NAMES`
(``"threaded"`` runs the slab-parallel multicore kernel,
``"sam"``/``"lookback"``/... run the simulated-GPU engines,
``"host"`` forces the serial-equivalent fast path) or any object with
``run(values, order=..., tuple_size=..., op=..., inclusive=...)`` such
as :class:`repro.core.SamScan`, :class:`repro.kernels.ThreadedScan`
or a baseline.  All engines are bit-identical; they differ in what
else they give you (measured traffic, real parallel speedup, ...).

Inputs that do not fit one call go through :mod:`repro.stream`:
:func:`open_session` returns a :class:`~repro.stream.ScanSession` that
accepts input in chunks (engines are wrapped, not added — any engine
can scan the chunks), and :func:`scan_file` runs a whole
larger-than-memory file out of core with durable, resumable
checkpoints.

When the caller pins nothing — ``repro.scan(x)``,
``repro.prefix_sum(x)``, ``repro.scan_file(in, out)`` with no
``engine``/``threads``/``shards``/``chunk_bytes`` — the execution
strategy is chosen by :mod:`repro.plan` from the workload and the
machine (``engine="auto"`` names the planner explicitly; every other
explicit flag always wins).  :func:`explain` prints the planner's
gate table without running anything.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.host import (
    host_delta_decode,
    host_delta_encode,
    host_prefix_sum,
    host_scan,
)
from repro.ops import ADD, get_op

#: Engine names accepted by :func:`resolve_engine` (and therefore by the
#: ``engine=`` parameter of every scan-shaped API function).
ENGINE_NAMES = (
    "auto",
    "host",
    "threaded",
    "sam",
    "sam_chained",
    "lookback",
    "reduce_scan",
    "three_phase",
    "streamscan",
)


def _wants_planner(engine) -> bool:
    """Whether an ``engine=`` value asks for the planner: unset, or the
    explicit name ``"auto"``."""
    return engine is None or (
        isinstance(engine, str) and engine.lower() == "auto"
    )


def resolve_engine(engine, float_mode=None):
    """Map an engine name to a constructed engine (lazily imported).

    ``None`` and ``"host"`` resolve to ``None`` — the callers' fast
    host path.  So does ``"auto"``: the planner is consulted by the
    API entry points that own a whole workload (:func:`scan`,
    :func:`prefix_sum`, :func:`scan_file`); in engine-object positions
    that only see one chunk at a time there is nothing to plan over,
    and the host path is the planner's serial strategy.
    Already-constructed engine objects pass through unchanged, so
    callers can keep handing in configured instances.

    ``float_mode`` threads the float contract into the engines that
    implement it (``"threaded"``; the host path and the planner handle
    it at their own entry points).  The simulated-GPU engines
    implement only the exact contract, so a non-exact mode on those
    names is an error rather than a silent downgrade.
    """
    if engine is None or not isinstance(engine, str):
        return engine
    name = engine.lower()
    if name in ("host", "auto"):
        return None
    if name == "threaded":
        from repro.kernels import ThreadedScan

        return ThreadedScan(float_mode=float_mode)
    if float_mode not in (None, "exact"):
        raise ValueError(
            f"engine {engine!r} implements only the exact float contract; "
            f"float_mode={float_mode!r} needs engine='threaded', the host "
            f"path, or the planner (engine='auto')"
        )
    if name in ("sam", "sam_chained"):
        from repro.core import SamScan

        scheme = "chained" if name == "sam_chained" else "decoupled"
        return SamScan(carry_scheme=scheme)
    if name == "lookback":
        from repro.baselines import DecoupledLookbackScan

        return DecoupledLookbackScan()
    if name == "reduce_scan":
        from repro.baselines import ReduceThenScan

        return ReduceThenScan()
    if name == "three_phase":
        from repro.baselines import ThreePhaseScan

        return ThreePhaseScan()
    if name == "streamscan":
        from repro.baselines import StreamScan

        return StreamScan()
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)} "
        f"or an engine object"
    )


def prefix_sum(
    values,
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    engine=None,
    float_mode=None,
) -> np.ndarray:
    """Generalized prefix sum (order-``q``, tuple-``s``).

    ``order=1, tuple_size=1`` is the conventional prefix sum; higher
    orders decode higher-order difference sequences; tuple sizes > 1
    compute ``s`` interleaved independent prefix sums.

    ``float_mode`` picks the float contract for float dtypes:
    ``"exact"`` (default) reproduces the sequential left fold bit for
    bit, ``"compensated"`` runs the error-free-carry scan — more
    accurate than the naive fold and deterministically parallelizable —
    and ``"regrouped"`` allows carry-fold rounding differences.
    Integer inputs ignore it.

    >>> import numpy as np
    >>> prefix_sum(np.array([1, 1, 1, 1], dtype=np.int32)).tolist()
    [1, 2, 3, 4]
    >>> prefix_sum(np.array([1, 1, 1, 1], dtype=np.int32), order=2).tolist()
    [1, 3, 6, 10]
    >>> prefix_sum(np.array([1, 10, 1, 10], dtype=np.int32), tuple_size=2).tolist()
    [1, 10, 2, 20]
    """
    if _wants_planner(engine):
        from repro.plan import auto_scan

        return auto_scan(
            values, op=ADD, order=order, tuple_size=tuple_size,
            inclusive=inclusive, float_mode=float_mode,
        )
    engine = resolve_engine(engine, float_mode=float_mode)
    if engine is not None:
        return engine.run(
            values, order=order, tuple_size=tuple_size, op=ADD, inclusive=inclusive
        ).values
    return host_prefix_sum(
        values, order=order, tuple_size=tuple_size, op=ADD,
        inclusive=inclusive, float_mode=float_mode,
    )


def scan(
    values,
    op="add",
    tuple_size: int = 1,
    inclusive: bool = True,
    engine=None,
    float_mode=None,
) -> np.ndarray:
    """Generalized prefix scan with an arbitrary associative operator.

    ``op`` is a built-in name (``add``, ``max``, ``min``, ``xor``,
    ``and``, ``or``, ``mul``) or a :class:`repro.ops.AssociativeOp`.
    ``float_mode`` works as in :func:`prefix_sum` (compensated mode
    supports float ``add`` only).

    >>> import numpy as np
    >>> scan(np.array([3, 1, 4, 1, 5], dtype=np.int32), op="max").tolist()
    [3, 3, 4, 4, 5]
    """
    if _wants_planner(engine):
        from repro.plan import auto_scan

        return auto_scan(
            values, op=op, order=1, tuple_size=tuple_size,
            inclusive=inclusive, float_mode=float_mode,
        )
    engine = resolve_engine(engine, float_mode=float_mode)
    if engine is not None:
        return engine.run(
            values, tuple_size=tuple_size, op=get_op(op), inclusive=inclusive
        ).values
    return host_scan(
        values, op=op, tuple_size=tuple_size, inclusive=inclusive,
        float_mode=float_mode,
    )


def delta_encode(values, order: int = 1, tuple_size: int = 1) -> np.ndarray:
    """Order-``q``, tuple-``s`` delta encoding (difference sequence).

    The paper's motivating data model: replaces each value with its
    difference from the lane predecessor, ``order`` times.  Exactly
    inverted by :func:`delta_decode` under wraparound arithmetic.
    (Encoding is embarrassingly parallel — there is nothing for a scan
    engine to do, so no ``engine`` parameter here.)
    """
    return host_delta_encode(values, order=order, tuple_size=tuple_size)


def delta_decode(deltas, order: int = 1, tuple_size: int = 1, engine=None) -> np.ndarray:
    """Decode a difference sequence — i.e. the generalized prefix sum."""
    engine = resolve_engine(engine)
    if engine is not None:
        return engine.run(deltas, order=order, tuple_size=tuple_size).values
    return host_delta_decode(deltas, order=order, tuple_size=tuple_size)


def open_session(
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    dtype=None,
    engine=None,
    threads=None,
    float_mode=None,
):
    """Open a streaming scan session (chunked input, persistent carry).

    Returns a :class:`repro.stream.ScanSession`: call
    ``session.feed(chunk)`` repeatedly; the concatenated outputs are
    bit-identical to the one-shot scan of the concatenated inputs, for
    arbitrary chunk boundaries.  ``engine`` selects the inner engine
    the chunks are scanned on (same names/objects as everywhere else);
    ``threads`` (an int or ``"auto"``) additionally runs row-kind
    host-path chunk scans on the slab-parallel in-memory kernel (fused
    and compensated scans stay serial) — results are unchanged.  ``float_mode`` picks the session's float
    contract (``"exact"`` default, ``"compensated"``, ``"regrouped"``
    — see :class:`repro.stream.ScanSession`).

    >>> import numpy as np
    >>> session = open_session(order=2)
    >>> session.feed(np.array([1, 1], dtype=np.int32)).tolist()
    [1, 3]
    >>> session.feed(np.array([1, 1], dtype=np.int32)).tolist()
    [6, 10]
    """
    from repro.stream import ScanSession

    return ScanSession(
        op=op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        dtype=dtype,
        engine=engine,
        threads=threads,
        float_mode=float_mode,
    )


def scan_file(
    input_path,
    output_path,
    *,
    dtype="int32",
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    engine=None,
    chunk_bytes: int = None,
    checkpoint=None,
    checkpoint_every: int = None,
    resume: bool = False,
    shards: int = None,
    workers: int = None,
    float_mode: str = None,
    threads=None,
    adaptive_chunks: bool = None,
    input_format: str = "auto",
    output_format: str = "raw",
    output_block_elements: int = None,
    output_codec_order: int = None,
):
    """Scan a binary file out of core (see :mod:`repro.stream`).

    Reads ``input_path`` in chunks of ``chunk_bytes`` (one read into
    one of two reused chunk buffers, scanned in place by a session on
    ``engine``; chunk i+1 is prefetched while chunk i scans, and a
    one-chunk job runs on the calling thread alone) and writes the
    scanned stream to ``output_path`` — bit-identical to a one-shot
    scan but with peak memory bounded by a few chunks.  With
    ``checkpoint=path`` progress is persisted atomically every
    ``checkpoint_every`` chunks and an interrupted job continues under
    ``resume=True``.  Returns a :class:`repro.stream.StreamResult`.

    With ``shards=N`` (N > 1) the job runs on the sharded driver
    instead (:func:`repro.stream.scan_file_sharded`): the input is cut
    into N contiguous shards, reduced and then scanned from their
    spliced carries by up to ``workers`` threads; ``checkpoint`` then
    names a per-shard manifest and resume re-runs only unfinished
    shards.  Order ``q >= 2`` shards integer ``add`` only; other
    operators run the single-stream driver.  Float inputs
    stay on the sequential exact path unless ``float_mode`` says
    otherwise: ``"compensated"`` shards floats deterministically
    through error-free carries (bit-identical for any shard count),
    ``"regrouped"`` shards with carry-fold rounding.  Returns a
    :class:`repro.stream.ShardedResult`.

    ``threads`` opts chunk scans into the slab-parallel in-memory
    kernel (per session, or per shard task with the combined
    oversubscription guard — see :mod:`repro.kernels.threaded`);
    ``adaptive_chunks`` toggles measured-phase-seconds chunk sizing
    (default: on for sharded jobs, off for single-session jobs).

    ``input_format`` / ``output_format`` fuse compression into the
    pipeline: ``input_format="auto"`` (the default) sniffs blocked
    ``.samb`` containers — their dtype and count come from the
    container header — and ``output_format="blocked"`` writes the
    scanned stream back out compressed (single-session driver only: a
    ``.samb`` container is written by one sequential writer, while
    shards write their regions concurrently, so ``shards > 1`` with
    blocked output is an error).  ``output_block_elements`` /
    ``output_codec_order`` tune the written container.

    With *none* of ``engine``/``shards``/``workers``/``chunk_bytes``/
    ``threads`` pinned (or ``engine="auto"``), :mod:`repro.plan` picks
    the driver and its chunk size: the single-session driver, which
    beat the sharded and slab-threaded arms in a same-run A/B at every
    size measured.  The decision lands in the result's
    ``counters.planner_strategy``.  A job resumed from an
    existing checkpoint keeps the driver family the checkpoint was
    written by, whatever the planner would pick today.
    """
    from repro import stream

    if output_format not in ("raw", "blocked"):
        raise ValueError(
            f"output_format must be 'raw' or 'blocked', got {output_format!r}"
        )
    if output_format == "blocked" and shards is not None and shards > 1:
        raise ValueError(
            "blocked output is a single-session feature: a .samb container "
            "is written by one sequential writer, and shards write their "
            "regions concurrently (drop shards= or output_format='blocked')"
        )
    format_kwargs = {"input_format": input_format}
    out_kwargs = dict(format_kwargs, output_format=output_format)
    if output_block_elements is not None:
        out_kwargs["output_block_elements"] = output_block_elements
    if output_codec_order is not None:
        out_kwargs["output_codec_order"] = output_codec_order

    if (
        _wants_planner(engine)
        and output_format == "raw"
        and not any(
            knob is not None
            for knob in (shards, workers, chunk_bytes, threads)
        )
    ):
        return _scan_file_planned(
            input_path,
            output_path,
            dtype=dtype,
            op=op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
            float_mode=float_mode,
            adaptive_chunks=adaptive_chunks,
            input_format=input_format,
        )
    if _wants_planner(engine):
        engine = None  # pinned knobs win; "auto" degrades to the host path

    if shards is not None and shards > 1:
        kwargs = {}
        if chunk_bytes is not None:
            kwargs["chunk_bytes"] = chunk_bytes
        if adaptive_chunks is not None:
            kwargs["adaptive_chunks"] = adaptive_chunks
        return stream.scan_file_sharded(
            input_path,
            output_path,
            dtype=dtype,
            op=op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            engine=engine,
            shards=shards,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            float_mode=float_mode,
            threads=threads,
            **format_kwargs,
            **kwargs,
        )

    kwargs = {}
    if chunk_bytes is not None:
        kwargs["chunk_bytes"] = chunk_bytes
    if checkpoint_every is not None:
        kwargs["checkpoint_every"] = checkpoint_every
    if adaptive_chunks is not None:
        kwargs["adaptive_chunks"] = adaptive_chunks
    return stream.scan_file(
        input_path,
        output_path,
        dtype=dtype,
        op=op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        engine=engine,
        checkpoint=checkpoint,
        resume=resume,
        threads=threads,
        float_mode=float_mode,
        **out_kwargs,
        **kwargs,
    )


def _scan_file_planned(
    input_path,
    output_path,
    *,
    dtype,
    op,
    order,
    tuple_size,
    inclusive,
    checkpoint,
    checkpoint_every,
    resume,
    float_mode=None,
    adaptive_chunks=None,
    input_format="auto",
):
    """Flag-less :func:`scan_file`: plan the driver and dispatch.

    Resume pinning: a checkpoint written by a previous run fixes the
    driver *family* (single-session checkpoint vs per-shard manifest),
    because a job started with pinned shards must finish on the
    structure that started it, whatever the planner picks today.
    """
    from repro import stream
    from repro.plan import plan_file_scan

    if resume and checkpoint is not None and os.path.exists(checkpoint):
        pinned = _pinned_resume_strategy(checkpoint)
        if pinned is not None:
            kind, shard_count = pinned
            if kind == "sharded":
                return stream.scan_file_sharded(
                    input_path, output_path, dtype=dtype, op=op, order=order,
                    tuple_size=tuple_size, inclusive=inclusive,
                    shards=shard_count, checkpoint=checkpoint, resume=True,
                    float_mode=float_mode, input_format=input_format,
                )
            kwargs = {}
            if checkpoint_every is not None:
                kwargs["checkpoint_every"] = checkpoint_every
            return stream.scan_file(
                input_path, output_path, dtype=dtype, op=op, order=order,
                tuple_size=tuple_size, inclusive=inclusive,
                checkpoint=checkpoint, resume=True, float_mode=float_mode,
                input_format=input_format, **kwargs,
            )

    plan = plan_file_scan(
        input_path,
        dtype,
        op=op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        input_format=input_format,
        float_mode=float_mode,
    )
    kwargs = {}
    if checkpoint_every is not None:
        kwargs["checkpoint_every"] = checkpoint_every
    if adaptive_chunks is not None:
        kwargs["adaptive_chunks"] = adaptive_chunks
    result = stream.scan_file(
        input_path, output_path, dtype=dtype, op=op, order=order,
        tuple_size=tuple_size, inclusive=inclusive, checkpoint=checkpoint,
        resume=resume, float_mode=float_mode,
        chunk_bytes=plan.chosen.params["chunk_bytes"],
        # The plan already sniffed the input: pass on its answer so the
        # driver does not open and read the header a second time.
        input_format=(
            "blocked"
            if plan.workload.source == "compressed-file"
            else "raw"
        ),
        **kwargs,
    )
    result.counters.planner_strategy = plan.chosen.label
    return result


def _pinned_resume_strategy(checkpoint):
    """Which driver family an existing checkpoint file belongs to:
    ``("stream", None)``, ``("sharded", num_shards)``, or ``None`` when
    the file is unreadable (the drivers then report the real error)."""
    import json

    from repro.stream.checkpoint import CHECKPOINT_KIND, MANIFEST_KIND

    try:
        with open(checkpoint, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == MANIFEST_KIND:
            return ("sharded", max(2, len(payload.get("shards", [])) or 2))
        if kind == CHECKPOINT_KIND:
            return ("stream", None)
    except (OSError, ValueError):
        pass
    return None


def explain(
    values=None,
    *,
    input_path=None,
    dtype=None,
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    float_mode=None,
):
    """The planner's gate table for a workload, without running it.

    Describe the workload by example (``values`` — an array), or by
    file (``input_path`` + ``dtype``).  Returns the
    :class:`repro.plan.Plan`; printing it shows every gate the
    planner walked, the input it read and its verdict, and why the
    chosen strategy won (the CLI form is
    ``python -m repro scan --explain``).

    >>> import numpy as np
    >>> plan = explain(np.ones(4, dtype=np.int64))
    >>> plan.chosen.strategy
    'serial'
    """
    from repro.plan import explain_scan, plan_file_scan

    if values is not None:
        return explain_scan(
            values, op=op, order=order, tuple_size=tuple_size,
            inclusive=inclusive, float_mode=float_mode,
        )
    if input_path is None:
        raise ValueError("explain needs either values or input_path (+ dtype)")
    return plan_file_scan(
        input_path,
        dtype if dtype is not None else "int32",
        op=op,
        order=order,
        tuple_size=tuple_size,
        inclusive=inclusive,
        float_mode=float_mode,
    )


def connect(address, **kwargs):
    """Connect to a running scan server (``python -m repro serve``).

    ``address`` is ``"host:port"``, ``"unix:/path"``, or a unix socket
    path.  Returns a :class:`repro.serve.ScanClient` — the served
    counterpart of :func:`open_session`: ``client.open(name, ...)``
    then ``client.feed(name, chunk)``; concatenated outputs are
    bit-identical to the one-shot scan, and survive server restarts
    when the server checkpoints.

    >>> client = connect("127.0.0.1:7777")   # doctest: +SKIP
    >>> client.open("ticks", op="add", dtype="int64")  # doctest: +SKIP
    """
    from repro.serve import ScanClient

    return ScanClient(address, **kwargs)
