#!/usr/bin/env python
"""Differential fuzzing of every scan engine against the serial oracle.

Randomizes the whole configuration space — engine, size (including
non-powers-of-two), dtype, operator, order, tuple size,
inclusive/exclusive, block geometry, carry scheme, schedule policy —
and demands bit-identical agreement with the serial reference.  This
complements the hypothesis property tests with long-running,
wider-spectrum search.

Usage:
    python tools/fuzz_engines.py --iterations 200 --seed 1
    python tools/fuzz_engines.py --iterations 0     # run forever
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.baselines import (
    DecoupledLookbackScan,
    ReduceThenScan,
    StreamScan,
    ThreePhaseScan,
)
from repro.core import SamScan
from repro.kernels import lane as lane_mod
from repro.ops import get_op
from repro.reference import prefix_sum_serial

ENGINES = (
    "sam", "sam_chained", "lookback", "reduce_scan", "three_phase",
    "streamscan", "stream", "sharded",
    "threaded", "plan", "compressed", "float_eft", "fused_order", "file",
)

#: Strategies the "plan" kind forces through the planner's dispatcher
#: (None = let the planner choose, which is itself a dispatch arm).
PLAN_FORCES = (None, "serial", "threaded:2", "threaded:3")
OPERATORS = ("add", "max", "min", "xor", "and", "or")
DTYPES = (np.int32, np.int64, np.uint32, np.uint64)
#: The "float_eft" kind's differential matrix: compensated output must
#: be bit-identical across every cell (and the session-split arm).
FLOAT_EFT_SHARDS = (1, 2, 4)
POLICIES = ("round_robin", "reversed", "rotating", "random")
#: The "file" kind's dtypes (integers plus exact-mode floats) and the
#: operators a float scan accepts.
FILE_DTYPES = DTYPES + (np.float32, np.float64)
FLOAT_OPERATORS = ("add", "max", "min")
#: The "file" kind's chunk budgets, relative to the file size.
FILE_CHUNKS = ("element", "below", "exact", "above")
#: The "compressed" kind's signal shapes: a small-step random walk from
#: a random offset (one-byte residuals behind wide block heads — the
#: decoder's narrow path), a uniform draw in +-2**16 (two- and
#: three-byte residuals) and the dtype's full range (the widest).
COMPRESSED_SHAPES = ("walk", "uniform", "full")
#: The "stream" kind's session thread settings, and its float arms
#: (``None`` keeps the integer draw).
STREAM_THREADS = (None, 2, "auto")
STREAM_FLOAT_MODES = (None, "exact", "compensated", "regrouped")
#: One in this many "stream", "file" and "compressed" configurations
#: redraws its size to span a few scratch tiles of the ``s == 1``
#: lane-pair scan, which the default sizes never fill.
TILE_DRAW_ODDS = 4


def _tile_elements(dtype) -> int:
    """Elements in one scratch tile of the ``s == 1`` lane-pair scan."""
    return lane_mod._PAIR_TILE_BYTES // np.dtype(dtype).itemsize


def _maybe_tile_sized(config, rng, dtype) -> bool:
    """Sometimes redraw an integer configuration's ``n`` to three to six
    lane-pair tiles of ``dtype``, at tuple size 1 (the only one the
    lane-pair path serves); returns whether it did.  Three tiles at
    least, so the "stream" kind's chunks (up to a third of the input)
    can span a tile too.  Drawn from the data ``rng`` so the
    configurations of the other kinds do not shift."""
    if np.dtype(dtype).kind not in "iu" or rng.integers(0, TILE_DRAW_ODDS):
        return False
    tile = _tile_elements(dtype)
    config.update(n=int(rng.integers(3 * tile, 6 * tile)), tuple_size=1,
                  tile_sized=True)
    return True


def _oracle(config, values, order, tuple_size, op, inclusive):
    """The serial reference, or for a tile-sized configuration the same
    scan through numpy's 1-D accumulate: a sequential left fold with the
    dtype pinned, so integer wraparound matches, and not the lane-pair
    code under test.  The Python-loop reference would take seconds on
    each of those."""
    if not config.get("tile_sized"):
        return prefix_sum_serial(values, order=order, tuple_size=tuple_size,
                                 op=op, inclusive=inclusive)
    op = get_op(op)
    out = values.copy()
    for _ in range(order):
        op.accumulate(out, out=out)
    if inclusive or not out.size:
        return out
    shifted = np.empty_like(out)
    shifted[0] = op.identity(out.dtype)
    shifted[1:] = out[:-1]
    return shifted


class TileCrossings:
    """Counts configurations whose scan ran one ``s == 1`` lane-pair
    call over more than one scratch tile, by wrapping the kernel's
    ``_pair_scan`` for the life of the fuzzing run."""

    def __init__(self):
        self._real = lane_mod._pair_scan
        self.crossed = False
        self.configs = 0

        def spy(src, op, out, head):
            if src.size > _tile_elements(src.dtype):
                self.crossed = True
            return self._real(src, op, out, head)

        lane_mod._pair_scan = spy

    def tally(self) -> None:
        """Close one configuration."""
        self.configs += self.crossed
        self.crossed = False

    def close(self) -> None:
        lane_mod._pair_scan = self._real


def random_config(rng, engines=ENGINES):
    """One random engine configuration + workload."""
    engine_kind = rng.choice(engines)
    threads = int(rng.choice([32, 64, 128]))
    items = int(rng.choice([1, 2, 4]))
    policy = str(rng.choice(POLICIES))
    config = {
        "engine": engine_kind,
        "threads_per_block": threads,
        "items_per_thread": items,
        "policy": policy,
        "n": int(rng.integers(0, 6000)),
        "dtype": rng.choice(DTYPES),
        "op": str(rng.choice(OPERATORS)),
        "order": int(rng.integers(1, 5)),
        "tuple_size": int(rng.integers(1, 9)),
        "inclusive": bool(rng.integers(0, 2)),
        # Only the sharded jobs read this: the concurrent shard task cap.
        "workers": int(rng.integers(1, 5)),
        # Only the "stream" kind reads this: it seeds the random chunk
        # boundaries the input is split at before being fed through a
        # ScanSession (split-point equivalence fuzzing).
        "split_seed": int(rng.integers(0, 2**31)),
        # Only the "sharded" kind reads these: shard count and chunk
        # size small enough that shard boundaries and chunk boundaries
        # both land at awkward places inside tuple strides.
        "shards": int(rng.integers(1, 6)),
        "shard_chunk_bytes": int(rng.choice([64, 256, 1024])),
        # Only the "threaded" kind reads this: the slab thread count,
        # deliberately including heavy oversubscription (determinism is
        # part of the contract, not just agreement).
        "slab_threads": int(rng.choice([1, 2, 3, 4, 8])),
        # Only the "plan" kind reads these: which strategy to force
        # through the planner's dispatcher (None = the planner's own
        # pick), so every execute_plan arm gets differential coverage;
        # plan_float flips the workload to a compensated float64 one
        # (the planner's float arms).
        "plan_force": PLAN_FORCES[int(rng.integers(0, len(PLAN_FORCES)))],
        "plan_float": bool(rng.integers(0, 2)),
        # Only the "float_eft" kind reads these: the float dtype, a
        # corpus flavor (cancellation-heavy vs wide-magnitude), and a
        # length drawn past the 4096-row segment span so the
        # double-double segment chain is exercised, not just one
        # segment.
        "float_dtype": (np.float32, np.float64)[int(rng.integers(0, 2))],
        "float_flavor": str(rng.choice(["cancel", "magnitude", "mixed"])),
        "float_n": int(rng.integers(0, 3 * 4096 + 777)),
        # Only the "compressed" kind reads these: blocked-container
        # geometry (tiny blocks so even fuzz-sized inputs span many),
        # the codec's delta order, whether to scan single-session or
        # sharded, whether to re-encode the scanned output, and whether
        # to kill the job mid-way (injected failure) and resume it.
        "compressed_block_elements": int(rng.choice([16, 64, 256, 1024])),
        "codec_order": int(rng.integers(1, 4)),
        "compressed_sharded": bool(rng.integers(0, 2)),
        "compressed_output_blocked": bool(rng.integers(0, 2)),
        "compressed_crash": bool(rng.integers(0, 2)),
    }
    return config


class SessionSplitScan:
    """Adapter: runs a scan by feeding a ``ScanSession`` randomly-sized
    chunks — including empty ones and edges inside a tuple stride — and
    concatenating the outputs.  At one random chunk boundary the
    session's ``state_dict`` is round-tripped through JSON into a fresh
    session, which scans the rest.  ``threads`` opens the sessions on
    the threaded kernel, forced past its parallel cutover so fuzz-sized
    chunks really run slab-parallel.  Satisfies the engine contract, so
    it drops into the same oracle comparison as every real engine.
    """

    def __init__(self, seed: int, threads=None, float_mode=None):
        self.seed = seed
        self.threads = threads
        self.float_mode = float_mode

    def _open(self, dtype, **config):
        from repro.stream import ScanSession

        session = ScanSession(dtype=dtype, threads=self.threads,
                              float_mode=self.float_mode, **config)
        if self.threads is not None:
            session.kernel.cutover_bytes = 0
        return session

    def run(self, values, order=1, tuple_size=1, op="add", inclusive=True):
        import json

        rng = np.random.default_rng(self.seed)
        values = np.asarray(values)
        config = dict(op=op, order=order, tuple_size=tuple_size,
                      inclusive=inclusive)
        session = self._open(values.dtype, **config)
        n = len(values)
        restore_at = int(rng.integers(0, n + 1))
        parts = []
        pos = 0
        while pos < n:
            if restore_at is not None and pos >= restore_at:
                state = json.loads(json.dumps(session.state_dict()))
                session = self._open(values.dtype, **config)
                session.load_state_dict(state)
                restore_at = None
            if rng.integers(0, 8) == 0:
                session.feed(values[pos:pos])  # empty chunks must be no-ops
            step = int(rng.integers(1, max(2, n // 3 + 1)))
            parts.append(session.feed(values[pos : pos + step]))
            pos += step

        class Result:
            pass

        result = Result()
        result.values = (
            np.concatenate(parts) if parts else session.feed(values[:0])
        )
        return result


class ShardedFileScan:
    """Adapter: round-trips a scan through :func:`scan_file_sharded` —
    input written to a temp file, scanned across random shard counts,
    worker counts, and tiny chunk sizes, output read back.  Exercises
    shard splits, the reduce pass, carry splicing and the primed scan
    pass against the same oracle comparison as every in-memory engine.
    With ``fail_after_shards`` the job runs with a manifest, is killed
    by the injected-failure hook after that many shard completions
    (reduce or scan), and is resumed from the manifest.
    """

    def __init__(self, shards: int, workers: int, chunk_bytes: int,
                 fail_after_shards=None):
        self.shards = shards
        self.workers = workers
        self.chunk_bytes = chunk_bytes
        self.fail_after_shards = fail_after_shards

    def run(self, values, order=1, tuple_size=1, op="add", inclusive=True):
        import os
        import tempfile

        from repro.stream import InjectedFailureError, scan_file_sharded

        values = np.asarray(values)
        with tempfile.TemporaryDirectory(prefix="fuzz-sharded-") as tmp:
            input_path = os.path.join(tmp, "in.bin")
            output_path = os.path.join(tmp, "out.bin")
            values.tofile(input_path)
            kwargs = dict(
                dtype=values.dtype, op=op, order=order,
                tuple_size=tuple_size, inclusive=inclusive,
                shards=self.shards, workers=self.workers,
                chunk_bytes=self.chunk_bytes,
            )
            attempts = [{}]
            if self.fail_after_shards is not None:
                kwargs["checkpoint"] = os.path.join(tmp, "job.manifest")
                attempts = [
                    {"fail_after_shards": self.fail_after_shards},
                    {"resume": True},
                ]
            for extra in attempts:
                try:
                    scan_file_sharded(
                        input_path, output_path, **kwargs, **extra
                    )
                    break
                except InjectedFailureError:
                    pass
            out = np.fromfile(output_path, dtype=values.dtype)

        class Result:
            pass

        result = Result()
        result.values = out
        return result


class CompressedScan:
    """Adapter: encodes the input into a blocked ``.samb`` container and
    scans it through the fused decode→scan→encode stream layer —
    single-session or sharded, optionally killed mid-job by the
    injected-failure hook and resumed from its checkpoint/manifest —
    then reads the scanned stream back (decoding it again when the
    output was itself blocked).  The oracle sees only raw values, so
    codec round-trip, block-aligned shard planning, carry splice, and
    resume must compose to bit-identical output.
    """

    def __init__(self, *, block_elements, codec_order, sharded, shards,
                 chunk_bytes, output_blocked, crash):
        self.block_elements = block_elements
        self.codec_order = codec_order
        self.sharded = sharded
        self.shards = shards
        self.chunk_bytes = chunk_bytes
        # Blocked output is single-session only (a .samb container is
        # written by one sequential writer).
        self.output_blocked = output_blocked and not sharded
        self.crash = crash

    def run(self, values, order=1, tuple_size=1, op="add", inclusive=True):
        import os
        import tempfile

        from repro.compression import BlockedDeltaCodec
        from repro.compression.stream import BlockedFileReader
        from repro.stream import (
            InjectedFailureError,
            scan_file,
            scan_file_sharded,
        )

        values = np.asarray(values)
        with tempfile.TemporaryDirectory(prefix="fuzz-compressed-") as tmp:
            input_path = os.path.join(tmp, "in.samb")
            output_path = os.path.join(
                tmp, "out.samb" if self.output_blocked else "out.bin"
            )
            blob = BlockedDeltaCodec(
                block_elements=self.block_elements
            ).compress(values, order=self.codec_order)
            with open(input_path, "wb") as fh:
                fh.write(blob.data)

            kwargs = dict(
                op=op, order=order, tuple_size=tuple_size,
                inclusive=inclusive, input_format="blocked",
                checkpoint=os.path.join(tmp, "ckpt.json"),
            )
            if self.sharded:
                attempts = [{"fail_after_shards": 1}] if self.crash else []
                attempts.append({"resume": True})
                for extra in attempts:
                    try:
                        scan_file_sharded(
                            input_path, output_path, shards=self.shards,
                            workers=1, chunk_bytes=self.chunk_bytes,
                            **kwargs, **extra,
                        )
                    except InjectedFailureError:
                        pass
            else:
                if self.output_blocked:
                    kwargs.update(
                        output_format="blocked",
                        output_block_elements=self.block_elements,
                    )
                attempts = [{"fail_after_chunks": 1}] if self.crash else []
                attempts.append({"resume": True})
                for extra in attempts:
                    try:
                        scan_file(
                            input_path, output_path,
                            chunk_bytes=self.chunk_bytes,
                            checkpoint_every=1, **kwargs, **extra,
                        )
                    except InjectedFailureError:
                        pass

            if self.output_blocked:
                with BlockedFileReader(output_path) as reader:
                    out = np.array(
                        reader.read_range(0, reader.count), copy=True
                    )
            else:
                out = np.fromfile(output_path, dtype=values.dtype)

        class Result:
            pass

        result = Result()
        result.values = out
        return result


class PlannedScan:
    """Adapter: routes a scan through the execution planner
    (:func:`repro.plan.auto_scan`) — flag-less, letting the planner
    choose, or with a forced candidate label so every dispatch arm
    (serial kernel, threaded slabs) is differentially
    checked against the oracle regardless of what this machine's gates
    would pick on their own.  ``float_mode`` puts the plan under
    the compensated contract (the float arms; the oracle is then the
    serial compensated kernel, not the naive serial fold)."""

    def __init__(self, force, float_mode=None):
        self.force = force
        self.float_mode = float_mode

    def run(self, values, order=1, tuple_size=1, op="add", inclusive=True):
        from repro.plan import auto_scan

        class Result:
            pass

        result = Result()
        result.values = auto_scan(
            np.asarray(values), op=op, order=order,
            tuple_size=tuple_size, inclusive=inclusive, force=self.force,
            float_mode=self.float_mode,
        )
        return result


def _float_corpus(rng, dtype, flavor, n):
    """Cancellation-heavy float fuzz input: large terms that cancel
    (where the naive fold loses whole digits), wide magnitude swings,
    or a half-and-half splice of both."""
    dtype = np.dtype(dtype)
    big = 1e7 if dtype == np.float32 else 1e16
    if flavor == "cancel":
        base = np.tile(np.array([big, 1.0, -big, 1.0]), n // 4 + 1)[:n]
        return (base * rng.choice([1.0, -1.0], n)).astype(dtype)
    if flavor == "magnitude":
        mags = rng.integers(-6, 7, n).astype(np.float64)
        return (rng.normal(0.0, 1.0, n) * 10.0 ** mags).astype(dtype)
    half = n // 2
    return np.concatenate([
        _float_corpus(rng, dtype, "cancel", half),
        _float_corpus(rng, dtype, "magnitude", n - half),
    ]).astype(dtype)


def _float_oracle_cumsum(values, tuple_size):
    """Per-lane higher-precision inclusive cumsum: float128/float80
    (``np.longdouble``) when the platform has one, mpmath otherwise.
    Returns a float64 ndarray of the correctly-rounded-ish reference
    (its own rounding is negligible next to the float64 ulp scale)."""
    n = len(values)
    rows = n // tuple_size
    lanes = np.asarray(values, dtype=np.float64)[: rows * tuple_size]
    lanes = lanes.reshape(rows, tuple_size)
    if np.dtype(np.longdouble).itemsize > 8:
        out = np.cumsum(lanes.astype(np.longdouble), axis=0)
        head = out.astype(np.float64).reshape(-1)
    else:  # pragma: no cover - platforms whose longdouble is float64
        import mpmath

        with mpmath.workprec(200):
            acc = [mpmath.mpf(0)] * tuple_size
            head = np.empty(rows * tuple_size)
            for i in range(rows):
                for lane in range(tuple_size):
                    acc[lane] += mpmath.mpf(float(lanes[i, lane]))
                    head[i * tuple_size + lane] = float(acc[lane])
    tail = np.asarray(values, dtype=np.float64)[rows * tuple_size:]
    if len(tail):
        head = np.concatenate([head, np.cumsum(tail)])  # ragged tail: best effort
    return head


def run_float_eft(config, rng) -> bool:
    """The ``float_eft`` differential arm: one compensated float
    workload run through every parallel decomposition — shards
    {1, 2, 4}, a random session split, and the serve layer's
    ``feed_batch`` over three staggered streams whose cuts often land
    on segment boundaries — all of which must agree *bit for bit* with
    the serial compensated kernel;
    then (order-1, inclusive, aligned lengths) the compensated result's
    worst absolute error against a float128/mpmath oracle must not
    exceed the naive serial fold's."""
    import os
    import tempfile

    from repro.kernels import compensated_scan_into, segment_span
    from repro.ops import get_op
    from repro.serve.batch import feed_batch
    from repro.stream import ScanSession, scan_file_sharded

    dtype = np.dtype(config["float_dtype"])
    s = max(1, config["tuple_size"] % 5)  # tuple lanes 1..4
    order = 1 + config["order"] % 3       # compensated orders 1..3
    inclusive = config["inclusive"]
    n = config["float_n"] * s
    n -= n % s                             # aligned: lanes stay rectangular
    values = _float_corpus(rng, dtype, config["float_flavor"], n)
    op = get_op("add")

    reference = compensated_scan_into(
        values, np.empty_like(values), op,
        order=order, tuple_size=s, inclusive=inclusive,
    )
    bits = reference.view(np.uint32 if dtype.itemsize == 4 else np.uint64)

    def agrees(out):
        out = np.asarray(out)
        return out.dtype == dtype and np.array_equal(
            bits, out.view(bits.dtype)
        )

    with tempfile.TemporaryDirectory(prefix="fuzz-float-eft-") as tmp:
        input_path = os.path.join(tmp, "in.bin")
        values.tofile(input_path)
        for shards in FLOAT_EFT_SHARDS:
            output_path = os.path.join(tmp, f"out-{shards}.bin")
            scan_file_sharded(
                input_path, output_path, dtype=dtype, op="add",
                order=order, tuple_size=s, inclusive=inclusive,
                shards=shards, workers=2,
                chunk_bytes=config["shard_chunk_bytes"] * 64,
                float_mode="compensated",
            )
            if not agrees(np.fromfile(output_path, dtype=dtype)):
                return False

    session = ScanSession(
        op="add", order=order, tuple_size=s, inclusive=inclusive,
        float_mode="compensated",
    )
    split = np.random.default_rng(config["split_seed"])
    parts, pos = [], 0
    while pos < n:
        step = int(split.integers(1, max(2, n // 3 + 1)))
        parts.append(session.feed(values[pos : pos + step]))
        pos += step
    stitched = np.concatenate(parts) if parts else values[:0]
    if not agrees(stitched):
        return False

    # Batched serve dispatch: three streams staggered by a few elements,
    # then cut either up to their next segment boundary (a batched chunk
    # ending on the grid) or at random (crossing chunks go solo).
    span = segment_span(s)
    sessions = [
        ScanSession(op="add", order=order, tuple_size=s, inclusive=inclusive,
                    float_mode="compensated", dtype=dtype)
        for _ in range(3)
    ]
    feeds = [[] for _ in sessions]
    positions = [min(n, 3 * i) for i in range(3)]
    cuts = [values[:p] for p in positions]
    while True:
        outs = feed_batch(sessions, cuts)
        for i, out in enumerate(outs):
            feeds[i].append(out)
        if min(positions) >= n:
            break
        cuts = []
        for i, pos in enumerate(positions):
            if split.integers(2):
                step = span - pos % span
            else:
                step = int(split.integers(1, max(2, n // 3 + 1)))
            cuts.append(values[pos : pos + step])
            positions[i] = min(n, pos + step)
    for batched, parts in zip(sessions, feeds):
        # The carry state is a function of the position alone, so it
        # must match the split-fed session's too.
        if batched.state_dict() != session.state_dict():
            return False
        if not agrees(np.concatenate(parts)):
            return False

    if order == 1 and inclusive and n:
        oracle = _float_oracle_cumsum(values, s)
        naive = (
            np.cumsum(values.reshape(-1, s), axis=0)  # the native-width fold
            .reshape(-1)
            .astype(np.float64)
        )
        comp_err = np.nanmax(np.abs(reference.astype(np.float64) - oracle))
        naive_err = np.nanmax(np.abs(naive - oracle))
        # Compensated output is faithfully rounded, so it can trail a
        # luckily-rounded naive fold by at most one ulp of the largest
        # prefix; beyond that margin it must win.
        ulp = np.max(np.abs(oracle)) * np.finfo(dtype).eps if n else 0.0
        if not (comp_err <= max(naive_err, ulp)):
            return False
    return True


def run_fused_order(config, rng) -> bool:
    """The ``fused_order`` differential arm: one order-``q`` workload in
    the single-pass tile loop's domain (``q`` in 2..4, ``s`` in 2..8)
    run through every surface that reaches it — one-shot
    :func:`repro.kernels.scan_into`, a ``LaneKernel(order=q)`` fed at
    random split points after a first chunk shorter than ``s`` (mid-tile
    carry-matrix continuation, every feed through the tile loop), a
    ``ScanSession`` split feed, the
    sharded file driver with random shard/worker counts, and the serve
    layer's ``feed_batch`` over three staggered streams (under integer
    ``add``, mixing fused batches with short-chunk fallback rounds).
    Half the arms are
    integer, under any of the six built-in operators, drawn from the
    dtype's full range so modular wraparound is exercised; the other
    half are exact float32/float64 ``add``, ``max`` or ``min`` seeded
    with signed zeros and NaN.  All must agree *bit for bit* with the
    serial oracle.  Non-``add`` integer and float sharded jobs take the
    sharded driver's fallback (:func:`repro.stream.scan_file`, with a
    ``fallback_reason``); exact-float sessions have no batch key, so
    float arms skip ``feed_batch``.  The extra draws come from the data
    ``rng`` so the configurations of the other kinds do not shift."""
    import os
    import tempfile

    from repro.kernels import LaneKernel, scan_into
    from repro.serve.batch import feed_batch
    from repro.stream import ScanSession, scan_file_sharded

    q = 2 + config["order"] % 3           # orders 2..4
    s = 2 + config["tuple_size"] % 7      # tuple lanes 2..8
    inclusive = config["inclusive"]
    n = config["n"]
    floats = bool(rng.integers(0, 2))
    if floats:
        dtype = np.dtype(config["float_dtype"])
        op = str(rng.choice(FLOAT_OPERATORS))
        values = rng.normal(0.0, 1e3, n).astype(dtype)
        values[rng.random(n) < 0.05] = -0.0
        values[rng.random(n) < 0.05] = 0.0
        values[rng.random(n) < 0.01] = np.nan
        # A -0.0 head row: only an unfolded stream start keeps it.
        values[: int(rng.integers(0, s + 1))] = -0.0
    else:
        dtype = np.dtype(config["dtype"])
        op = config["op"]
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    config.update(dtype=dtype.type, op=op)

    def oracle(inclusive):
        return prefix_sum_serial(
            values, order=q, tuple_size=s, op=op, inclusive=inclusive
        )

    expected = oracle(inclusive)

    def agrees(out, want=expected):
        out = np.asarray(out)
        return out.dtype == dtype and out.tobytes() == want.tobytes()

    # One-shot tile scan.
    if not agrees(scan_into(values, np.empty_like(values), op,
                            order=q, tuple_size=s, inclusive=inclusive)):
        return False

    # LaneKernel continuation: a first chunk shorter than s leaves some
    # lanes unseen (the next chunk's first tile folds the live lanes
    # only), and random split points land mid-tile and mid-stride, so
    # the (q, s) carry matrix must splice every cut.  Every feed takes
    # the tile loop.  The kernel is inclusive-only (exclusive is its
    # callers' epilogue).
    kernel = LaneKernel(op, dtype, tuple_size=s, order=q)
    split = np.random.default_rng(config["split_seed"])
    parts, pos = [], 0
    step = int(split.integers(1, s))
    while pos < n:
        parts.append(np.asarray(kernel.feed(values[pos : pos + step].copy())).copy())
        pos += step
        step = int(split.integers(1, max(2, n // 3 + 1)))
    stitched = np.concatenate(parts) if parts else values[:0]
    if not agrees(stitched, expected if inclusive else oracle(True)):
        return False
    if kernel.counters.fused_order_scans != len(parts):
        return False

    # Session split feed (the serve layer's single-stream path).
    out = SessionSplitScan(seed=config["split_seed"]).run(
        values, order=q, tuple_size=s, op=op, inclusive=inclusive
    ).values
    if not agrees(out):
        return False

    # Sharded file driver: integer add splices shard aggregates with the
    # binomial identity; everything else falls back to scan_file.
    with tempfile.TemporaryDirectory(prefix="fuzz-fused-") as tmp:
        input_path = os.path.join(tmp, "in.bin")
        output_path = os.path.join(tmp, "out.bin")
        values.tofile(input_path)
        result = scan_file_sharded(
            input_path, output_path, dtype=dtype, op=op,
            order=q, tuple_size=s, inclusive=inclusive,
            shards=config["shards"], workers=min(config["workers"], 3),
            chunk_bytes=config["shard_chunk_bytes"],
        )
        if (result.fallback_reason is None) != (op == "add" and not floats):
            return False
        if not agrees(np.fromfile(output_path, dtype=dtype)):
            return False
    if floats:
        return True

    # Batched serve dispatch: three staggered streams over the same
    # values, each cut independently, so rounds mix fused staging with
    # the short-chunk pass-per-order fallback mid-stream.
    B = 3
    sessions = [
        ScanSession(op=op, order=q, tuple_size=s, inclusive=inclusive,
                    dtype=dtype)
        for _ in range(B)
    ]
    feeds = [[] for _ in range(B)]
    positions = [0] * B
    while min(positions) < n:
        chunks = []
        for i in range(B):
            if positions[i] >= n:
                chunks.append(values[:0])
            else:
                step = int(split.integers(1, max(2, n // 3 + 1)))
                chunks.append(values[positions[i] : positions[i] + step])
        outs = feed_batch(sessions, [c.copy() for c in chunks])
        for i in range(B):
            feeds[i].append(outs[i])
            positions[i] += chunks[i].size
    for i in range(B):
        stream = np.concatenate(feeds[i]) if feeds[i] else values[:0]
        if not agrees(stream):
            return False
    return True


def run_file(config, rng) -> bool:
    """The ``file`` differential arm: one random array round-tripped
    through :func:`repro.stream.scan_file` with a chunk budget of one
    element, below the file size, exactly the file size or above it
    (the one-chunk job, read and scanned on the calling thread), for
    integer and exact-mode float dtypes, against the serial oracle.
    The extra draws come from the data ``rng`` so the configurations
    of the other kinds do not shift."""
    import os
    import tempfile

    from repro.stream import scan_file

    dtype = np.dtype(FILE_DTYPES[int(rng.integers(0, len(FILE_DTYPES)))])
    chunk = str(rng.choice(FILE_CHUNKS))
    if chunk != "element":
        # One-element chunks of a tile-sized file would only be slow.
        _maybe_tile_sized(config, rng, dtype)
    n = config["n"]
    if dtype.kind == "f":
        op = str(rng.choice(FLOAT_OPERATORS))
        values = rng.normal(0.0, 1e3, n).astype(dtype)
    else:
        op = config["op"]
        values = rng.integers(0, 2**16, n).astype(dtype)
    nbytes = values.nbytes
    chunk_bytes = {
        "element": dtype.itemsize,
        "below": int(rng.integers(1, max(2, nbytes))),
        "exact": max(1, nbytes),
        "above": nbytes + int(rng.integers(1, 1 << 16)),
    }[chunk]
    config.update(dtype=dtype.type, op=op, file_chunk=chunk)
    kwargs = dict(order=config["order"], tuple_size=config["tuple_size"],
                  op=op, inclusive=config["inclusive"])
    with tempfile.TemporaryDirectory(prefix="fuzz-file-") as tmp:
        input_path = os.path.join(tmp, "in.bin")
        output_path = os.path.join(tmp, "out.bin")
        values.tofile(input_path)
        scan_file(input_path, output_path, dtype=dtype,
                  chunk_bytes=chunk_bytes, **kwargs)
        out = np.fromfile(output_path, dtype=dtype)
    expected = _oracle(config, values, **kwargs)
    return out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


def build_engine(config):
    kw = dict(
        threads_per_block=config["threads_per_block"],
        items_per_thread=config["items_per_thread"],
        policy=config["policy"],
    )
    kind = config["engine"]
    if kind == "sam":
        return SamScan(num_blocks=int(np.random.default_rng(0).integers(2, 9)), **kw)
    if kind == "sam_chained":
        return SamScan(carry_scheme="chained", num_blocks=4, **kw)
    if kind == "lookback":
        return DecoupledLookbackScan(**kw)
    if kind == "reduce_scan":
        return ReduceThenScan(**kw)
    if kind == "three_phase":
        return ThreePhaseScan(**kw)
    if kind == "streamscan":
        return StreamScan(**kw)
    if kind == "stream":
        return SessionSplitScan(
            seed=config["split_seed"],
            threads=config.get("stream_threads"),
            float_mode=config.get("stream_float_mode"),
        )
    if kind == "threaded":
        from repro.kernels import ThreadedScan

        # cutover_bytes=0 forces the slab-parallel path even at fuzz
        # sizes; without it every config would take the serial fallback.
        return ThreadedScan(threads=config["slab_threads"], cutover_bytes=0)
    if kind == "plan":
        force = _accepted_force(
            config, config["op"], config["dtype"], config["order"],
            config["tuple_size"],
        )
        return PlannedScan(force=force)
    if kind == "compressed":
        return CompressedScan(
            block_elements=config["compressed_block_elements"],
            codec_order=config["codec_order"],
            sharded=config["compressed_sharded"],
            shards=config["shards"],
            chunk_bytes=config["shard_chunk_bytes"],
            output_blocked=config["compressed_output_blocked"],
            crash=config["compressed_crash"],
        )
    if kind == "sharded":
        return ShardedFileScan(
            shards=config["shards"],
            workers=min(config["workers"], 3),
            chunk_bytes=config["shard_chunk_bytes"],
            fail_after_shards=config.get("fail_after_shards"),
        )
    raise ValueError(kind)


def _accepted_force(config, op, dtype, order, tuple_size, float_mode=None):
    """The drawn plan force, or ``"serial"`` (recorded in ``config``) in
    place of a threaded force the planner refuses because the
    workload's carry kind has no slab path (the fused and compensated
    kinds; the refusal is covered by the unit tests)."""
    from repro.kernels.threaded import runs_slabs

    force = config["plan_force"]
    if force and force.startswith("threaded") and not runs_slabs(
        op, dtype, order, tuple_size, float_mode
    ):
        force = config["plan_force"] = "serial"
    return force


def run_plan_float(config, rng) -> bool:
    """The planner's float arms: a compensated float64 workload routed
    through :func:`repro.plan.auto_scan` — planner's own pick or a
    forced candidate — must agree bit for bit with the
    serial compensated kernel (the mode's reference)."""
    from repro.kernels import compensated_scan_into
    from repro.ops import get_op

    s = max(1, config["tuple_size"] % 5)
    order = 1 + config["order"] % 3
    n = config["n"] - config["n"] % s
    values = _float_corpus(rng, np.float64, config["float_flavor"], n)
    force = _accepted_force(config, "add", np.float64, order, s, "compensated")
    engine = PlannedScan(force=force, float_mode="compensated")
    out = engine.run(
        values, order=order, tuple_size=s, op="add",
        inclusive=config["inclusive"],
    ).values
    expected = compensated_scan_into(
        values, np.empty_like(values), get_op("add"),
        order=order, tuple_size=s, inclusive=config["inclusive"],
    )
    return np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _compressed_signal(rng, shape, dtype, n):
    """One of :data:`COMPRESSED_SHAPES` as ``n`` values of ``dtype``."""
    info = np.iinfo(dtype)
    if shape == "walk":
        start = int(rng.integers(info.min // 2, info.max // 2))
        return (start + np.cumsum(rng.integers(-8, 9, n))).astype(dtype)
    if shape == "uniform":
        return rng.integers(-(2**16), 2**16, n).astype(dtype)
    return rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)


def run_stream(config, rng) -> bool:
    """The "stream" kind: random chunk partitions through a
    ``ScanSession`` (:class:`SessionSplitScan`, state round-trip
    included) opened with ``threads`` drawn from
    :data:`STREAM_THREADS`, over the integer draw or a float64 arm
    with signed zeros — exact (against the serial reference),
    compensated (against the serial compensated kernel) or regrouped
    (serially against the serial reference, as every continuation is
    the exact left fold; with threads against a second run at the same
    thread count, as the slab splice regroups rounding) — at orders
    1–3.  The arm is drawn from
    the data ``rng``, like the "file" kind's draws."""
    from repro.kernels import compensated_scan_into

    config["stream_threads"] = STREAM_THREADS[int(rng.integers(0, 3))]
    mode = STREAM_FLOAT_MODES[int(rng.integers(0, len(STREAM_FLOAT_MODES)))]
    config["stream_float_mode"] = mode
    if mode is None:
        dtype = np.dtype(config["dtype"])
        _maybe_tile_sized(config, rng, dtype)
        lo = 0 if dtype.kind == "u" else -(2**16)
        values = rng.integers(lo, 2**16, config["n"]).astype(dtype)
    else:
        compensated = mode == "compensated"
        config.update(
            dtype=np.float64,
            order=1 + config["order"] % 3,
            op="add" if compensated else str(rng.choice(FLOAT_OPERATORS)),
            # Compensated streams run past the 4096-row segment span.
            n=config["float_n"] if compensated else config["n"],
        )
        values = _float_corpus(rng, np.float64, config["float_flavor"],
                               config["n"])
        if config["n"]:
            # Signed zeros, half in the first two strides, so an
            # identity folded into a lane that has not seen an element
            # yet (0.0 + -0.0) shows.
            head = min(config["n"], 2 * config["tuple_size"])
            values[rng.integers(0, head, 4)] = -0.0
            values[rng.integers(0, config["n"], 4)] = -0.0
    args = dict(order=config["order"], tuple_size=config["tuple_size"],
                op=config["op"], inclusive=config["inclusive"])
    result = build_engine(config).run(values, **args)
    if mode == "compensated":
        expected = compensated_scan_into(
            values, np.empty_like(values), **args
        )
    elif mode == "regrouped" and config["stream_threads"] is not None:
        second = SessionSplitScan(seed=config["split_seed"], float_mode=mode,
                                  threads=config["stream_threads"])
        expected = np.asarray(second.run(values, **args).values)
    else:
        expected = _oracle(config, values, **args)
    out = np.asarray(result.values)
    return out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


def run_one(config, rng) -> bool:
    """Run one configuration; returns True on agreement."""
    if config["engine"] == "stream":
        return run_stream(config, rng)
    if config["engine"] == "float_eft":
        return run_float_eft(config, rng)
    if config["engine"] == "fused_order":
        return run_fused_order(config, rng)
    if config["engine"] == "file":
        return run_file(config, rng)
    if config["engine"] == "plan" and config["plan_float"]:
        return run_plan_float(config, rng)
    dtype = np.dtype(config["dtype"])
    # The blocked codec is int32/int64 only; map the unsigned draws to
    # their signed width instead of discarding the configuration.
    if config["engine"] == "compressed" and dtype.kind == "u":
        dtype = np.dtype(np.int32 if dtype.itemsize == 4 else np.int64)
        config["dtype"] = dtype.type
    if config["engine"] == "compressed" and not config["compressed_sharded"]:
        # Sharded jobs keep their sub-KiB chunks, too slow at tile
        # sizes.  A tile-sized job gets one-tile blocks, so the decoder's
        # per-block prefix sum takes the lane-pair path too, and
        # two-tile chunks.
        if _maybe_tile_sized(config, rng, dtype):
            tile = _tile_elements(dtype)
            config.update(compressed_block_elements=tile,
                          shard_chunk_bytes=2 * tile * dtype.itemsize)
    if config["engine"] == "compressed":
        # Drawn from the data rng, like the "file" kind's draws, so the
        # other kinds' configurations do not shift.
        shape = str(rng.choice(COMPRESSED_SHAPES))
        config["compressed_shape"] = shape
        values = _compressed_signal(rng, shape, dtype, config["n"])
    elif dtype.kind == "u":
        values = rng.integers(0, 2**16, config["n"]).astype(dtype)
    else:
        values = rng.integers(-(2**16), 2**16, config["n"]).astype(dtype)
    if config["engine"] == "sharded":
        # A crash point in [1, 2 x shards - 1] (the reduce and scan
        # completions; the last one finishes the job) or none, drawn
        # from the data rng like the "file" kind's draws so the other
        # kinds' configurations do not shift.
        crash = int(rng.integers(0, 2 * config["shards"]))
        config["fail_after_shards"] = crash or None
    # Lookback's tuple path needs divisible sizes; truncate like the
    # paper's tuple experiments do.
    if config["engine"] == "lookback" and config["tuple_size"] > 1:
        n = len(values) - len(values) % config["tuple_size"]
        values = values[:n]
    engine = build_engine(config)
    result = engine.run(
        values,
        order=config["order"],
        tuple_size=config["tuple_size"],
        op=config["op"],
        inclusive=config["inclusive"],
    )
    expected = _oracle(
        config,
        values,
        order=config["order"],
        tuple_size=config["tuple_size"],
        op=config["op"],
        inclusive=config["inclusive"],
    )
    return np.array_equal(result.values, expected)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=100,
                        help="0 = run until interrupted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", choices=ENGINES, default=None,
                        help="restrict to one engine kind "
                             "(e.g. --only stream for split-point fuzzing)")
    args = parser.parse_args(argv)

    engines = (args.only,) if args.only else ENGINES
    rng = np.random.default_rng(args.seed)
    failures = 0
    iteration = 0
    crossings = TileCrossings()
    start = time.time()
    while args.iterations == 0 or iteration < args.iterations:
        iteration += 1
        config = random_config(rng, engines)
        try:
            ok = run_one(config, rng)
        except Exception as exc:  # noqa: BLE001 - fuzzing reports everything
            print(f"[CRASH] iteration {iteration}: {config}\n        {exc!r}")
            failures += 1
            continue
        finally:
            crossings.tally()
        if not ok:
            print(f"[MISMATCH] iteration {iteration}: {config}")
            failures += 1
        if iteration % 50 == 0:
            rate = iteration / (time.time() - start)
            print(f"... {iteration} configs, {failures} failures, {rate:.1f}/s")
    crossings.close()
    print(f"done: {iteration} configurations, {failures} failures, "
          f"{crossings.configs} crossed a lane-pair tile")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
