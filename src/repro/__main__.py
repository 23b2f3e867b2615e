"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scan <in> <out>``
    Run a generalized prefix scan over a raw binary file of integers
    on a selectable engine (``--engine auto|host|threaded|sam|...``,
    ``--op``, ``--order``, ``--tuple-size``, ``--exclusive``,
    ``--threads``).  The default engine ``auto`` is the execution
    planner (:mod:`repro.plan`): it picks the strategy from the data
    and the machine; ``--explain`` prints each gate's input and verdict
    without running the scan.
``stream <in> <out>``
    Scan a file out of core: read in chunks through a streaming
    session (``--chunk-bytes``), bit-identical to ``scan``,
    with durable checkpoints (``--checkpoint``, ``--checkpoint-every``)
    and crash recovery (``--resume``).  Takes the same scan options as
    ``scan`` including ``--engine``.  With ``--shards N`` (N > 1) the
    job runs on the sharded driver: N contiguous shards scanned
    concurrently and spliced, with a per-shard manifest at
    ``--checkpoint`` so ``--resume`` re-runs only unfinished shards
    (``--workers`` caps concurrent shard tasks).  Compressed
    containers fuse into the pipeline: ``--input-format blocked`` (or
    auto-sniffing) decodes a ``.samb`` container chunk by chunk, and
    ``--output-format blocked`` re-encodes the scanned stream on the
    way out.
``compress <in> <out>``
    Delta-compress a raw binary file of integers (``--dtype``,
    ``--order`` auto-selected when omitted, ``--tuple-size``).
    ``--blocked`` streams through the incremental block writer in
    constant memory and emits a ``.samb`` container.
``decompress <in> <out>``
    Invert ``compress`` (the decode *is* the generalized prefix sum);
    blocked containers are sniffed and decoded block at a time.
``serve``
    Run the async scan service: named sessions fed by many concurrent
    clients over TCP (``--host``/``--port``) or a unix socket
    (``--unix``), coalescing compatible feeds into batched kernel
    dispatches (``--batch-max``), with per-connection backpressure
    (``--max-inflight-bytes``) and whole-registry durability
    (``--checkpoint``, ``--checkpoint-every``, ``--restore``).
``feed <in> <out>``
    Stream a raw binary file through a served session
    (``--connect host:port|unix:PATH``, ``--session NAME``) in
    ``--chunk-bytes`` chunks, pipelined ``--window`` deep.  Resumes
    from the server's current offset, so re-running after a server
    restart completes the output file bit-identically.
``figures [fig03 ...]``
    Print the paper's figures as text tables (default: all).
``table1``
    Print Table 1.
``checks``
    Run every headline claim against the performance model.
``traffic``
    Measure the 2n/3n/4n traffic coefficients on the simulator.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cli_float_mode(args):
    """The scan/stream commands' resolved ``--float-mode`` (None when
    the flag is absent — integer workloads and the exact default)."""
    return getattr(args, "float_mode", None)


def _resolve_cli_engine(name: str, threads: int = 0, float_mode=None):
    """Engine construction shared by ``scan`` and ``stream``.

    ``--threads`` configures the in-memory slab-parallel engine
    (``--engine threaded``; 0 = auto).  ``--float-mode`` reaches the
    engines that implement the contract (see
    :func:`repro.api.resolve_engine`).
    """
    if name == "threaded" and threads:
        from repro.kernels import ThreadedScan

        return ThreadedScan(threads=threads, float_mode=float_mode)
    from repro.api import resolve_engine

    return resolve_engine(name, float_mode=float_mode)


def _cmd_explain(args) -> int:
    """``--explain``: print the planner's gate table, scan nothing.

    Reads only the input's byte size — never its contents — so it is
    safe to run against files too large to load.
    """
    import os

    from repro.plan import explain_scan

    plan = explain_scan(
        nbytes=os.path.getsize(args.input),
        dtype=args.dtype,
        op=args.op,
        order=args.order,
        tuple_size=args.tuple_size,
        inclusive=not args.exclusive,
        source=args.explain_source,
        float_mode=_cli_float_mode(args),
    )
    print(plan.explain())
    return 0


def _cmd_scan(args) -> int:
    from repro.core.host import host_prefix_sum
    from repro.ops import get_op

    if args.explain:
        return _cmd_explain(args)
    values = np.fromfile(args.input, dtype=np.dtype(args.dtype))
    op = get_op(args.op)
    inclusive = not args.exclusive
    float_mode = _cli_float_mode(args)
    if args.engine == "auto" and not args.threads:
        from repro.plan import PLANNER_COUNTERS, auto_scan

        out = auto_scan(
            values, op=op, order=args.order, tuple_size=args.tuple_size,
            inclusive=inclusive, float_mode=float_mode,
        )
        out.tofile(args.output)
        kind = "inclusive" if inclusive else "exclusive"
        print(
            f"{args.input}: {kind} {args.op} scan of {len(values):,} x "
            f"{args.dtype} (order {args.order}, tuple size {args.tuple_size}) "
            f"planned onto {PLANNER_COUNTERS.last_strategy or 'serial'} "
            f"-> {args.output}"
        )
        return 0
    engine = _resolve_cli_engine(
        args.engine, args.threads, float_mode=float_mode
    )
    if engine is None:
        if float_mode == "compensated" and values.dtype.kind == "f":
            from repro.api import _host_compensated

            out = _host_compensated(
                values, op, args.order, args.tuple_size, inclusive
            )
        else:
            out = host_prefix_sum(
                values, order=args.order, tuple_size=args.tuple_size,
                op=op, inclusive=inclusive,
                threads=args.threads or None,
            )
        used = "host"
    else:
        result = engine.run(
            values, order=args.order, tuple_size=args.tuple_size,
            op=op, inclusive=inclusive,
        )
        out = result.values
        used = getattr(result, "engine_used", args.engine)
    out.tofile(args.output)
    kind = "inclusive" if inclusive else "exclusive"
    print(
        f"{args.input}: {kind} {args.op} scan of {len(values):,} x "
        f"{args.dtype} (order {args.order}, tuple size {args.tuple_size}) "
        f"on engine {used} -> {args.output}"
    )
    return 0


def _cmd_stream_planned(args) -> int:
    """Flag-less ``stream``: let :mod:`repro.plan` pick the driver."""
    import sys as _sys

    from repro.api import scan_file
    from repro.stream import StreamError

    try:
        result = scan_file(
            args.input,
            args.output,
            dtype=args.dtype,
            op=args.op,
            order=args.order,
            tuple_size=args.tuple_size,
            inclusive=not args.exclusive,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            input_format=args.input_format,
            float_mode=_cli_float_mode(args),
        )
    except StreamError as exc:
        print(f"stream failed: {exc}", file=_sys.stderr)
        if args.checkpoint and not args.resume:
            print(
                f"re-run with --resume to continue from {args.checkpoint}",
                file=_sys.stderr,
            )
        return 1
    c = result.counters
    kind = "exclusive" if args.exclusive else "inclusive"
    if c.planner_strategy:
        from repro.plan import PLANNER_COUNTERS

        strategy = f"{c.planner_strategy} ({PLANNER_COUNTERS.last_reason})"
    else:
        strategy = "pinned by checkpoint"
    print(
        f"{args.input}: streamed {kind} {args.op} scan of "
        f"{result.elements:,} x {result.dtype} (order {args.order}, "
        f"tuple size {args.tuple_size}) planned onto {strategy} "
        f"-> {args.output}"
    )
    print(
        f"  phases: read {c.seconds_read:.3f}s  scan {c.seconds_scan:.3f}s  "
        f"write {c.seconds_write:.3f}s  checkpoint {c.seconds_checkpoint:.3f}s  "
        f"splice {c.seconds_splice:.3f}s  fold {c.seconds_fold:.3f}s"
    )
    _print_compression(c)
    return 0


def _print_compression(c) -> None:
    """One extra status line when either side of the job was compressed."""
    if not (c.compressed_bytes_in or c.compressed_bytes_out):
        return
    parts = []
    if c.compressed_bytes_in:
        parts.append(
            f"in {c.compressed_bytes_in:,} B "
            f"({c.compression_ratio_in():.2f}x, decode {c.seconds_decode:.3f}s)"
        )
    if c.compressed_bytes_out:
        parts.append(
            f"out {c.compressed_bytes_out:,} B "
            f"({c.compression_ratio_out():.2f}x, encode {c.seconds_encode:.3f}s)"
        )
    print(f"  compressed: {'  '.join(parts)}")


def _cmd_stream(args) -> int:
    import sys as _sys

    from repro.stream import DEFAULT_CHUNK_BYTES, StreamError, scan_file

    if args.explain:
        return _cmd_explain(args)
    if args.output_format == "blocked" and args.shards and args.shards > 1:
        print(
            "blocked output is single-session only (the sharded fold "
            "rewrites output in place); drop --shards or --output-format",
            file=_sys.stderr,
        )
        return 2
    if (
        args.engine == "auto"
        and not args.shards
        and not args.threads
        and not args.workers
        and args.chunk_bytes == DEFAULT_CHUNK_BYTES
        and not args.adaptive_chunks
        and args.fail_after_chunks is None
        and args.fail_after_shards is None
        and args.output_format == "raw"
    ):
        return _cmd_stream_planned(args)
    if args.shards and args.shards > 1:
        return _cmd_stream_sharded(args)
    float_mode = _cli_float_mode(args)
    engine = _resolve_cli_engine(
        args.engine, args.threads, float_mode=float_mode
    )
    out_kwargs = {}
    if args.output_block_elements is not None:
        out_kwargs["output_block_elements"] = args.output_block_elements
    try:
        result = scan_file(
            args.input,
            args.output,
            dtype=args.dtype,
            op=args.op,
            order=args.order,
            tuple_size=args.tuple_size,
            inclusive=not args.exclusive,
            engine=engine,
            chunk_bytes=args.chunk_bytes,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            threads=args.threads or None,
            float_mode=float_mode,
            adaptive_chunks=args.adaptive_chunks,
            fail_after_chunks=args.fail_after_chunks,
            input_format=args.input_format,
            output_format=args.output_format,
            **out_kwargs,
        )
    except StreamError as exc:
        print(f"stream failed: {exc}", file=_sys.stderr)
        if args.checkpoint and not args.resume:
            print(
                f"re-run with --resume to continue from {args.checkpoint}",
                file=_sys.stderr,
            )
        return 1
    c = result.counters
    kind = "exclusive" if args.exclusive else "inclusive"
    resumed = (
        f", resumed at element {result.resumed_from:,}" if result.resumed_from else ""
    )
    print(
        f"{args.input}: streamed {kind} {args.op} scan of "
        f"{result.elements:,} x {result.dtype} (order {args.order}, "
        f"tuple size {args.tuple_size}) in {c.chunks} chunks on engine "
        f"{c.engine_used}{resumed} -> {args.output}"
    )
    print(
        f"  phases: read {c.seconds_read:.3f}s  scan {c.seconds_scan:.3f}s  "
        f"write {c.seconds_write:.3f}s  checkpoint {c.seconds_checkpoint:.3f}s  "
        f"({c.checkpoint_writes} checkpoint writes)"
    )
    _print_compression(c)
    return 0


def _cmd_stream_sharded(args) -> int:
    import sys as _sys

    from repro.stream import StreamError, scan_file_sharded

    float_mode = _cli_float_mode(args)
    engine = _resolve_cli_engine(
        args.engine, args.threads, float_mode=float_mode
    )
    try:
        result = scan_file_sharded(
            args.input,
            args.output,
            dtype=args.dtype,
            op=args.op,
            order=args.order,
            tuple_size=args.tuple_size,
            inclusive=not args.exclusive,
            engine=engine,
            shards=args.shards,
            workers=args.workers or None,
            chunk_bytes=args.chunk_bytes,
            checkpoint=args.checkpoint,
            resume=args.resume,
            threads=args.threads or None,
            float_mode=float_mode,
            input_format=args.input_format,
            fail_after_shards=args.fail_after_shards,
        )
    except StreamError as exc:
        print(f"stream failed: {exc}", file=_sys.stderr)
        if args.checkpoint and not args.resume:
            print(
                f"re-run with --resume to continue from {args.checkpoint}",
                file=_sys.stderr,
            )
        return 1
    c = result.counters
    kind = "exclusive" if args.exclusive else "inclusive"
    resumed = (
        f", resumed ({result.resumed_shards} shard phases already done)"
        if c.resumes
        else ""
    )
    print(
        f"{args.input}: sharded {kind} {args.op} scan of "
        f"{result.elements:,} x {result.dtype} (order {args.order}, "
        f"tuple size {args.tuple_size}) across {result.num_shards} shards "
        f"({result.passes} pass{'es' if result.passes != 1 else ''}) on "
        f"engine {c.engine_used}{resumed} -> {args.output}"
    )
    print(
        f"  shards: {c.shards} scanned, {c.primed_shards} primed, "
        f"{c.folded_shards} folded, {c.chunk_resizes} chunk resizes"
    )
    print(
        f"  phases: read {c.seconds_read:.3f}s  scan {c.seconds_scan:.3f}s  "
        f"write {c.seconds_write:.3f}s  splice {c.seconds_splice:.3f}s  "
        f"fold {c.seconds_fold:.3f}s  checkpoint {c.seconds_checkpoint:.3f}s"
    )
    _print_compression(c)
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal
    import sys as _sys

    from repro.serve import ScanServer, SessionRegistry
    from repro.stream.errors import CheckpointError

    registry = SessionRegistry()
    if args.restore:
        if not args.checkpoint:
            print("--restore needs --checkpoint", file=_sys.stderr)
            return 2
        try:
            restored = registry.load(args.checkpoint)
        except CheckpointError as exc:
            print(f"restore failed: {exc}", file=_sys.stderr)
            return 1
        print(f"repro-serve: restored {restored} sessions from "
              f"{args.checkpoint}", flush=True)
    server = ScanServer(
        registry,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        batch_max=args.batch_max,
        max_inflight_bytes=args.max_inflight_bytes,
    )

    async def run():
        await server.start()
        print(f"repro-serve: listening on {server.address}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except NotImplementedError:
                pass
        await server.serve_forever()
        await server.stop()
        print("repro-serve: stopped", flush=True)

    asyncio.run(run())
    return 0


def _cmd_feed(args) -> int:
    import os
    import sys as _sys

    from repro.serve import ScanClient, ServeError

    dtype = np.dtype(args.dtype)
    values = np.fromfile(args.input, dtype=dtype)
    s = args.tuple_size
    per_chunk = max(1, args.chunk_bytes // dtype.itemsize)
    per_chunk = max(s, per_chunk - per_chunk % s)
    try:
        with ScanClient(args.connect) as client:
            reply = client.open(
                args.session,
                op=args.op,
                order=args.order,
                tuple_size=s,
                inclusive=not args.exclusive,
                dtype=args.dtype,
                float_mode=_cli_float_mode(args),
            )
            start = reply["offset"]
            if start:
                print(
                    f"session {args.session!r} already at element {start:,}; "
                    f"resuming from there"
                )
            if start > len(values):
                print(
                    f"server offset {start:,} is past the {len(values):,} "
                    f"elements in {args.input}", file=_sys.stderr,
                )
                return 1
            todo = values[start:]
            chunks = [
                todo[i : i + per_chunk] for i in range(0, len(todo), per_chunk)
            ]
            # Write each scanned chunk at its element position the
            # moment its reply arrives, so everything delivered before
            # a server crash is already on disk — a rerun then resumes
            # from the server's restored offset and completes the same
            # output file a single run would have produced.
            mode = "r+b" if os.path.exists(args.output) else "w+b"
            with open(args.output, mode) as fh:

                def write_result(index, out, _fh=fh):
                    _fh.seek((start + index * per_chunk) * dtype.itemsize)
                    _fh.write(np.ascontiguousarray(out).tobytes())

                client.feed_many(
                    args.session, chunks,
                    window=args.window, on_result=write_result,
                )
                fh.flush()
                os.fsync(fh.fileno())
    except ServeError as exc:
        print(f"feed failed: {exc}", file=_sys.stderr)
        print(
            "if the server restarted, re-run this command: the feed "
            "resumes from the server's restored offset",
            file=_sys.stderr,
        )
        return 1
    kind = "exclusive" if args.exclusive else "inclusive"
    print(
        f"{args.input}: fed {len(values) - start:,} x {args.dtype} "
        f"({kind} {args.op}, order {args.order}, tuple size {s}) through "
        f"session {args.session!r} at {args.connect} in {len(chunks)} "
        f"chunks -> {args.output}"
    )
    return 0


def _cmd_compress(args) -> int:
    import os

    dtype = np.dtype(args.dtype)
    order = None if args.order == 0 else args.order
    if args.blocked:
        # Streaming path: memory-map the input and feed block-sized
        # chunks through the incremental writer — peak memory is a few
        # blocks, whatever the file size.
        from repro.compression.stream import BlockedStreamWriter

        nbytes = os.path.getsize(args.input)
        if nbytes % dtype.itemsize:
            print(
                f"{args.input} is {nbytes} bytes, not a multiple of "
                f"{dtype.name}'s {dtype.itemsize}-byte item size",
                file=sys.stderr,
            )
            return 2
        count = nbytes // dtype.itemsize
        source = (
            np.memmap(args.input, dtype=dtype, mode="r")
            if count
            else np.zeros(0, dtype=dtype)
        )
        with BlockedStreamWriter(
            args.output, dtype=dtype, total_count=count,
            tuple_size=args.tuple_size, block_elements=args.block_elements,
            order=order,
        ) as writer:
            step = max(
                writer.block_elements,
                ((4 << 20) // dtype.itemsize // writer.block_elements)
                * writer.block_elements,
            )
            pos = 0
            while pos < count:
                take = min(step, count - pos)
                writer.feed(np.array(source[pos : pos + take], copy=True))
                pos += take
        out_bytes = os.path.getsize(args.output)
        print(
            f"{args.input}: {nbytes:,} bytes -> {out_bytes:,} bytes "
            f"(ratio {nbytes / max(1, out_bytes):.2f}x, blocked "
            f"{writer.block_elements} elements/block, "
            f"tuple size {args.tuple_size})"
        )
        return 0

    from repro.compression import DeltaCodec

    values = np.fromfile(args.input, dtype=dtype)
    codec = DeltaCodec()
    blob = codec.compress(values, order=order, tuple_size=args.tuple_size)
    with open(args.output, "wb") as fh:
        fh.write(blob.data)
    print(
        f"{args.input}: {values.nbytes:,} bytes -> {blob.nbytes:,} bytes "
        f"(ratio {blob.ratio():.2f}x, order {blob.order}, "
        f"tuple size {blob.tuple_size})"
    )
    return 0


def _cmd_decompress(args) -> int:
    from repro.compression.stream import BlockedFileReader, is_blocked_file

    if is_blocked_file(args.input):
        # Blocked containers decode block-at-a-time: peak memory is one
        # block, whatever the container size.
        with BlockedFileReader(args.input) as reader, \
                open(args.output, "wb") as fh:
            for block in range(reader.num_blocks):
                values = np.ascontiguousarray(reader.read_block(block))
                fh.write(memoryview(values).cast("B"))
            count, dtype, ratio = reader.count, reader.dtype, reader.ratio()
        print(
            f"{args.input}: decoded {count:,} x {dtype} "
            f"(blocked, ratio {ratio:.2f}x) -> {args.output}"
        )
        return 0

    from repro.compression import DeltaCodec

    with open(args.input, "rb") as fh:
        data = fh.read()
    codec = DeltaCodec()
    values = codec.decompress(data)
    values.tofile(args.output)
    print(f"{args.input}: decoded {len(values):,} x {values.dtype} -> {args.output}")
    return 0


def _cmd_figures(args) -> int:
    from repro.harness import (
        FIGURES,
        format_figure,
        generate_figure,
        render_sparklines,
    )

    targets = args.figure or sorted(FIGURES)
    for fig_id in targets:
        data = generate_figure(fig_id)
        print(format_figure(data))
        print()
        print(render_sparklines(data))
        print()
    return 0


def _cmd_table1(args) -> int:
    from repro.harness import format_table1

    print(format_table1())
    return 0


def _cmd_checks(args) -> int:
    from repro.harness import run_headline_checks

    results = run_headline_checks()
    failed = 0
    for result in results:
        status = "ok " if result["passed"] else "FAIL"
        if not result["passed"]:
            failed += 1
        print(f"[{status}] {result['figure']}: {result['paper_claim']}")
        print(f"       model: {result['measured']}")
    print(f"\n{len(results) - failed}/{len(results)} checks pass")
    return 1 if failed else 0


def _cmd_traffic(args) -> int:
    from repro.baselines import (
        DecoupledLookbackScan,
        ReduceThenScan,
        ThreePhaseScan,
    )
    from repro.core import SamScan
    from repro.gpusim import TITAN_X

    values = np.random.default_rng(0).integers(-1000, 1000, args.n).astype(np.int32)
    kw = dict(threads_per_block=128, items_per_thread=2)
    engines = [
        ("sam", SamScan(spec=TITAN_X, num_blocks=8, **kw)),
        ("cub", DecoupledLookbackScan(spec=TITAN_X, **kw)),
        ("mgpu", ReduceThenScan(spec=TITAN_X, **kw)),
        ("thrust", ThreePhaseScan(spec=TITAN_X, **kw)),
    ]
    print(f"simulator-measured global words per element, n = {args.n:,}:")
    for name, engine in engines:
        result = engine.run(values, order=args.order)
        print(f"  {name:>7} (order {args.order}): {result.words_per_element():.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Higher-order and tuple-based prefix sums (PLDI'16 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.api import ENGINE_NAMES

    def add_scan_options(p):
        p.add_argument("input")
        p.add_argument("output")
        p.add_argument("--dtype", default="int32",
                       choices=["int32", "int64", "uint32", "uint64",
                                "float32", "float64"])
        p.add_argument("--op", default="add",
                       choices=["add", "max", "min", "xor", "and", "or", "mul"])
        p.add_argument("--order", type=int, default=1)
        p.add_argument("--tuple-size", type=int, default=1)
        p.add_argument("--exclusive", action="store_true",
                       help="exclusive scan (default: inclusive)")
        p.add_argument("--float-mode", default=None,
                       choices=["exact", "compensated", "regrouped"],
                       help="float contract (float dtypes only): exact "
                            "(default) reproduces the sequential left fold "
                            "bit for bit; compensated scans with error-free "
                            "carries — more accurate AND deterministically "
                            "parallel across any thread/shard count; "
                            "regrouped allows carry-fold rounding")
        p.add_argument("--engine", default="auto", choices=list(ENGINE_NAMES),
                       help="auto (default: the planner picks from the "
                            "data), host, threaded (slab-parallel "
                            "multicore), or a simulated-GPU engine")
        p.add_argument("--threads", type=int, default=0,
                       help="slab threads for the in-memory threaded "
                            "kernel (engine 'threaded' or chunk scans; "
                            "0 = auto)")
        p.add_argument("--explain", action="store_true",
                       help="print the planner's gates for this input "
                            "and exit without scanning")

    p = sub.add_parser("scan", help="prefix-scan a raw integer file")
    add_scan_options(p)
    p.set_defaults(fn=_cmd_scan, explain_source="memory")

    p = sub.add_parser(
        "stream",
        help="prefix-scan a file out of core (chunked, resumable)",
    )
    add_scan_options(p)
    from repro.stream import DEFAULT_CHECKPOINT_EVERY, DEFAULT_CHUNK_BYTES

    p.add_argument("--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES,
                   help="per-chunk memory budget in bytes "
                        f"(default {DEFAULT_CHUNK_BYTES})")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="persist progress here (atomic) every "
                        "--checkpoint-every chunks")
    p.add_argument("--checkpoint-every", type=int,
                   default=DEFAULT_CHECKPOINT_EVERY, metavar="K",
                   help="chunks between checkpoints "
                        f"(default {DEFAULT_CHECKPOINT_EVERY})")
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint instead of restarting")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="N > 1: run the sharded driver (N contiguous "
                        "shards scanned concurrently and carry-spliced; "
                        "--checkpoint becomes a per-shard manifest)")
    p.add_argument("--workers", type=int, default=0,
                   help="cap on concurrent shard tasks of the sharded "
                        "driver (0 = cpu count)")
    p.add_argument("--adaptive-chunks", action="store_true",
                   help="resize chunks from measured per-chunk seconds "
                        "(single-session driver; sharded jobs adapt by "
                        "default)")
    p.add_argument("--input-format", default="auto",
                   choices=["auto", "raw", "blocked"],
                   help="input container: auto (default, sniffs the "
                        "blocked magic), raw bytes, or a blocked .samb "
                        "container (dtype/count come from its header)")
    p.add_argument("--output-format", default="raw",
                   choices=["raw", "blocked"],
                   help="write the scanned stream raw (default) or as a "
                        "blocked .samb container (single-session only)")
    p.add_argument("--output-block-elements", type=int, default=None,
                   metavar="N",
                   help="elements per block of a blocked output container")
    p.add_argument("--fail-after-chunks", type=int, default=None,
                   help=argparse.SUPPRESS)  # test hook: simulate a crash
    p.add_argument("--fail-after-shards", type=int, default=None,
                   help=argparse.SUPPRESS)  # test hook: simulate a crash
    p.set_defaults(fn=_cmd_stream, explain_source="file")

    p = sub.add_parser(
        "serve",
        help="run the async scan service (named sessions, batched feeds)",
    )
    from repro.serve.server import (
        DEFAULT_BATCH_MAX,
        DEFAULT_CHECKPOINT_EVERY,
        DEFAULT_MAX_INFLIGHT_BYTES,
    )

    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick a free one, announced on stdout)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="listen on a unix socket instead of TCP")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="persist the whole session registry here "
                        "(atomic) every --checkpoint-every feeds")
    p.add_argument("--checkpoint-every", type=int,
                   default=DEFAULT_CHECKPOINT_EVERY, metavar="K",
                   help="feeds between registry checkpoints "
                        f"(default {DEFAULT_CHECKPOINT_EVERY})")
    p.add_argument("--restore", action="store_true",
                   help="restore the registry from --checkpoint before "
                        "listening (sessions resume bit-identically)")
    p.add_argument("--batch-max", type=int, default=DEFAULT_BATCH_MAX,
                   help="max feeds coalesced per dispatcher round "
                        f"(default {DEFAULT_BATCH_MAX})")
    p.add_argument("--max-inflight-bytes", type=int,
                   default=DEFAULT_MAX_INFLIGHT_BYTES,
                   help="per-connection pending-feed budget before BUSY "
                        f"replies (default {DEFAULT_MAX_INFLIGHT_BYTES})")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "feed",
        help="stream a raw integer file through a served scan session",
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="server address: host:port or unix:PATH")
    p.add_argument("--session", required=True, metavar="NAME")
    p.add_argument("--dtype", default="int32",
                   choices=["int32", "int64", "uint32", "uint64",
                            "float32", "float64"])
    p.add_argument("--op", default="add",
                   choices=["add", "max", "min", "xor", "and", "or", "mul"])
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--tuple-size", type=int, default=1)
    p.add_argument("--exclusive", action="store_true",
                   help="exclusive scan (default: inclusive)")
    p.add_argument("--float-mode", default=None,
                   choices=["exact", "compensated", "regrouped"],
                   help="float contract for the served session "
                        "(float dtypes only; see 'scan --help')")
    p.add_argument("--chunk-bytes", type=int, default=1 << 16,
                   help="bytes per FEED frame (default 65536)")
    p.add_argument("--window", type=int, default=8,
                   help="pipelined FEEDs in flight (default 8)")
    p.set_defaults(fn=_cmd_feed)

    p = sub.add_parser("compress", help="delta-compress a raw integer file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dtype", default="int32", choices=["int32", "int64"])
    p.add_argument("--order", type=int, default=0, help="0 = auto-select")
    p.add_argument("--tuple-size", type=int, default=1)
    p.add_argument("--blocked", action="store_true",
                   help="write a blocked .samb container via the "
                        "streaming writer (constant memory; the output "
                        "feeds 'stream --input-format blocked' directly)")
    p.add_argument("--block-elements", type=int, default=65536, metavar="N",
                   help="elements per block with --blocked (default 65536)")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="invert compress")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("figures", help="print the paper's figures")
    p.add_argument("figure", nargs="*", help="e.g. fig03 (default: all)")
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("table1", help="print Table 1")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("checks", help="run the headline-claim checks")
    p.set_defaults(fn=_cmd_checks)

    p = sub.add_parser("traffic", help="measure traffic coefficients")
    p.add_argument("--n", type=int, default=32768)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(fn=_cmd_traffic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
