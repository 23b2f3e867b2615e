#!/usr/bin/env python
"""Benchmark: streaming out-of-core scan vs the one-shot host engine.

Sweeps the chunk budget over a fixed file and times ``scan_file``
(chunked, prefetched, optionally checkpointed) against the
one-shot baseline (read whole file, ``host_prefix_sum``, write whole
file).  Writes ``benchmarks/results/BENCH_stream.json`` with raw
seconds, items/s, relative throughput, and the stream driver's own
per-phase counters (read / scan / write / checkpoint), so the cost of
out-of-core execution and of durability is measurable rather than
assumed.

Expected shape: throughput approaches the one-shot engine as chunks
grow (per-chunk overhead amortizes), and checkpointing costs a bounded
extra slice of wall-clock (the fsyncs), traded for resumability.

Usage:
    python benchmarks/bench_stream_oneshot.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.host import host_prefix_sum  # noqa: E402
from repro.stream import scan_file  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_stream.json"

N_ELEMENTS = 1 << 22          # 32 MiB of int64
CHUNK_BYTES = (1 << 18, 1 << 20, 1 << 22, 1 << 24)
ORDER = 2
REPEATS = 3


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep(n, chunk_sizes, repeats, workdir: pathlib.Path) -> dict:
    rng = np.random.default_rng(42)
    values = rng.integers(-1000, 1000, size=n, dtype=np.int64)
    raw = workdir / "in.bin"
    values.tofile(raw)

    def oneshot():
        data = np.fromfile(raw, dtype=np.int64)
        out = host_prefix_sum(data, order=ORDER)
        out.tofile(workdir / "oneshot.bin")

    oneshot_seconds = _time(oneshot, repeats)
    print(
        f"one-shot host: {oneshot_seconds * 1e3:8.2f} ms "
        f"({n / oneshot_seconds / 1e6:.1f} M items/s)"
    )

    rows = []
    for chunk_bytes in chunk_sizes:
        for checkpointed in (False, True):
            out_path = workdir / "stream.bin"
            ckpt = workdir / "job.ckpt" if checkpointed else None
            kwargs = dict(
                dtype="int64", order=ORDER, chunk_bytes=chunk_bytes,
                checkpoint=ckpt, checkpoint_every=4,
            )
            result = scan_file(raw, out_path, **kwargs)  # warm page cache
            stream_seconds = _time(
                lambda: scan_file(raw, out_path, **kwargs), repeats
            )
            c = result.counters
            rows.append({
                "chunk_bytes": chunk_bytes,
                "chunks": c.chunks,
                "checkpointed": checkpointed,
                "checkpoint_writes": c.checkpoint_writes,
                "oneshot_seconds": oneshot_seconds,
                "stream_seconds": stream_seconds,
                "stream_vs_oneshot": oneshot_seconds / stream_seconds,
                "oneshot_items_per_s": n / oneshot_seconds,
                "stream_items_per_s": n / stream_seconds,
                "seconds_read": c.seconds_read,
                "seconds_scan": c.seconds_scan,
                "seconds_write": c.seconds_write,
                "seconds_checkpoint": c.seconds_checkpoint,
            })
            print(
                f"chunk {chunk_bytes >> 10:6d} KiB "
                f"({c.chunks:4d} chunks, ckpt={'y' if checkpointed else 'n'}): "
                f"{stream_seconds * 1e3:8.2f} ms "
                f"({rows[-1]['stream_vs_oneshot']:.2f}x one-shot)"
            )
    return {
        "benchmark": "stream_vs_oneshot",
        "n": n,
        "order": ORDER,
        "op": "add",
        "dtype": "int64",
        "repeats": repeats,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "stream_vs_oneshot < 1 is the price of bounded memory + "
            "chunk pipelining; checkpointed rows additionally pay one "
            "output fsync + atomic state write per checkpoint_every chunks"
        ),
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (for CI smoke)")
    args = parser.parse_args(argv)
    n = N_ELEMENTS // 4 if args.quick else N_ELEMENTS
    chunk_sizes = CHUNK_BYTES[:2] if args.quick else CHUNK_BYTES
    repeats = 2 if args.quick else REPEATS

    with tempfile.TemporaryDirectory(prefix="bench_stream_") as td:
        payload = run_sweep(n, chunk_sizes, repeats, pathlib.Path(td))
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
