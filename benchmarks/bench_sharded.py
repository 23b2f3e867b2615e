#!/usr/bin/env python
"""Benchmark: sharded out-of-core scan vs the single-session driver.

Times ``scan_file_sharded`` (integer add, order 1, inclusive) against
``scan_file`` over the same file, sweeping the shard count.  Writes
``benchmarks/results/BENCH_sharded.json`` with raw seconds, relative
throughput, and the sharded driver's own counters (bytes read and
written, per-phase seconds).

The sharded driver is reduce-then-scan: a read-only reduce pass over
all shards but the last, the splice, then a scan pass that rescans
every shard from its exact carry and writes it once.  It reads
``2n - n/S`` bytes against the session driver's ``n``, so on one core
it can only tie or lose; it wins when shards overlap on several cores
(numpy releases the GIL inside ufunc loops).  Phase seconds are summed
work, so ``seconds_total`` can exceed wall-clock when that happens.

Usage:
    python benchmarks/bench_sharded.py [--quick]
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

from repro.stream import scan_file, scan_file_sharded  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_sharded.json"

N_ELEMENTS = 1 << 23          # 64 MiB of int64
SHARDS = (2, 4, 8)
CHUNK_BYTES = 4 << 20
REPEATS = 3


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep(n, shard_counts, repeats, workdir: pathlib.Path) -> dict:
    rng = np.random.default_rng(42)
    values = rng.integers(-1000, 1000, size=n, dtype=np.int64)
    raw = workdir / "in.bin"
    values.tofile(raw)
    kwargs = dict(dtype="int64", op="add", chunk_bytes=CHUNK_BYTES)

    session_path = workdir / "session.bin"
    scan_file(raw, session_path, **kwargs)  # warm page cache
    session_seconds = _time(
        lambda: scan_file(raw, session_path, **kwargs), repeats
    )
    print(
        f"single-session driver: {session_seconds * 1e3:8.2f} ms "
        f"({n / session_seconds / 1e6:.1f} M items/s)"
    )
    reference = np.fromfile(session_path, dtype=np.int64)

    workers = os.cpu_count() or 1
    rows = []
    for shards in shard_counts:
        out_path = workdir / "sharded.bin"
        sharded_kwargs = dict(kwargs, shards=shards, workers=workers)
        result = scan_file_sharded(raw, out_path, **sharded_kwargs)
        if not np.array_equal(np.fromfile(out_path, dtype=np.int64), reference):
            raise SystemExit(
                f"sharded output (shards={shards}) does not match the "
                f"single-session driver — benchmark aborted"
            )
        sharded_seconds = _time(
            lambda: scan_file_sharded(raw, out_path, **sharded_kwargs), repeats
        )
        c = result.counters
        rows.append({
            "shards": shards,
            "workers": workers,
            "session_seconds": session_seconds,
            "sharded_seconds": sharded_seconds,
            "speedup_vs_session": session_seconds / sharded_seconds,
            "session_items_per_s": n / session_seconds,
            "sharded_items_per_s": n / sharded_seconds,
            "bytes_in": c.bytes_in,
            "bytes_out": c.bytes_out,
            "chunk_resizes": c.chunk_resizes,
            "seconds_read": c.seconds_read,
            "seconds_scan": c.seconds_scan,
            "seconds_write": c.seconds_write,
            "seconds_splice": c.seconds_splice,
        })
        print(
            f"shards {shards:3d} (read {c.bytes_in / n / 8:.2f}n, "
            f"wrote {c.bytes_out / n / 8:.2f}n): {sharded_seconds * 1e3:8.2f} ms "
            f"({rows[-1]['speedup_vs_session']:.2f}x single-session)"
        )
    return {
        "benchmark": "sharded_vs_session",
        "n": n,
        "order": 1,
        "op": "add",
        "dtype": "int64",
        "inclusive": True,
        "chunk_bytes": CHUNK_BYTES,
        "repeats": repeats,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "reduce-then-scan reads 2n - n/S and writes n, so on one core "
            "speedup_vs_session is at most 1; shards overlapping on "
            "several cores are the only source of a win.  phase seconds "
            "are summed work across shards, not wall-clock."
        ),
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (for CI smoke)")
    args = parser.parse_args(argv)
    n = N_ELEMENTS // 8 if args.quick else N_ELEMENTS
    shard_counts = SHARDS[:2] if args.quick else SHARDS
    repeats = 2 if args.quick else REPEATS

    with tempfile.TemporaryDirectory(prefix="bench_sharded_") as td:
        payload = run_sweep(n, shard_counts, repeats, pathlib.Path(td))
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
