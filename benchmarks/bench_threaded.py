#!/usr/bin/env python
"""Benchmark: the threaded in-memory lane kernel vs the serial kernel.

One JSON (``benchmarks/results/BENCH_threaded.json``): ``rows`` sweep
``repro.kernels.scan_into(threads=...)`` against serial
``repro.kernels.scan_into`` on the same buffers in the same run, over
threads x tuple_size x order for the ISSUE's headline shape (8M int64
= 64 MiB of add).  ``speedup`` is serial/threaded measured within one
run on one machine — the machine-independent ratio the CI gate
(`tools/bench_gate.py`) regresses on; rows carry ``threads`` so the
gate matches per thread count.  Only configurations with a slab path
(``repro.kernels.threaded.runs_slabs``: the row kind) are swept; the
fused order-2, tuple-4 shape scans serially under ``threads=``.

Every timed configuration is first checked bit-identical against the
serial kernel before the clock starts (the threaded kernel's contract
is exactness, not just speed).

The payload also records ``cpu_count`` and an honest ``target_met``
for the ISSUE's acceptance number (>= 1.5x for int64 add at 64 MiB
with 4 slab threads): slab threads can only beat the serial kernel
when the machine has cores for them, so on single-core runners the
flag is expected (and reported) as false rather than gamed.

Usage:
    python benchmarks/bench_threaded.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import kernels  # noqa: E402
from repro.kernels.threaded import runs_slabs  # noqa: E402
from repro.ops import get_op  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_threaded.json"

N_ELEMENTS = 1 << 23          # 8M int64 = 64 MiB: the ISSUE's headline shape
THREADS = (1, 2, 4)
TUPLE_SIZES = (1, 4)
ORDERS = (1, 2)
DTYPES = ("int64",)
OPS = ("add",)
REPEATS = 3
TARGET_SPEEDUP = 1.5
TARGET_THREADS = 4


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep(n, threads_list, tuple_sizes, orders, dtypes, ops, repeats):
    rng = np.random.default_rng(42)
    rows = []
    for dtype in dtypes:
        values = rng.integers(-1000, 1000, size=n).astype(dtype)
        scratch = np.empty_like(values)
        for opname in ops:
            op = get_op(opname)
            for s in tuple_sizes:
                for order in orders:
                    if not runs_slabs(op, dtype, order, s):
                        continue  # the fused kind scans serially
                    want = kernels.scan_into(
                        values, np.empty_like(values), op,
                        order=order, tuple_size=s,
                    )
                    serial_seconds = _time(
                        lambda: kernels.scan_into(
                            values, scratch, op, order=order, tuple_size=s
                        ),
                        repeats,
                    )
                    for threads in threads_list:
                        # cutover_bytes=0: 64 MiB is below the kernel's
                        # parallel cutover, which would scan serially.
                        got = kernels.scan_into(
                            values, np.empty_like(values), op,
                            order=order, tuple_size=s, threads=threads,
                            cutover_bytes=0,
                        )
                        if got.tobytes() != want.tobytes():
                            raise SystemExit(
                                f"threaded mismatch vs serial kernel "
                                f"(op={opname} dtype={dtype} s={s} "
                                f"q={order} threads={threads})"
                            )
                        threaded_seconds = _time(
                            lambda: kernels.scan_into(
                                values, scratch, op, order=order,
                                tuple_size=s, threads=threads,
                                cutover_bytes=0,
                            ),
                            repeats,
                        )
                        rows.append({
                            "tuple_size": s,
                            "order": order,
                            "dtype": dtype,
                            "op": opname,
                            "threads": threads,
                            "n": n,
                            "serial_seconds": serial_seconds,
                            "threaded_seconds": threaded_seconds,
                            "speedup": serial_seconds / threaded_seconds,
                            "serial_items_per_s": n / serial_seconds,
                            "threaded_items_per_s": n / threaded_seconds,
                        })
                        print(
                            f"{opname:>4} {dtype:>6} s={s:<3} q={order} "
                            f"t={threads}: serial "
                            f"{serial_seconds * 1e3:7.2f} ms, threaded "
                            f"{threaded_seconds * 1e3:7.2f} ms "
                            f"({rows[-1]['speedup']:.2f}x)"
                        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (for CI smoke)")
    parser.add_argument("--output", type=pathlib.Path, default=RESULTS,
                        help=f"result JSON path (default {RESULTS})")
    args = parser.parse_args(argv)
    if args.quick:
        # Same n as the full sweep: the serial-vs-threaded ratio is
        # size-dependent and the gate matches quick rows against the
        # committed full-sweep baseline by (s, q, dtype, op, threads).
        n = N_ELEMENTS
        threads_list = (1, TARGET_THREADS)
        tuple_sizes, orders = (1,), (1,)
        repeats = 2
    else:
        n = N_ELEMENTS
        threads_list = THREADS
        tuple_sizes, orders = TUPLE_SIZES, ORDERS
        repeats = REPEATS

    rows = run_sweep(n, threads_list, tuple_sizes, orders, DTYPES, OPS, repeats)
    headline = [
        r for r in rows
        if r["tuple_size"] == 1 and r["order"] == 1 and r["dtype"] == "int64"
        and r["op"] == "add" and r["threads"] == TARGET_THREADS
    ]
    headline_speedup = headline[0]["speedup"] if headline else None
    cpu_count = os.cpu_count()
    payload = {
        "benchmark": "threaded_vs_serial_kernel",
        "n": n,
        "repeats": repeats,
        "quick": bool(args.quick),
        "target": {
            "speedup": TARGET_SPEEDUP,
            "threads": TARGET_THREADS,
            "headline_speedup": headline_speedup,
            "met": bool(
                headline_speedup is not None
                and headline_speedup >= TARGET_SPEEDUP
            ),
            "achievable_here": bool(cpu_count and cpu_count >= 2),
        },
        "hardware": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "speedup = serial_seconds / threaded_seconds measured in "
            "the same run, so it is comparable across machines (the CI "
            "gate compares speedups, never absolute seconds).  Slab "
            "parallelism needs real cores: on a single-CPU machine the "
            "expected speedup is ~1.0x (the threaded kernel's job there "
            "is to not regress), and target.met honestly reports "
            "against the >= 1.5x acceptance number either way; "
            "target.achievable_here says whether this machine could "
            "have met it at all."
        ),
        "rows": rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if headline_speedup is not None:
        status = "met" if payload["target"]["met"] else "NOT met"
        print(
            f"headline: {headline_speedup:.2f}x at {TARGET_THREADS} threads "
            f"on {cpu_count} cpu(s) — target {TARGET_SPEEDUP}x {status}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
