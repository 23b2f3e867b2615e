#!/usr/bin/env python
"""Benchmark: threaded compensated float scan vs the serial compensated scan.

One JSON (``benchmarks/results/BENCH_floats.json``): ``rows`` sweep
``repro.kernels.scan_into(float_mode="compensated")`` against
the serial ``repro.kernels.compensated_scan_into`` on the same buffers
in the same run, over threads x tuple_size x order for the float
headline shape (8M float64 = 64 MiB of add).  ``speedup`` is
serial/threaded measured within one run on one machine — the
machine-independent ratio the CI gate (``tools/bench_gate.py``)
regresses on; rows carry ``threads`` so the gate matches per thread
count.

Every timed configuration is first checked bit-identical against the
serial compensated scan before the clock starts: the whole point of
the error-free carry lane is that the threaded result is not "close",
it is the same bits for any thread count.  Each float64 add row also
records the max absolute error of the compensated result and of the
naive ``np.cumsum`` fold against an extended-precision oracle on a
cancellation-heavy prefix of the buffer, so the JSON documents the
accuracy win next to the speed ratio.

The payload records ``cpu_count`` and an honest ``target_met`` for the
ISSUE's acceptance number (>= 1.5x for float64 add at 64 MiB with 4
slab threads): slab threads only beat the serial kernel when the
machine has cores for them, so on single-core runners the flag is
expected (and reported) as false rather than gamed, and
``target.achievable_here`` tells the gate to stand down until the
baseline is re-recorded on capable hardware.

Usage:
    python benchmarks/bench_float_compensated.py [--quick] [--output PATH]
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
from repro.ops import get_op  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_floats.json"

N_ELEMENTS = 1 << 23          # 8M float64 = 64 MiB: the float headline shape
THREADS = (1, 2, 4)
TUPLE_SIZES = (1, 4)
ORDERS = (1, 2)
DTYPES = ("float64",)
OPS = ("add",)
REPEATS = 3
TARGET_SPEEDUP = 1.5
TARGET_THREADS = 4
ACCURACY_PREFIX = 1 << 18     # oracle cumsum is slow; sample a prefix


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cancellation_values(rng, n, dtype):
    """Groups of [big, 1, -big, 1] with a per-group sign: partial sums
    repeatedly cancel, so the naive fold's absorbed units accumulate
    while the compensated scan stays at the rounding floor."""
    big = 1e7 if np.dtype(dtype) == np.float32 else 1e16
    groups = n // 4 + 1
    base = np.tile(np.array([big, 1.0, -big, 1.0]), groups)
    base *= np.repeat(rng.choice([1.0, -1.0], groups), 4)
    return base[:n].astype(dtype)


def _accuracy(values, scanned_prefix):
    """Max |error| of the compensated prefix and of the naive cumsum
    against an extended-precision oracle, on a prefix of the buffer."""
    x = values[:ACCURACY_PREFIX]
    oracle = np.cumsum(x.astype(np.longdouble))
    naive = np.max(np.abs(np.cumsum(x).astype(np.longdouble) - oracle))
    comp = np.max(
        np.abs(scanned_prefix[:ACCURACY_PREFIX].astype(np.longdouble) - oracle)
    )
    return float(comp), float(naive)


def run_sweep(n, threads_list, tuple_sizes, orders, dtypes, ops, repeats):
    rng = np.random.default_rng(42)
    rows = []
    for dtype in dtypes:
        values = _cancellation_values(rng, n, dtype)
        scratch = np.empty_like(values)
        for opname in ops:
            op = get_op(opname)
            for s in tuple_sizes:
                for order in orders:
                    want = kernels.compensated_scan_into(
                        values, np.empty_like(values), op,
                        order=order, tuple_size=s,
                    )
                    comp_err = naive_err = None
                    if s == 1 and order == 1:
                        comp_err, naive_err = _accuracy(values, want)
                    serial_seconds = _time(
                        lambda: kernels.compensated_scan_into(
                            values, scratch, op, order=order, tuple_size=s
                        ),
                        repeats,
                    )
                    for threads in threads_list:
                        got = kernels.scan_into(
                            values, np.empty_like(values), op,
                            order=order, tuple_size=s, threads=threads,
                            float_mode="compensated",
                        )
                        if got.tobytes() != want.tobytes():
                            raise SystemExit(
                                f"threaded compensated mismatch vs serial "
                                f"compensated scan (op={opname} dtype={dtype} "
                                f"s={s} q={order} threads={threads})"
                            )
                        threaded_seconds = _time(
                            lambda: kernels.scan_into(
                                values, scratch, op, order=order,
                                tuple_size=s, threads=threads,
                                float_mode="compensated",
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
                            "max_abs_error_compensated": comp_err,
                            "max_abs_error_naive_cumsum": naive_err,
                        })
                        print(
                            f"{opname:>4} {dtype:>8} s={s:<3} q={order} "
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
        if r["tuple_size"] == 1 and r["order"] == 1 and r["dtype"] == "float64"
        and r["op"] == "add" and r["threads"] == TARGET_THREADS
    ]
    headline_speedup = headline[0]["speedup"] if headline else None
    cpu_count = os.cpu_count()
    payload = {
        "benchmark": "threaded_compensated_vs_serial_compensated",
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
            "speedup = serial_seconds / threaded_seconds, both running "
            "the compensated (error-free carry) float scan, measured in "
            "the same run so the ratio is comparable across machines "
            "(the CI gate compares speedups, never absolute seconds). "
            "Every timed configuration is bit-identical to the serial "
            "compensated scan before the clock starts.  Slab "
            "parallelism needs real cores: on a single-CPU machine the "
            "expected speedup is ~1.0x and target.met honestly reports "
            "against the >= 1.5x acceptance number either way; "
            "target.achievable_here says whether this machine could "
            "have met it at all.  max_abs_error_* document the accuracy "
            "win vs the naive cumsum on a cancellation corpus."
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
