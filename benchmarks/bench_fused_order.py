#!/usr/bin/env python
"""Benchmark: fused single-pass order-q scans vs pass-per-order.

One JSON (``benchmarks/results/BENCH_fused.json``): ``rows`` sweep the
fused tile-resident path (``repro.kernels.scan_into``'s order-q tile
loop, :func:`repro.kernels.fused_lane_scan` — one streaming pass that
produces all ``q`` orders, folding each order's running total into
each tile's head row)
against the pass-per-order layout (``q`` iterated
``repro.kernels.lane_scan`` passes — the paper's ``2qn`` traffic) on
the same buffers in the same run.  ``speedup`` is
pass-per-order/fused measured within one run on one machine — the
machine-independent ratio the CI gate (``tools/bench_gate.py``)
regresses on.

Every timed configuration is first checked bit-identical between the
two layouts before the clock starts (the fused path's contract is
exactness under modular integer ADD, not just speed).

The headline shape is the ISSUE's acceptance number: order-3 int64
add on 64 MiB at tuple_size 4 must be >= 2x pass-per-order.  Unlike
the threaded sweep, this advantage needs no extra cores — the win is
memory traffic, one pass instead of q — so ``achievable_here`` is
always true.

Usage:
    python benchmarks/bench_fused_order.py [--quick] [--output PATH]
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

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_fused.json"

N_ELEMENTS = 1 << 23          # 8M int64 = 64 MiB: the ISSUE's headline shape
ORDERS = (2, 3, 4)
TUPLE_SIZES = (4,)
DTYPES = ("int64",)
OPS = ("add",)
REPEATS = 3
TARGET_SPEEDUP = 2.0
TARGET_ORDER = 3
TARGET_TUPLE = 4


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def pass_per_order_into(values, out, op, order, tuple_size):
    """The pre-fusion layout: ``order`` iterated lane scans, each a
    full read+write pass over the buffer."""
    current = values
    for _ in range(order):
        kernels.lane_scan(current, op, tuple_size, out=out)
        current = out
    return out


def run_sweep(n, orders, tuple_sizes, dtypes, ops, repeats):
    rng = np.random.default_rng(42)
    rows = []
    for dtype in dtypes:
        values = rng.integers(-1000, 1000, size=n).astype(dtype)
        scratch = np.empty_like(values)
        for opname in ops:
            op = get_op(opname)
            for s in tuple_sizes:
                for order in orders:
                    if not kernels.fused_supported(op, values.dtype, order, s):
                        raise SystemExit(
                            f"sweep shape outside the fused gate "
                            f"(op={opname} dtype={dtype} s={s} q={order})"
                        )
                    want = pass_per_order_into(
                        values, np.empty_like(values), op, order, s
                    )
                    got = kernels.scan_into(
                        values, np.empty_like(values), op,
                        order=order, tuple_size=s,
                    )
                    if got.tobytes() != want.tobytes():
                        raise SystemExit(
                            f"fused mismatch vs pass-per-order "
                            f"(op={opname} dtype={dtype} s={s} q={order})"
                        )
                    per_order_seconds = _time(
                        lambda: pass_per_order_into(
                            values, scratch, op, order, s
                        ),
                        repeats,
                    )
                    fused_seconds = _time(
                        lambda: kernels.scan_into(
                            values, scratch, op, order=order, tuple_size=s
                        ),
                        repeats,
                    )
                    rows.append({
                        "tuple_size": s,
                        "order": order,
                        "dtype": dtype,
                        "op": opname,
                        "n": n,
                        "per_order_seconds": per_order_seconds,
                        "fused_seconds": fused_seconds,
                        "speedup": per_order_seconds / fused_seconds,
                        "per_order_items_per_s": n / per_order_seconds,
                        "fused_items_per_s": n / fused_seconds,
                    })
                    print(
                        f"{opname:>4} {dtype:>6} s={s:<3} q={order}: "
                        f"pass-per-order {per_order_seconds * 1e3:7.2f} ms, "
                        f"fused {fused_seconds * 1e3:7.2f} ms "
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
        # Same n as the full sweep: the fused-vs-iterated ratio is
        # size-dependent (the win is memory traffic, which only shows
        # once the buffer exceeds cache) and the gate matches quick
        # rows against the committed baseline by (s, q, dtype, op, n).
        orders = (TARGET_ORDER,)
        repeats = 2
    else:
        orders = ORDERS
        repeats = REPEATS

    rows = run_sweep(N_ELEMENTS, orders, TUPLE_SIZES, DTYPES, OPS, repeats)
    headline = [
        r for r in rows
        if r["tuple_size"] == TARGET_TUPLE and r["order"] == TARGET_ORDER
        and r["dtype"] == "int64" and r["op"] == "add"
    ]
    headline_speedup = headline[0]["speedup"] if headline else None
    payload = {
        "benchmark": "fused_order_vs_pass_per_order",
        "n": N_ELEMENTS,
        "repeats": repeats,
        "quick": bool(args.quick),
        "target": {
            "speedup": TARGET_SPEEDUP,
            "order": TARGET_ORDER,
            "tuple_size": TARGET_TUPLE,
            "headline_speedup": headline_speedup,
            "met": bool(
                headline_speedup is not None
                and headline_speedup >= TARGET_SPEEDUP
            ),
            "achievable_here": True,
        },
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "speedup = per_order_seconds / fused_seconds measured in "
            "the same run, so it is comparable across machines (the CI "
            "gate compares speedups, never absolute seconds).  The "
            "fused path's advantage is memory traffic — one streaming "
            "pass instead of q — so it holds on any core count; "
            "achievable_here is always true and target.met is the "
            "honest verdict against the >= 2x acceptance number."
        ),
        "rows": rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if headline_speedup is not None:
        status = "met" if payload["target"]["met"] else "NOT met"
        print(
            f"headline: {headline_speedup:.2f}x at q={TARGET_ORDER} "
            f"s={TARGET_TUPLE} int64 add 64 MiB — "
            f"target {TARGET_SPEEDUP}x {status}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
