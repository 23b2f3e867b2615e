#!/usr/bin/env python
"""Benchmark: the unified kernel layer vs the old strided-loop host path.

Two sections, one JSON (``benchmarks/results/BENCH_kernels.json``):

* ``rows`` — ``repro.kernels.scan_into`` (the 2-D lane-block kernel
  with the cache-blocked integer path) against the pre-kernel host
  implementation (a Python loop over ``s`` strided lane slices with
  per-lane exclusive temporaries, inlined below as ``legacy_scan``),
  swept over tuple_size x order x dtype x op.  ``speedup`` is measured
  within one run on one machine, so it is the machine-independent
  number the CI gate (`tools/bench_gate.py`) regresses on.
* ``session_rows`` — ``ScanSession``'s integer path against the
  sharded driver's per-chunk kernel (`repro.kernels.LaneKernel`,
  in-place mode) feeding identical chunk streams: the ROADMAP item
  this PR closes asked the session to stop losing to the sharded
  kernel on single-core chunk scans.

Every timed configuration is first checked bit-identical against the
legacy path (integers) before the clock starts.

Usage:
    python benchmarks/bench_kernels.py [--quick] [--output PATH]
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
from repro.stream import ScanSession  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_kernels.json"

N_ELEMENTS = 1 << 22
TUPLE_SIZES = (1, 2, 4, 16, 64)
ORDERS = (1, 2, 3)
DTYPES = ("int32", "int64")
OPS = ("add", "max")
REPEATS = 3

SESSION_TUPLE_SIZES = (1, 4, 16)
SESSION_CHUNK_ELEMENTS = 1 << 20


def legacy_scan(values, op, order, tuple_size, inclusive=True):
    """The pre-kernel host path, verbatim: a Python loop over ``s``
    strided lane slices, a fresh output per pass, and a per-lane
    ``shifted`` temporary on the exclusive pass."""
    identity = op.identity(values.dtype)
    out = values
    for iteration in range(order):
        last = iteration == order - 1
        incl = inclusive or not last
        src = out
        out = np.empty_like(src)
        for lane in range(tuple_size):
            lane_values = src[lane::tuple_size]
            if lane_values.size == 0:
                continue
            lane_scan = op.accumulate(lane_values)
            if incl:
                out[lane::tuple_size] = lane_scan
            else:
                shifted = np.empty_like(lane_scan)
                shifted[0] = identity
                shifted[1:] = lane_scan[:-1]
                out[lane::tuple_size] = shifted
    return out


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_sweep(n, tuple_sizes, orders, dtypes, ops, repeats):
    rng = np.random.default_rng(42)
    rows = []
    for dtype in dtypes:
        values = rng.integers(-1000, 1000, size=n).astype(dtype)
        for opname in ops:
            op = get_op(opname)
            for s in tuple_sizes:
                for order in orders:
                    want = legacy_scan(values, op, order, s)
                    scratch = np.empty_like(values)
                    got = kernels.scan_into(
                        values, scratch, op, order=order, tuple_size=s
                    )
                    if got.tobytes() != want.tobytes():
                        raise SystemExit(
                            f"kernel mismatch vs legacy path "
                            f"(op={opname} dtype={dtype} s={s} q={order})"
                        )
                    legacy_seconds = _time(
                        lambda: legacy_scan(values, op, order, s), repeats
                    )
                    kernel_seconds = _time(
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
                        "legacy_seconds": legacy_seconds,
                        "kernel_seconds": kernel_seconds,
                        "speedup": legacy_seconds / kernel_seconds,
                        "legacy_items_per_s": n / legacy_seconds,
                        "kernel_items_per_s": n / kernel_seconds,
                    })
                    print(
                        f"{opname:>4} {dtype:>6} s={s:<3} q={order}: "
                        f"legacy {legacy_seconds * 1e3:7.2f} ms, "
                        f"kernel {kernel_seconds * 1e3:7.2f} ms "
                        f"({rows[-1]['speedup']:.2f}x)"
                    )
    return rows


def run_session_sweep(n, tuple_sizes, chunk_elements, repeats):
    """ScanSession integer path vs the sharded driver's per-chunk kernel."""
    rng = np.random.default_rng(7)
    values = rng.integers(-1000, 1000, size=n, dtype=np.int64)
    chunks = [
        values[i : i + chunk_elements] for i in range(0, n, chunk_elements)
    ]
    op = get_op("add")
    rows = []
    for s in tuple_sizes:
        def run_session():
            session = ScanSession(op="add", tuple_size=s, dtype=np.int64)
            for chunk in chunks:
                session.feed(chunk)

        def run_lane_kernel():
            # The sharded driver's per-chunk scan: an owned copy fed to
            # the in-place kernel (exactly what `_scan_shard` does).
            kernel = kernels.LaneKernel(op, np.int64, s)
            for chunk in chunks:
                kernel.feed(np.array(chunk, copy=True))

        session = ScanSession(op="add", tuple_size=s, dtype=np.int64)
        got = np.concatenate([session.feed(c) for c in chunks])
        want = legacy_scan(values, op, 1, s)
        if got.tobytes() != want.tobytes():
            raise SystemExit(f"session mismatch vs legacy path (s={s})")

        # The two sides differ by a few percent at most, so this
        # section needs more repeats than the kernel sweep for a
        # stable best-of.
        session_seconds = _time(run_session, 3 * repeats)
        kernel_seconds = _time(run_lane_kernel, 3 * repeats)
        rows.append({
            "tuple_size": s,
            "dtype": "int64",
            "op": "add",
            "n": n,
            "chunk_elements": chunk_elements,
            "session_seconds": session_seconds,
            "lane_kernel_seconds": kernel_seconds,
            "session_items_per_s": n / session_seconds,
            "lane_kernel_items_per_s": n / kernel_seconds,
            "session_vs_lane_kernel": kernel_seconds / session_seconds,
        })
        print(
            f"session s={s:<3}: {session_seconds * 1e3:7.2f} ms vs "
            f"lane-kernel {kernel_seconds * 1e3:7.2f} ms "
            f"({rows[-1]['session_vs_lane_kernel']:.2f}x; >= 1 means the "
            f"session path is no slower)"
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
        # Same n as the full sweep: the legacy-vs-kernel speedup is
        # size-dependent, and the CI gate compares quick rows against
        # the committed full-sweep baseline by (s, q, dtype, op) key —
        # only the grid and repeat count shrink.
        n = N_ELEMENTS
        tuple_sizes, orders = (1, 4, 16), (1, 2)
        dtypes, ops = ("int64",), ("add",)
        session_tuple_sizes = (1, 16)
        chunk = SESSION_CHUNK_ELEMENTS
        repeats = 2
    else:
        n = N_ELEMENTS
        tuple_sizes, orders = TUPLE_SIZES, ORDERS
        dtypes, ops = DTYPES, OPS
        session_tuple_sizes = SESSION_TUPLE_SIZES
        chunk = SESSION_CHUNK_ELEMENTS
        repeats = REPEATS

    rows = run_kernel_sweep(n, tuple_sizes, orders, dtypes, ops, repeats)
    session_rows = run_session_sweep(n, session_tuple_sizes, chunk, repeats)
    payload = {
        "benchmark": "kernels_vs_legacy_host",
        "n": n,
        "repeats": repeats,
        "quick": bool(args.quick),
        "block_bytes": kernels.BLOCK_BYTES,
        "blocked_min_stride_bytes": kernels.BLOCKED_MIN_STRIDE_BYTES,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "speedup = legacy_seconds / kernel_seconds measured in the "
            "same run, so it is comparable across machines (the CI gate "
            "compares speedups, never absolute seconds).  Large tuple "
            "sizes gain the most: the legacy path pays s Python-level "
            "strided passes while the kernel does one cache-blocked 2-D "
            "accumulate.  session_rows compare ScanSession's integer "
            "path against the sharded driver's per-chunk LaneKernel on "
            "identical chunk streams (>= 1.0 closes the ROADMAP gap)."
        ),
        "rows": rows,
        "session_rows": session_rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
