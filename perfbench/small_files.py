"""``small_files``: many small int64 order-2 files scanned by flag-less
``repro.scan_file``, so the planner runs on every call.

Per-call overhead is the point: planning and stream set-up are a
large share of each call here and of no other workload.
"""

from __future__ import annotations

import time

import numpy as np

from common import Ops, strategy_family
from file_scan import _remove
from oracle import reference_prefix_matches

ORDER = 2

#: (kind, bytes, files per round).  The counts put the 50th percentile
#: inside the 256 KiB calls and the 90th inside the 4 MiB calls, away
#: from the steps between sizes.
SIZES = (
    ("64k", 64 << 10, 4),
    ("256k", 256 << 10, 2),
    ("1m", 1 << 20, 2),
    ("4m", 4 << 20, 2),
)

#: Calls behind ``plan.plan_file_ms``.
PLAN_PASSES = 3


class SmallFiles:
    name = "small_files"
    dtypes = ("int64",)
    round_weights = {kind: count for kind, _, count in SIZES}

    def __init__(self, ctx, probe: bool = False):
        self.ctx = ctx  # a probe runs the same files, for less time
        self.calls = []  # (wall seconds, StreamResult)

    def _write_inputs(self, tag: str):
        """One input per file slot of a round, in round order: (kind,
        input path, output path, input, expected output).  The expected
        output is numpy ``cumsum`` applied twice, spot-checked against
        ``repro.reference`` in setup."""
        files = []
        for index, (kind, nbytes, count) in enumerate(SIZES):
            rng = self.ctx.rng(3, index)
            for slot in range(count):
                x = rng.integers(-1000, 1000, nbytes // 8, dtype=np.int64)
                src = self.ctx.path("small", f"{tag}-{kind}-{slot}.in")
                x.tofile(src)
                want = np.cumsum(np.cumsum(x), dtype=np.int64)
                files.append((slot, kind, src, src[:-3] + ".out", x, want))
        # Interleave sizes so a round never runs one size back to back.
        files.sort(key=lambda f: f[0])
        return [f[1:] for f in files]

    def setup(self) -> None:
        """First-use kernel tuning, the input files with their expected
        outputs, and one warm-up call per size."""
        from repro.core.tuning import kernel_tuning

        for dtype in self.dtypes:
            kernel_tuning(dtype, refresh=True)
        self.files = self._write_inputs("job")
        self.ctx.checked(all(reference_prefix_matches(x, want, ORDER, 1)
                             for _, _, _, x, want in self.files))
        seen = set()
        for kind, src, out, _, _ in self.files:
            if kind not in seen:
                seen.add(kind)
                self._call(src, out)
        self.calls = []

    def _call(self, src: str, out: str):
        import repro

        return repro.scan_file(src, out, dtype="int64", order=ORDER)

    def run(self, seconds: float, tracer) -> Ops:
        ops = Ops(self.round_weights)
        start, r = time.perf_counter(), 0
        while r == 0 or time.perf_counter() - start < seconds:
            for kind, src, out, x, want in self.files:
                op = f"{kind}.{r}"
                _remove(out)
                with tracer.span("bench.op", op):
                    t0 = time.perf_counter()
                    with tracer.span("api.scan_file", op):
                        result = self._call(src, out)
                    elapsed = time.perf_counter() - t0
                got = np.fromfile(out, dtype=np.int64)
                ops.add(kind, elapsed, x.nbytes, np.array_equal(got, want))
                self.calls.append((elapsed, result))
            r += 1
        return ops

    def layers(self, ops: Ops) -> dict:
        from repro.plan import plan_file_scan

        tracer, m = self.ctx.tracer, {}
        times = []
        for _ in range(PLAN_PASSES):
            for _, src, _, _, _ in self.files:
                t0 = time.perf_counter()
                with tracer.span("plan.plan_file_scan"):
                    plan_file_scan(src, "int64", order=ORDER)
                times.append(time.perf_counter() - t0)
        m["plan.plan_file_ms"] = float(np.median(times)) * 1e3

        chosen = {}
        for _, result in self.calls:
            family = strategy_family(result.counters.planner_strategy)
            chosen[family] = chosen.get(family, 0) + 1
        total = len(self.calls)
        m["plan.small.choice.stream"] = chosen.pop("stream", 0) / total
        m["plan.small.choice.sharded"] = chosen.pop("sharded", 0) / total
        m["plan.small.choice.other"] = sum(chosen.values()) / total
        m["stream.small.scan_frac"] = sum(
            r.counters.seconds_scan for _, r in self.calls
        ) / sum(wall for wall, _ in self.calls)
        return m

    def close(self) -> None:
        self.calls = []
