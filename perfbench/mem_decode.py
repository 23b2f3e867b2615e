"""``mem_decode``: in-memory decode through the public API, pinned to
``engine="host"``, cycling through one shape per carry kind.

The kernels do almost all of the work here; the stream and serve
layers do none.  Only one shape's arrays are alive at a time.
"""

from __future__ import annotations

import time

import numpy as np

from common import MIB, Ops, median_time, strategy_family
from oracle import compensated_output_ok, int_output_ok

#: (label, dtype, order, tuple_size, MiB in a full run, MiB in a probe).
#: The int64 shapes are sized past any cache (copies and scans run at
#: the same rate on 256 and 512 MiB).  The compensated shape is compute
#: bound near 200 MiB/s; it is sized to take about a fifth of the timed
#: time, and so that its calls, the order-1 calls and the fused calls
#: fall in three separate latency bands: the median is then an order-1
#: call and the 90th percentile a fused one, never a step between them.
SHAPES = (
    ("order1", "int64", 1, 1, 512, 32),
    ("fused", "int64", 3, 4, 512, 32),
    ("compensated", "float64", 1, 1, 40, 4),
)

#: Timed repeats per shape in a full run, per 4 s of ``--seconds``.
SECONDS_PER_REPEAT = 4.0

#: Repeats behind each per-layer median.
LAYER_REPEATS = 3
COPY_REPEATS = 5
PLANNED_CALLS = 4


def _public_call(dtype, order, tuple_size):
    import repro

    if np.dtype(dtype).kind == "f":
        return "api.prefix_sum", lambda x: repro.prefix_sum(
            x, order=order, tuple_size=tuple_size, engine="host",
            float_mode="compensated",
        )
    return "api.delta_decode", lambda x: repro.delta_decode(
        x, order=order, tuple_size=tuple_size, engine="host"
    )


def _kernel_call(dtype, order, tuple_size):
    from repro.kernels import compensated_scan_into, scan_into
    from repro.ops import ADD

    if np.dtype(dtype).kind == "f":
        return "kernels.compensated_scan_into", lambda x, out: (
            compensated_scan_into(x, out, ADD, order=order,
                                  tuple_size=tuple_size)
        )
    return "kernels.scan_into", lambda x, out: scan_into(
        x, out, ADD, order=order, tuple_size=tuple_size
    )


def _check(x, y, dtype, order, tuple_size) -> bool:
    if np.dtype(dtype).kind == "f":
        return compensated_output_ok(x, y)
    return int_output_ok(x, y, order, tuple_size)


class MemDecode:
    name = "mem_decode"
    dtypes = ("int64", "float64")
    round_weights = {shape[0]: 1 for shape in SHAPES}

    def __init__(self, ctx, probe: bool = False):
        self.ctx = ctx
        self.probe = probe
        self._held = None  # (shape index, input array)

    def _input(self, index: int) -> np.ndarray:
        if self._held is not None and self._held[0] == index:
            return self._held[1]
        self._held = None  # free the previous shape before allocating
        _, dtype, _, s, full, small = SHAPES[index]
        dtype = np.dtype(dtype)
        n = (small if self.probe else full) * MIB // dtype.itemsize
        n -= n % s
        rng = self.ctx.rng(1, index)
        if dtype.kind == "f":
            x = rng.standard_normal(n)
        else:
            x = rng.integers(-1000, 1000, n, dtype=dtype)
        self._held = (index, x)
        return x

    def setup(self) -> None:
        """First-use kernel tuning, the first shape's input, one warm-up
        call per shape on a slice and one on the first full input."""
        from repro.core.tuning import kernel_tuning

        for dtype in self.dtypes:
            kernel_tuning(dtype, refresh=True)
        self._held = None
        warm = self.ctx.rng(1, len(SHAPES)).integers(-1000, 1000, 1 << 16)
        for _, dtype, q, s, _, _ in SHAPES:
            _public_call(dtype, q, s)[1](warm.astype(dtype))
        # The first full-size output touches memory this process has not
        # used yet, which costs about as much again as the scan.
        _, dtype, q, s, _, _ = SHAPES[0]
        _public_call(dtype, q, s)[1](self._input(0))

    def run(self, seconds: float, tracer) -> Ops:
        ops = Ops(self.round_weights)
        repeats = max(1, round(seconds / SECONDS_PER_REPEAT))
        for index, (label, dtype, q, s, _, _) in enumerate(SHAPES):
            x = self._input(index)
            span, call = _public_call(dtype, q, s)
            for r in range(repeats):
                op = f"{label}.{r}"
                with tracer.span("bench.op", op):
                    t0 = time.perf_counter()
                    with tracer.span(span, op):
                        y = call(x)
                    elapsed = time.perf_counter() - t0
                ops.add(label, elapsed, x.nbytes, _check(x, y, dtype, q, s))
                del y
        return ops

    def layers(self, ops: Ops) -> dict:
        """Kernel calls into preallocated outputs, the public call on the
        same input, the in-run memcpy ceiling, and the planned call."""
        import repro
        from repro.plan import PLANNER_COUNTERS

        tracer, m = self.ctx.tracer, {}
        copy_mib_s = None
        for index, (label, dtype, q, s, _, _) in enumerate(SHAPES):
            x = self._input(index)
            mib = x.nbytes / MIB
            out = np.empty_like(x)
            if copy_mib_s is None:
                def copy():
                    with tracer.span("mem.copyto"):
                        np.copyto(out, x)
                copy_mib_s = mib / median_time(copy, COPY_REPEATS)
                m["mem.copyto_mib_s"] = copy_mib_s
            kspan, kernel = _kernel_call(dtype, q, s)

            def run_kernel():
                with tracer.span(kspan):
                    kernel(x, out)
            kernel_s = median_time(run_kernel, LAYER_REPEATS)
            self.ctx.checked(_check(x, out, dtype, q, s))

            aspan, public = _public_call(dtype, q, s)
            api_times = []
            for _ in range(LAYER_REPEATS):
                t0 = time.perf_counter()
                with tracer.span(aspan):
                    y = public(x)
                api_times.append(time.perf_counter() - t0)
                self.ctx.checked(np.array_equal(y.view(np.uint8),
                                                out.view(np.uint8)))
                del y
            key = "scan_into" if label == "order1" else label
            m[f"kernels.{key}.mib_s"] = mib / kernel_s
            m[f"kernels.{key}.memcpy_frac"] = mib / kernel_s / copy_mib_s
            m[f"api.overhead_ms.{label}"] = (
                float(np.median(api_times)) - kernel_s
            ) * 1e3

            if label == "order1":
                before = dict(PLANNER_COUNTERS.by_strategy)
                planned = []
                for _ in range(PLANNED_CALLS):
                    t0 = time.perf_counter()
                    with tracer.span("api.prefix_sum.planned"):
                        y = repro.prefix_sum(x)
                    planned.append(time.perf_counter() - t0)
                    self.ctx.checked(np.array_equal(y, out))
                    del y
                chosen = {}
                for strategy, count in PLANNER_COUNTERS.by_strategy.items():
                    family = strategy_family(strategy)
                    chosen[family] = (
                        chosen.get(family, 0) + count - before.get(strategy, 0)
                    )
                m["plan.mem.planned_mib_s"] = mib / float(np.median(planned))
                m["plan.mem.regret"] = float(
                    np.median(planned) / np.median(api_times)
                )
                m["plan.mem.choice.serial"] = chosen.pop("serial", 0)
                m["plan.mem.choice.threaded"] = chosen.pop("threaded", 0)
                m["plan.mem.choice.other"] = sum(chosen.values())
            del out
        self._held = None
        return m

    def close(self) -> None:
        self._held = None
