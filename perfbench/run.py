"""The repository benchmark: one command, four workloads (the three in
``BENCHMARK.json`` and ``serve_feeds``, which ``README.md`` explains).

Run from the root of a checkout::

    python3 perfbench/run.py --workload mem_decode --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  ``--trace 1`` is a separate run that records spans around every
call into the program's public functions and prints the per-layer
metrics; its spans are written to ``.perfbench-traces/`` at the end.
The metric names, units and directions are those of ``BENCHMARK.json``
at the checkout root, and both runs print exactly that set: every
metric by name with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A traced run measures the layers its workload crosses at the
workload's own scale, and runs every other workload once at a small
probe scale, so that each per-layer metric is measured in every
traced run.  ``perfbench/README.md`` says which end-to-end metric each
per-layer metric should move.

Each run works in a fresh state directory under ``.perfbench-runs/``
that holds the kernel-tuning cache, the planner calibration store,
the file workloads' data and the serve socket; it is removed when the
run ends, and the server process is stopped, whether the run succeeded
or not.  Nothing outside the checkout is read or written.  ``os.fsync``
is counted instead of called in this process (see
``common.SkippedFsync``): the file workloads measure the RAM-backed
path, not the shared disk.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    Context,
    NullTracer,
    SkippedFsync,
    Tracer,
    self_peak_rss_mib,
)

#: How many times a run sets up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Seconds each other workload runs for in a traced run.
PROBE_SECONDS = 1.0

#: Span-name prefixes, one per layer, reported as self time.
LAYERS = ("bench", "api", "mem", "kernels", "plan", "stream",
          "compression", "serve")


def workload_classes():
    from file_scan import FileScan
    from mem_decode import MemDecode
    from serve_feeds import ServeFeeds
    from small_files import SmallFiles

    return {cls.name: cls for cls in (MemDecode, FileScan, SmallFiles, ServeFeeds)}


def isolate(state: str) -> None:
    """Point every cache the program keeps into the run's state
    directory and drop outside pins, so no run sees another's tuning or
    planner state."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(state, "tune.json")
    os.environ["REPRO_PLAN_CACHE"] = os.path.join(state, "plan.json")
    os.environ["XDG_CACHE_HOME"] = os.path.join(state, "cache")


def end_to_end(ctx, cls, seconds: float):
    workload = cls(ctx)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        ops = workload.run(seconds, NullTracer())
        peak = getattr(workload, "peak_rss_mib", self_peak_rss_mib)()
    finally:
        workload.close()
    metrics = {
        "setup_s": statistics.median(setups),
        "mib_s": ops.mib_s(),
        "op_ms_p50": ops.op_ms(50),
        "op_ms_p90": ops.op_ms(90),
        "peak_rss_mib": peak,
        "ok_frac": 1.0 - ops.failed / ops.attempted,
    }
    return metrics, [ops]


def per_layer(ctx, cls, seconds: float):
    from repro.core.tuning import kernel_tuning

    ctx.tracer = Tracer()
    t0 = time.perf_counter()
    for dtype in cls.dtypes:
        kernel_tuning(dtype)
    metrics = {
        "tuning.first_use_s": time.perf_counter() - t0,
        "tuning.block_bytes": kernel_tuning("int64").block_bytes,
    }
    workload = cls(ctx)
    try:
        workload.setup()
        base = workload.run(seconds / 2, NullTracer())
        traced = workload.run(seconds / 2, ctx.tracer)
        metrics["trace.overhead_frac"] = base.mib_s() / traced.mib_s() - 1.0
        metrics.update(workload.layers(traced))
    finally:
        workload.close()
    all_ops = [base, traced]
    for other in workload_classes().values():
        if other is cls:
            continue
        probe = other(ctx, probe=True)
        try:
            probe.setup()
            ops = probe.run(PROBE_SECONDS, ctx.tracer)
            metrics.update(probe.layers(ops))
            all_ops.append(ops)
        finally:
            probe.close()
    selfs = ctx.tracer.self_seconds()
    unknown = set(selfs) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the known layers: {sorted(unknown)}")
    for layer in LAYERS:
        metrics[f"trace.self_s.{layer}"] = selfs.get(layer, 0.0)
    metrics["trace.spans"] = len(ctx.tracer.spans)
    metrics["stream.fsyncs_skipped"] = ctx.fsyncs.calls
    ctx.tracer.dump(os.path.join(
        ROOT, ".perfbench-traces", f"{cls.name}-seed{ctx.seed}.json"))
    return metrics, all_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    classes = workload_classes()
    if args.workload not in classes:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(classes)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # A terminated run still unwinds, so the finally blocks stop the
    # server process and remove the state directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    state = os.path.join(ROOT, ".perfbench-runs",
                         f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(state)
    isolate(state)
    try:
        import oracle

        with SkippedFsync() as fsyncs:
            ctx = Context(root=ROOT, state=state, seed=args.seed,
                          tracer=NullTracer(), fsyncs=fsyncs)
            measure = per_layer if args.trace else end_to_end
            metrics, ops = measure(ctx, classes[args.workload], args.seconds)
            checks_ok = oracle.self_check(ctx.rng(9))
    finally:
        shutil.rmtree(state, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        print(f"metrics out of step with BENCHMARK.json: missing "
              f"{sorted(set(names) - set(metrics))}, extra "
              f"{sorted(set(metrics) - set(names))}", file=sys.stderr)
        return 3
    attempted = sum(o.attempted for o in ops) + ctx.checks
    failed = sum(o.failed for o in ops) + ctx.bad
    for m in wanted:
        print(f"{args.workload:<12} {m['name']:<36} "
              f"{metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": bool(checks_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
