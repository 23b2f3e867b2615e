"""``file_scan``: out-of-core jobs through ``repro.scan_file`` with
pinned strategy arguments: a single-session raw job, a sharded job,
and a blocked ``.samb`` container as input written out raw.

The kernels are those of ``mem_decode``; here the chunk pipeline, the
shard splice/fold and the container decode sit on the path too.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import MIB, Ops
from oracle import file_reader, lane_cumsum_matches

#: (kind, dtype, order, tuple_size, MiB in a full run, MiB in a probe,
#: pinned ``scan_file`` arguments).  The blocked input's size is its
#: logical (decoded) size.  Full sizes give each job a fifth to a half
#: of the time and a 20 s run about 70 jobs, and put the three jobs in
#: separate latency bands (sharded < blocked < raw): the median is then
#: a blocked job and the 90th percentile a raw one.
JOBS = (
    ("raw", "int64", 2, 3, 128, 16, {"chunk_bytes": 8 << 20}),
    ("sharded", "int32", 1, 1, 40, 8, {"shards": 2, "workers": 2}),
    ("blocked_in", "int64", 1, 1, 24, 4, {"chunk_bytes": 4 << 20}),
)

#: Elements per generated piece, so setup never holds a whole input.
GEN_ELEMENTS = 2 << 20

#: Elements per blocked-container block.
BLOCK_ELEMENTS = 65536

PHASES = ("read", "decode", "scan", "write", "splice", "fold")


def _remove(path: str) -> None:
    """Drop a previous round's output outside the timed window, so every
    job writes a fresh file (truncating a cached one costs as much as
    half the job, and would be timed as the program's work)."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class FileScan:
    name = "file_scan"
    dtypes = ("int64", "int32")
    round_weights = {job[0]: 1 for job in JOBS}

    def __init__(self, ctx, probe: bool = False):
        self.ctx = ctx
        self.probe = probe
        self.results = []  # (kind, wall seconds, result)

    def _paths(self, kind: str, tag: str):
        return (self.ctx.path("files", f"{tag}-{kind}.in"),
                self.ctx.path("files", f"{tag}-{kind}.out"),
                self.ctx.path("files", f"{tag}-{kind}.values"))

    def _write_inputs(self, tag: str, mib_of) -> dict:
        """Write each job's input; returns kind -> (input path, output
        path, raw values path, element count)."""
        from repro.compression import BlockedDeltaCodec

        files = {}
        for index, (kind, dtype, _, s, full, small, _) in enumerate(JOBS):
            dtype = np.dtype(dtype)
            n = mib_of(full, small) * MIB // dtype.itemsize
            n -= n % s
            src, out, values = self._paths(kind, tag)
            rng = self.ctx.rng(2, index)
            if kind == "blocked_in":
                # A random walk: smooth data, as delta containers hold.
                x = np.cumsum(rng.integers(-50, 50, n), dtype=dtype)
                x.tofile(values)
                blob = BlockedDeltaCodec(block_elements=BLOCK_ELEMENTS)
                with open(src, "wb") as fh:
                    fh.write(blob.compress(x, order=1).data)
            else:
                values = src
                with open(src, "wb") as fh:
                    for lo in range(0, n, GEN_ELEMENTS):
                        rng.integers(-1000, 1000, min(GEN_ELEMENTS, n - lo),
                                     dtype=dtype).tofile(fh)
            files[kind] = (src, out, values, n)
        return files

    def setup(self) -> None:
        """First-use kernel tuning, the job inputs, and one warm-up pass
        of every job on 1 MiB inputs."""
        from repro.core.tuning import kernel_tuning

        for dtype in self.dtypes:
            kernel_tuning(dtype, refresh=True)
        warm = self._write_inputs("warm", lambda full, small: 1)
        self._run_round(warm, Ops(self.round_weights), self.ctx.tracer, 0)
        self.files = self._write_inputs(
            "job", lambda full, small: small if self.probe else full
        )
        self.results = []

    def _run_round(self, files, ops: Ops, tracer, r: int):
        import repro

        for kind, dtype, q, s, _, _, pinned in JOBS:
            src, out, values, n = files[kind]
            op = f"{kind}.{r}"
            _remove(out)
            with tracer.span("bench.op", op):
                t0 = time.perf_counter()
                with tracer.span("api.scan_file", op):
                    result = repro.scan_file(src, out, dtype=dtype, order=q,
                                             tuple_size=s, **pinned)
                elapsed = time.perf_counter() - t0
            ok = lane_cumsum_matches(file_reader(values, dtype),
                                     file_reader(out, dtype), n, dtype, q, s)
            ops.add(kind, elapsed, n * np.dtype(dtype).itemsize, ok)
            self.results.append((kind, elapsed, result))

    def run(self, seconds: float, tracer) -> Ops:
        ops = Ops(self.round_weights)
        start, r = time.perf_counter(), 0
        while r == 0 or time.perf_counter() - start < seconds:
            self._run_round(self.files, ops, tracer, r)
            r += 1
        return ops

    def layers(self, ops: Ops) -> dict:
        from repro.compression import BlockedFileReader
        from repro.stream import ScanSession

        tracer, m = self.ctx.tracer, {}
        for kind, _, _, _, _, _, _ in JOBS:
            nbytes = next(b for k, b in zip(ops.kinds, ops.nbytes) if k == kind)
            m[f"stream.job.{kind}.mib_s"] = (
                nbytes / MIB / float(np.median(ops.of_kind(kind)))
            )
        wall = sum(r[1] for r in self.results)
        for phase in PHASES:
            m[f"stream.{phase}_frac"] = sum(
                getattr(r[2].counters, f"seconds_{phase}") for r in self.results
            ) / wall
        last = self.results[-len(JOBS):]
        m["stream.fused_order_scans"] = sum(
            r[2].counters.fused_order_scans for r in last)
        m["stream.threaded_scans"] = sum(
            r[2].counters.threaded_scans for r in last)

        # ScanSession.feed on the raw job's chunks, with no I/O timed;
        # every chunk is checked against the (checked) job output.
        kind, dtype, q, s, _, _, pinned = JOBS[0]
        src, out, _, n = self.files[kind]
        read_in, read_out = file_reader(src, dtype), file_reader(out, dtype)
        session = ScanSession(order=q, tuple_size=s, dtype=dtype)
        step = pinned["chunk_bytes"] // np.dtype(dtype).itemsize
        feed_s, ok = 0.0, True
        for lo in range(0, n, step):
            chunk = read_in(lo, min(n, lo + step))
            t0 = time.perf_counter()
            with tracer.span("stream.session.feed"):
                got = session.feed(chunk)
            feed_s += time.perf_counter() - t0
            ok = ok and np.array_equal(got, read_out(lo, lo + got.size))
        self.ctx.checked(ok)
        m["stream.session.feed_mib_s"] = n * np.dtype(dtype).itemsize / MIB / feed_s

        src, _, values, n = self.files["blocked_in"]
        with BlockedFileReader(src) as reader:
            t0 = time.perf_counter()
            with tracer.span("compression.reader.read_range"):
                decoded = reader.read_range(0, reader.count)
            decode_s = time.perf_counter() - t0
            m["compression.ratio"] = reader.ratio()
        self.ctx.checked(np.array_equal(decoded, np.fromfile(values, "int64")))
        m["compression.reader.decode_mib_s"] = decoded.nbytes / MIB / decode_s
        return m

    def close(self) -> None:
        self.results = []
