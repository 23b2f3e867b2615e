"""The planner's cost model: analytic skeleton, empirical correction.

Every candidate strategy is priced as::

    time = fixed_overhead + nbytes / effective_bytes_per_second

with two sources for the throughput term, in priority order:

1. **Measured** — the calibration store's EWMA for this exact
   (strategy, source, dtype, op, order, tuple-size, size-bucket)
   bucket, fed by previous planned runs (the online feedback loop).
2. **Modeled** — an analytic composition in the vocabulary of
   :mod:`repro.perf.model`: a per-pass memory term that scales with
   ``order`` (iterated host passes re-touch the buffer, exactly the
   paper's 2qn argument against iterated scans), a parallel-efficiency
   factor for slab/shard strategies, an extra carry-fold traffic term
   (the fold pass re-touches ``(P-1)/P`` of the buffer), and the
   occupancy ramp :func:`repro.perf.ramp` with the *tuned parallel
   cutover* as the half-rate point — the empirically measured size at
   which dispatch overhead equals scan time on this machine.

The defaults are deliberately conservative "safe" numbers: with a cold
cache on an unknown machine the model must never pick a strategy that
falls off a cliff, merely possibly miss a win until feedback arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.perf.model import ramp
from repro.plan.calibration import CalibrationStore
from repro.plan.workload import Machine, Workload

#: Conservative cold-cache throughput guesses (bytes/second).  The
#: in-memory number is a low-end single-core accumulate rate; the file
#: number folds read + scan + write over a buffered disk.  Both are
#: corrected by the first real observation.
DEFAULT_MEMORY_BYTES_PER_SECOND = 2e9
DEFAULT_FILE_BYTES_PER_SECOND = 6e8

#: Varint+zigzag block decode rate, in *logical* bytes per second — a
#: conservative number for the vectorized decoder.  A compressed
#: workload's per-byte time is the sum of an IO term scaled by its
#: compression ratio (only ``compressed_nbytes`` cross the disk) and
#: this decode term, so better ratios genuinely predict faster scans.
DEFAULT_DECODE_BYTES_PER_SECOND = 5e8

#: Per-call bookkeeping before any data moves (validation, dispatch).
T_CALL_SECONDS = 3e-6

#: One thread-pool dispatch barrier (submit + join a round of futures).
T_DISPATCH_SECONDS = 6e-5

#: Opening the out-of-core machinery (mmap, session, output file).
T_FILE_SECONDS = 4e-4

#: Fraction of linear scaling a slab/shard actually delivers (memory
#: bandwidth is shared; threads contend on it).
PARALLEL_EFFICIENCY = 0.7

#: Sharded jobs pay a splice pass plus manifest bookkeeping per shard.
T_SHARD_SECONDS = 2e-3


@dataclass
class Candidate:
    """One priced strategy: what would run, and what it should cost."""

    strategy: str            # "serial" | "threaded" | "stream" | "stream_threaded" | "sharded"
    params: dict = field(default_factory=dict)
    predicted_seconds: float = 0.0
    throughput_source: str = "model"   # "model" | "measured"
    note: str = ""

    @property
    def label(self) -> str:
        """Compact display / counters form, e.g. ``threaded:4`` or
        ``sharded:6`` (a sharded candidate is named by its shard count,
        not its worker cap)."""
        for key in ("threads", "shards"):
            if key in self.params:
                return f"{self.strategy}:{self.params[key]}"
        return self.strategy

    def calibration_key(self, workload: Workload) -> str:
        return workload.calibration_key(self.strategy)


def _throughput(
    candidate: Candidate,
    workload: Workload,
    store: Optional[CalibrationStore],
    modeled: float,
) -> float:
    """Measured bucket throughput when available, else the model's."""
    if store is not None:
        measured = store.throughput(candidate.calibration_key(workload))
        if measured is not None:
            candidate.throughput_source = "measured"
            return measured
    candidate.throughput_source = "model"
    return modeled


def _base_rate(workload: Workload) -> float:
    if workload.source == "compressed-file":
        # Per logical byte: an IO share shrunk by the compression ratio
        # plus a decode share.  An incompressible container degrades to
        # raw-file IO + decode overhead, never better.
        io_fraction = workload.compressed_nbytes / max(1, workload.nbytes)
        per_byte = (
            io_fraction / DEFAULT_FILE_BYTES_PER_SECOND
            + 1.0 / DEFAULT_DECODE_BYTES_PER_SECOND
        )
        base = 1.0 / per_byte
    elif workload.source == "file":
        base = DEFAULT_FILE_BYTES_PER_SECOND
    else:
        base = DEFAULT_MEMORY_BYTES_PER_SECOND
    # Looped (non-ufunc) operators run Python-rate inner loops.
    return base if workload.vectorized else base / 50.0


def _anchored_base(
    workload: Workload, store: Optional[CalibrationStore]
) -> float:
    """The per-pass base rate, anchored to this machine when possible.

    Candidates that have been run carry *measured* throughput while
    never-run candidates keep the model's guess — and an optimistic
    guess would then beat an honest measurement forever.  Anchoring
    fixes the asymmetry: when the baseline strategy (serial / stream)
    has a measured bucket, every *modeled* sibling is priced relative
    to that measurement instead of the built-in default, so the model
    only ever expresses relative structure (scaling, traffic, fixed
    costs), not absolute optimism.
    """
    base = _base_rate(workload)
    if store is not None:
        anchor = "serial" if workload.source == "memory" else "stream"
        measured = store.throughput(workload.calibration_key(anchor))
        if measured is not None:
            # price_serial models the anchor as base / scan_passes
            # (1 inside the fused order-q gate); invert it.
            base = measured * workload.scan_passes
    return base


def plan_chunk_bytes(nbytes: int) -> int:
    """Planned chunk size for the single-session driver.

    A file that fits in one ``DEFAULT_CHUNK_BYTES`` chunk is one chunk:
    the driver then reads it, scans it in place and writes it on the
    calling thread, with no prefetch thread to start.  Splitting such a
    file into four chunks to overlap reads with scans measured slower
    at every size up to the cap (int64 order 2 on a 2-vCPU VM, fsync
    stubbed out, p50 of 20-40 calls: 2.3 against 3.3 ms at 1 MiB,
    8.9 against 10.8 ms at 4 MiB, 37.3 against 39.4 ms at 16 MiB).
    Larger files take about four chunks per job so reads, scans and
    writes of neighboring chunks overlap, floored to keep per-chunk
    overhead amortized and capped at the driver default."""
    from repro.stream.driver import DEFAULT_CHUNK_BYTES

    if nbytes <= DEFAULT_CHUNK_BYTES:
        return max(1, int(nbytes))
    return int(min(DEFAULT_CHUNK_BYTES, max(1 << 20, nbytes // 4)))


def price_serial(
    workload: Workload, machine: Machine, store: Optional[CalibrationStore]
) -> Candidate:
    """The one-dispatch serial lane kernel (or single-session driver)."""
    params = (
        {"chunk_bytes": plan_chunk_bytes(workload.nbytes)}
        if workload.on_disk
        else {}
    )
    candidate = Candidate(
        "serial" if workload.source == "memory" else "stream", params=params
    )
    per_pass = _anchored_base(workload, store)
    modeled = per_pass / workload.scan_passes
    rate = _throughput(candidate, workload, store, modeled)
    fixed = T_CALL_SECONDS + (
        T_FILE_SECONDS if workload.on_disk else 0.0
    )
    candidate.predicted_seconds = fixed + workload.nbytes / rate
    candidate.note = "exact for every dtype/op; no dispatch overhead"
    return candidate


def price_threaded(
    workload: Workload,
    machine: Machine,
    store: Optional[CalibrationStore],
    threads: int,
) -> Candidate:
    """Slab-parallel in-memory kernel (or threaded chunk scans for a
    file job): scan -> splice -> fold on ``threads`` workers."""
    name = "threaded" if workload.source == "memory" else "stream_threaded"
    params = {"threads": threads}
    if workload.on_disk:
        params["chunk_bytes"] = plan_chunk_bytes(workload.nbytes)
    candidate = Candidate(name, params=params)
    effective = max(1, min(threads, machine.cpu_count))
    scale = 1.0 + (effective - 1) * PARALLEL_EFFICIENCY
    fold_traffic = 1.0 + (effective - 1) / effective  # fold re-touches P-1 slabs
    modeled = _anchored_base(workload, store) * scale / (
        workload.scan_passes * fold_traffic
    )
    rate = _throughput(candidate, workload, store, modeled)
    fixed = (
        T_CALL_SECONDS
        + (T_FILE_SECONDS if workload.on_disk else 0.0)
        + 2 * T_DISPATCH_SECONDS * threads * workload.scan_passes
    )
    occupancy = ramp(workload.nbytes, machine.parallel_cutover_bytes, 1.0)
    candidate.predicted_seconds = fixed + workload.nbytes / rate * occupancy
    candidate.note = f"{effective} effective core(s), splice + fold per pass"
    return candidate


def price_sharded(
    workload: Workload,
    machine: Machine,
    store: Optional[CalibrationStore],
    shards: int,
    workers: int,
) -> Candidate:
    """The sharded out-of-core driver: concurrent shard scans + splice."""
    candidate = Candidate(
        "sharded", params={"shards": shards, "workers": workers}
    )
    effective = max(1, min(workers, machine.cpu_count))
    scale = 1.0 + (effective - 1) * PARALLEL_EFFICIENCY
    # With one effective worker every shard is primed (single pass, no
    # fold); with more, roughly (P-1)/P of the bytes see a fold pass.
    fold_traffic = 1.0 + (effective - 1) / effective
    modeled = _anchored_base(workload, store) * scale / (
        workload.scan_passes * fold_traffic
    )
    rate = _throughput(candidate, workload, store, modeled)
    fixed = T_FILE_SECONDS + T_SHARD_SECONDS * shards * workload.scan_passes
    occupancy = ramp(
        workload.nbytes, max(machine.parallel_cutover_bytes, 1), 1.0
    )
    candidate.predicted_seconds = fixed + workload.nbytes / rate * occupancy
    candidate.note = f"{shards} shard(s) on {workers} worker(s), carry splice"
    return candidate
