"""Pick the execution strategy from the data, not from flags.

``plan_scan`` enumerates the strategies that could correctly run a
:class:`~repro.plan.Workload` on this :class:`~repro.plan.Machine`,
prices each with :mod:`repro.plan.cost` (analytic model corrected by
the empirical calibration store), and returns a :class:`Plan` — the
chosen candidate, the full scored table, and a human-readable
rationale.  ``execute_plan`` dispatches the winner through the
existing engines and folds the observed runtime back into the store,
so repeated workloads converge on measured truth.

Candidate set
-------------

In memory (``repro.scan(x)`` / ``repro.prefix_sum(x)``):

* ``serial`` — the one-dispatch lane kernel.  Always a candidate, and
  the *only* candidate for exact-mode floats, looped operators,
  non-contiguous buffers, or anything below :data:`TINY_BYTES` (tiny
  inputs never pay planning overhead, let alone dispatch overhead).
* ``threaded:T`` — the slab-parallel kernel, for integer ufunc scans
  on a multicore machine, over a small ladder of thread counts.

On files (``repro.scan_file``):

* ``stream`` — the single-session out-of-core driver.
* ``stream_threaded:T`` — the same driver with slab-parallel chunk
  scans.
* ``sharded:S`` — the sharded driver with a shard count and worker
  count sized to the machine.

Correctness is a *gate*, not a score: a strategy that cannot
bit-identically reproduce the workload's reference (float regrouping,
looped operators under threads) is never proposed, so the planner can
only affect speed.  The reference is mode-relative: under the default
float contract it is the sequential left fold, which only the serial
path reproduces, so exact-mode floats plan serial-only; under
``float_mode="compensated"`` every candidate — serial included — emits
the error-free-carry result of :mod:`repro.kernels.compensated`, whose
fixed segment grid makes it bit-identical for any thread or shard
count, so float ``add`` workloads get the full parallel candidate set.

``REPRO_PLAN_DISABLE=1`` short-circuits the whole subsystem to the
serial path (the escape hatch mirroring ``REPRO_TUNE_DISABLE``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.plan.calibration import CalibrationStore, get_store
from repro.plan.cost import (
    Candidate,
    price_serial,
    price_sharded,
    price_threaded,
)
from repro.plan.workload import Machine, Workload, machine_snapshot

#: Below this many bytes the planner returns the serial plan without
#: consulting the machine snapshot or the calibration store: planning
#: must cost nothing where there is nothing to win.
TINY_BYTES = 256 << 10

#: Shard sizing for the sharded out-of-core candidate.
MIN_SHARD_BYTES = 8 << 20


@dataclass
class PlannerCounters:
    """Process-wide audit trail of planner activity (the in-memory
    analogue of the ``planner_*`` fields on ``StreamCounters``)."""

    plans: int = 0
    tiny_shortcuts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    feedback_updates: int = 0
    last_strategy: str = ""
    by_strategy: Dict[str, int] = field(default_factory=dict)

    def record_plan(self, label: str, cache_hit: bool) -> None:
        self.plans += 1
        self.last_strategy = label
        self.by_strategy[label] = self.by_strategy.get(label, 0) + 1
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def to_dict(self) -> dict:
        return {
            "plans": self.plans,
            "tiny_shortcuts": self.tiny_shortcuts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "feedback_updates": self.feedback_updates,
            "last_strategy": self.last_strategy,
            "by_strategy": dict(self.by_strategy),
        }


#: The process-wide planner audit counters.
PLANNER_COUNTERS = PlannerCounters()


def _plan_disabled() -> bool:
    return bool(os.environ.get("REPRO_PLAN_DISABLE"))


@dataclass
class Plan:
    """One planning decision: the table, the winner, and why."""

    workload: Workload
    machine: Machine
    candidates: List[Candidate]
    chosen: Candidate
    reason: str
    store: Optional[CalibrationStore] = None

    @property
    def cache_hit(self) -> bool:
        """Whether the winner was priced from measured calibration."""
        return self.chosen.throughput_source == "measured"

    # -- feedback ---------------------------------------------------------

    def observe(self, seconds: float) -> bool:
        """Fold the observed runtime back into the calibration store
        (the online feedback loop); returns whether it was recorded."""
        if self.store is None or seconds <= 0 or self.workload.nbytes <= 0:
            return False
        recorded = self.store.observe(
            self.chosen.calibration_key(self.workload),
            self.workload.nbytes / seconds,
        )
        if recorded:
            PLANNER_COUNTERS.feedback_updates += 1
        return recorded

    # -- presentation -----------------------------------------------------

    def explain(self) -> str:
        """The candidate table: every strategy, its predicted cost, its
        throughput source, and why the winner won."""
        w, m = self.workload, self.machine
        lines = [
            f"planner: {w.source} {w.dtype} {w.op} order={w.order} "
            f"tuple_size={w.tuple_size} "
            f"({w.nbytes:,} bytes, {w.elements:,} elements) on "
            f"{m.cpu_count} core(s); tuning {m.tuning_source}, "
            f"parallel cutover {m.parallel_cutover_bytes:,} bytes",
        ]
        if np.dtype(w.dtype).kind == "f":
            if w.compensable:
                lines.append(
                    "  float mode: compensated — error-free carries on the "
                    "fixed segment grid; parallel candidates are "
                    "bit-identical for any thread/shard count"
                )
            else:
                lines.append(
                    f"  float mode: {w.float_mode or 'exact'} — sequential "
                    "reference only (float_mode='compensated' would admit "
                    "parallel candidates for ufunc add)"
                )
        if w.order > 1:
            if w.scan_passes == 1:
                lines.append(
                    f"  pass structure: fused — one single-pass tile scan "
                    f"produces all {w.order} orders via binomial carry "
                    f"splicing, so traffic is priced at 1 pass, not "
                    f"{w.order}"
                )
            else:
                lines.append(
                    f"  pass structure: pass-per-order — {w.order} iterated "
                    f"scan passes (the fused single-pass path needs integer "
                    f"ADD with tuple_size >= 2)"
                )
        lines.append(
            f"  {'':2}{'strategy':<18} {'predicted':>12} {'source':>9}  note"
        )
        for candidate in self.candidates:
            marker = "* " if candidate is self.chosen else "  "
            lines.append(
                f"  {marker}{candidate.label:<18} "
                f"{candidate.predicted_seconds * 1e3:>9.3f} ms "
                f"{candidate.throughput_source:>9}  {candidate.note}"
            )
        lines.append(f"  chosen {self.chosen.label}: {self.reason}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


def _thread_ladder(cpu_count: int) -> List[int]:
    """Thread counts worth pricing: powers of two up to the core count,
    plus the core count itself."""
    ladder = []
    t = 2
    while t < cpu_count:
        ladder.append(t)
        t *= 2
    ladder.append(max(2, cpu_count))
    return sorted(set(ladder))


def _parallel_safe(workload: Workload) -> bool:
    """Whether regrouping strategies can reproduce the workload's
    reference bit-for-bit: fixed-width integers under a real ufunc on a
    contiguous buffer, or a compensable float workload (the caller
    opted into ``float_mode="compensated"``, where the reference *is*
    the deterministic compensated result)."""
    return (
        workload.integer and workload.vectorized and workload.contiguous
    ) or workload.compensable


def _mark_compensated(workload: Workload, candidate) -> None:
    """Stamp a parallel candidate with the float mode it must run
    under (``execute_plan`` and the drivers read it from params)."""
    if workload.compensable:
        candidate.params["float_mode"] = "compensated"
        candidate.note += "; compensated float carries"


def _enumerate(
    workload: Workload, machine: Machine, store: Optional[CalibrationStore]
) -> List[Candidate]:
    candidates = [price_serial(workload, machine, store)]
    # Under the compensated contract the *serial* candidate renders the
    # compensated result too — all candidates agree bit for bit.
    _mark_compensated(workload, candidates[0])
    if workload.source == "memory":
        if _parallel_safe(workload) and machine.multicore:
            for threads in _thread_ladder(machine.cpu_count):
                candidate = price_threaded(workload, machine, store, threads)
                _mark_compensated(workload, candidate)
                candidates.append(candidate)
    else:
        if _parallel_safe(workload):
            if machine.multicore and workload.source != "compressed-file":
                # Slab threads parallelize the *scan* of raw chunks; a
                # compressed job's chunk time is dominated by the serial
                # block decode, which threads do not help — its parallel
                # candidate is the sharded driver (parallel decodes).
                candidate = price_threaded(
                    workload, machine, store, machine.cpu_count
                )
                _mark_compensated(workload, candidate)
                candidates.append(candidate)
            # With one core, concurrent shard scans cannot overlap —
            # sharding would be the stream driver plus splice overhead.
            # Compensated sharding is order-1 only (pass q >= 2 rescans
            # rendered output, which has no exact errors to recover).
            if (
                machine.multicore
                and workload.nbytes >= 2 * MIN_SHARD_BYTES
                and (workload.integer or workload.order == 1)
                and (workload.integer or workload.source != "compressed-file")
            ):
                shards = max(
                    2,
                    min(
                        2 * machine.cpu_count,
                        workload.nbytes // MIN_SHARD_BYTES,
                    ),
                )
                workers = max(1, min(machine.cpu_count, shards))
                candidate = price_sharded(
                    workload, machine, store, shards, workers
                )
                _mark_compensated(workload, candidate)
                candidates.append(candidate)
    return candidates


def _synthesize(
    workload: Workload,
    machine: Machine,
    store: Optional[CalibrationStore],
    force: str,
) -> Optional[Candidate]:
    """Price a forced strategy that feasibility gating skipped (e.g.
    ``threaded`` on a one-core machine) — but never one that would be
    *incorrect* for the workload (float regrouping, looped ops)."""
    name, _, arg = force.partition(":")
    count = int(arg) if arg else machine.cpu_count
    if name == "serial" and workload.source == "memory":
        return price_serial(workload, machine, store)
    if name == "stream" and workload.on_disk:
        return price_serial(workload, machine, store)
    if not _parallel_safe(workload):
        return None
    candidate = None
    if name == "threaded" and workload.source == "memory":
        candidate = price_threaded(workload, machine, store, count)
    elif name == "stream_threaded" and workload.source == "file":
        candidate = price_threaded(workload, machine, store, count)
    elif name == "sharded" and workload.on_disk:
        if not workload.integer and workload.order > 1:
            return None  # compensated sharding is order-1 only
        workers = max(1, min(machine.cpu_count, count))
        candidate = price_sharded(workload, machine, store, count, workers)
    if candidate is not None:
        _mark_compensated(workload, candidate)
    return candidate


def _gate_reason(workload: Workload) -> str:
    """Why this workload plans serial-only — named precisely, because
    for floats the answer is an *instruction* (the compensated mode
    exists), not a fact of nature."""
    if not workload.contiguous:
        return (
            "only correct strategy for this workload "
            "(non-contiguous buffer: slab/shard bounds need a flat layout)"
        )
    if not workload.vectorized:
        return (
            "only correct strategy for this workload "
            "(looped operator: no GIL-releasing inner loop to parallelize)"
        )
    if not workload.integer:
        from repro.kernels import compensated_supported

        if workload.float_mode != "compensated" and compensated_supported(
            workload.op, workload.dtype
        ):
            return (
                "float dtype under the exact contract: only the sequential "
                "path reproduces the left fold bit for bit "
                "(float_mode='compensated' admits deterministic parallel "
                "candidates)"
            )
        return (
            "only correct strategy for this workload (float regrouping "
            "rounds differently per split, and this op has no error-free "
            "transformation)"
        )
    return (
        "only correct strategy for this workload "
        "(non-integer dtype, looped op, or non-contiguous buffer)"
    )


def _serial_plan(workload: Workload, machine: Machine, reason: str) -> Plan:
    candidate = Candidate(
        "serial" if workload.source == "memory" else "stream",
        predicted_seconds=0.0,
        note=reason,
    )
    # The float mode is a correctness contract, not a tunable: even the
    # tiny-input / planner-disabled shortcuts must execute under it.
    _mark_compensated(workload, candidate)
    return Plan(
        workload=workload,
        machine=machine,
        candidates=[candidate],
        chosen=candidate,
        reason=reason,
        store=None,
    )


def plan_scan(
    workload: Workload,
    machine: Optional[Machine] = None,
    store: Optional[CalibrationStore] = None,
    force: Optional[str] = None,
) -> Plan:
    """Score the candidate set and pick a strategy for ``workload``.

    ``force`` names a strategy label (``"serial"``, ``"threaded:4"``,
    ``"sharded:4"``, ...) to choose regardless of predicted cost —
    used by the differential fuzzer and the planner benchmark to
    exercise *every* candidate's dispatch path, and only offered for
    strategies that are correct for the workload.
    """
    if workload.nbytes <= TINY_BYTES and force is None:
        PLANNER_COUNTERS.tiny_shortcuts += 1
        machine = machine or Machine(
            cpu_count=os.cpu_count() or 1,
            block_bytes=0,
            parallel_cutover_bytes=0,
            tuning_source="skipped",
        )
        plan = _serial_plan(
            workload,
            machine,
            f"tiny input ({workload.nbytes:,} bytes <= {TINY_BYTES:,}): "
            "the serial kernel wins before any dispatch overhead is paid",
        )
        PLANNER_COUNTERS.record_plan(plan.chosen.label, cache_hit=False)
        return plan
    if _plan_disabled() and force is None:
        machine = machine or Machine(
            cpu_count=os.cpu_count() or 1,
            block_bytes=0,
            parallel_cutover_bytes=0,
            tuning_source="disabled",
        )
        plan = _serial_plan(workload, machine, "REPRO_PLAN_DISABLE=1")
        PLANNER_COUNTERS.record_plan(plan.chosen.label, cache_hit=False)
        return plan

    machine = machine or machine_snapshot(workload.dtype)
    store = store if store is not None else get_store()
    candidates = _enumerate(workload, machine, store)
    candidates.sort(key=lambda c: c.predicted_seconds)

    chosen = candidates[0]
    if force is not None:
        matches = [
            c for c in candidates if c.label == force or c.strategy == force
        ]
        if not matches:
            forced = _synthesize(workload, machine, store, force)
            if forced is None:
                raise ValueError(
                    f"cannot force strategy {force!r} for this workload; "
                    f"correct candidates: {[c.label for c in candidates]}"
                )
            candidates.append(forced)
            candidates.sort(key=lambda c: c.predicted_seconds)
            matches = [forced]
        chosen = matches[0]
        reason = f"forced by caller (predicted rank {candidates.index(chosen) + 1})"
    elif len(candidates) == 1:
        reason = (
            _gate_reason(workload)
            if not _parallel_safe(workload)
            else "no parallel candidate on this machine/size"
        )
    else:
        runner_up = candidates[1]
        edge = runner_up.predicted_seconds / max(
            chosen.predicted_seconds, 1e-12
        )
        reason = (
            f"predicted {edge:.2f}x faster than {runner_up.label} "
            f"({chosen.throughput_source} throughput)"
        )
    plan = Plan(
        workload=workload,
        machine=machine,
        candidates=candidates,
        chosen=chosen,
        reason=reason,
        store=store,
    )
    PLANNER_COUNTERS.record_plan(chosen.label, cache_hit=plan.cache_hit)
    return plan


# -- in-memory dispatch -----------------------------------------------------


def execute_plan(plan: Plan, values, *, op=None, forced: bool = False) -> np.ndarray:
    """Run an in-memory workload on its plan's chosen strategy and feed
    the observed runtime back into the calibration store.

    ``op`` carries the caller's original operator object when it is not
    resolvable by name (a locally constructed :class:`AssociativeOp`);
    such workloads are always planned serial, and the serial kernel
    takes the object verbatim.  ``forced=True`` (the fuzzer)
    additionally zeroes the threaded kernel's cutover so the strategy
    genuinely executes even at fuzz sizes.
    """
    w = plan.workload
    run_op = op if op is not None else w.op
    chosen = plan.chosen
    float_mode = chosen.params.get("float_mode")
    t0 = time.perf_counter()
    if chosen.strategy == "threaded":
        from repro.kernels import ThreadedScan

        engine = ThreadedScan(
            threads=chosen.params.get("threads"),
            cutover_bytes=0 if forced else None,
            float_mode=float_mode,
        )
        out = engine.run(
            values,
            order=w.order,
            tuple_size=w.tuple_size,
            op=run_op,
            inclusive=w.inclusive,
        ).values
    elif float_mode == "compensated":
        # Serial under the compensated contract: the one-thread
        # compensated kernel, so every candidate of this plan agrees.
        from repro.kernels import compensated_scan_into

        source = np.ascontiguousarray(values)
        out = compensated_scan_into(
            source,
            np.empty_like(source),
            run_op,
            order=w.order,
            tuple_size=w.tuple_size,
            inclusive=w.inclusive,
        )
    else:  # serial
        from repro.core.host import host_prefix_sum

        out = host_prefix_sum(
            values,
            order=w.order,
            tuple_size=w.tuple_size,
            op=run_op,
            inclusive=w.inclusive,
        )
    plan.observe(time.perf_counter() - t0)
    return out


def auto_scan(
    values,
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    force: Optional[str] = None,
    float_mode: Optional[str] = None,
) -> np.ndarray:
    """Plan and run one in-memory scan — the engine behind
    ``repro.scan(x)`` / ``repro.prefix_sum(x)`` when the caller passes
    no engine: bit-identical to the workload's (mode-relative)
    reference for every workload, as fast as the machine's candidate
    set allows."""
    workload = Workload.from_array(
        values, op=op, order=order, tuple_size=tuple_size,
        inclusive=inclusive, float_mode=float_mode,
    )
    if float_mode == "compensated" and np.dtype(workload.dtype).kind == "f":
        # Same contract as the session/sharded surfaces: asking for
        # compensated carries on an op they cannot recover is an error,
        # not a silent downgrade to the exact serial plan.
        from repro.kernels.compensated import check_compensated

        check_compensated(op, workload.dtype)
    plan = plan_scan(workload, force=force)
    return execute_plan(plan, values, op=op, forced=force is not None)


def explain_scan(
    values=None,
    *,
    nbytes: Optional[int] = None,
    dtype=None,
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    source: str = "memory",
    float_mode: Optional[str] = None,
) -> Plan:
    """Build (but do not run) the plan for a workload, for inspection.

    Describe the workload either by example (``values``) or by shape
    (``nbytes`` + ``dtype`` [+ ``source="file"``]).  The returned
    :class:`Plan` prints as the candidate table (``--explain``)."""
    if values is not None:
        workload = Workload.from_array(
            values, op=op, order=order, tuple_size=tuple_size,
            inclusive=inclusive, float_mode=float_mode,
        )
    else:
        if nbytes is None or dtype is None:
            raise ValueError("explain needs either values or nbytes + dtype")
        from repro.ops import get_op

        resolved = get_op(op)
        workload = Workload(
            nbytes=int(nbytes),
            dtype=resolved.check_dtype(dtype).name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=source,
            float_mode=float_mode,
        )
    return plan_scan(workload)


# -- file and session planning ----------------------------------------------


def plan_file_scan(
    input_path,
    dtype,
    op="add",
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    input_format: str = "auto",
    float_mode: Optional[str] = None,
) -> Plan:
    """Plan an out-of-core file scan (used by ``repro.scan_file`` when
    the caller pins neither ``shards`` nor ``chunk_bytes`` nor
    ``threads`` nor ``engine``).  ``input_format="auto"`` sniffs the
    blocked-container magic; a blocked input is planned as a
    compressed workload — dtype and logical size from its header, a
    decode term in the cost model, and no slab-threaded candidate
    (block decode is the serial bottleneck; sharding is the parallel
    answer).  ``float_mode`` threads the caller's float contract into
    the workload; blocked containers carry integer payloads today, so
    the flag only shapes raw-file plans."""
    from repro.stream.driver import resolve_input_format

    input_format = resolve_input_format(input_path, input_format)
    if input_format == "blocked":
        workload = Workload.from_blocked_file(
            input_path,
            op=op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
        )
    else:
        workload = Workload.from_file(
            input_path,
            dtype,
            op=op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            float_mode=float_mode,
        )
    return plan_scan(workload)


def session_threads(dtype, op="add", float_mode: Optional[str] = None) -> Optional[str]:
    """Planned ``threads=`` for a streaming/served session whose chunk
    sizes are unknown up front: ``"auto"`` on a multicore machine with
    a parallel-safe configuration (the threaded kernel's own tuned
    cutover then decides per chunk), ``None`` where slab threads could
    only add dispatch overhead."""
    if _plan_disabled():
        return None
    if (os.cpu_count() or 1) <= 1:
        # Cheap early-out: never touch the (possibly measuring) tuner
        # from a serve OPEN when threads could not help anyway.
        return None
    try:
        from repro.ops import get_op

        resolved = get_op(op)
        if np.dtype(dtype).kind in "iu":
            if resolved.ufunc is None:
                return None
        elif float_mode == "compensated":
            # Compensated float sessions parallelize their segment
            # pass-1 the same way integer slabs do.
            from repro.kernels import compensated_supported

            if not compensated_supported(resolved.name, dtype):
                return None
        else:
            return None
    except Exception:
        return None
    machine = machine_snapshot(dtype)
    return "auto" if machine.multicore else None
