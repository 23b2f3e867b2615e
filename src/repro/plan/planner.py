"""Pick the execution strategy from the data: a few measured gates.

``plan_scan`` walks a short list of gates.  Each reads one thing the
code already sees or measures — the workload's dtype, operator and
layout, its carry kind, the core count, its size against the threaded
kernel's measured parallel cutover — and either passes the workload on
or decides.  The returned :class:`Plan` keeps every gate's input and
verdict, so ``repro.explain`` can say why a strategy was chosen.

In memory (``repro.scan(x)`` / ``repro.prefix_sum(x)``):

1. **tiny** — at most :data:`TINY_BYTES` plans ``serial`` without
   reading the machine: there is nothing to win.
2. **correct** — only workloads whose regrouped result is bit-identical
   to the reference may run in parallel: fixed-width integers under a
   real ufunc on a contiguous buffer, or compensated floats (the
   error-free carries on a fixed segment grid make any split agree).
   Exact-mode floats, looped operators and strided buffers plan
   ``serial``.
3. **kind** — only the plain row carry kind has a slab path
   (:func:`repro.kernels.threaded.runs_slabs`), and only at order 1 or
   tuple size 1: order ``q >= 2`` at ``s >= 2`` is the serial tile
   loop's.  Those, the fused ``(q, s)`` kind and the compensated kind
   plan ``serial`` and forcing ``threaded`` on them is refused.
4. **cores** — one core plans ``serial``.
5. **cutover** — below :data:`repro.kernels.threaded.PARALLEL_CUTOVER_BYTES`
   (128 MiB) two slab threads measured slower than one, and the
   threaded kernel itself would scan serially: ``serial``.  At or
   above it: ``threaded:<cpu>``.

On files (``repro.scan_file``) every job plans ``stream``, the
single-session driver.  A same-run A/B of the pinned arms on a 2-vCPU
VM (medians of 7 alternating runs, CHANGES.md) found no size where a
parallel arm won: raw int64 order 1 ``stream_threaded:2`` read
0.74-0.90x of ``stream`` and ``sharded`` 0.64-0.79x at 16/64/256 MiB;
raw int64 order 2 tuple 3 both read 0.41-0.52x; a blocked ``.samb``
int64 input read 0.68-0.88x on ``sharded``.  Pinning ``threads=`` or
``shards=`` on :func:`repro.scan_file` still runs those drivers.

``force=`` picks a strategy by label (``"serial"``, ``"threaded:4"``,
``"stream"``) regardless of the gates — the differential fuzzer and the
planner benchmark use it to run every dispatch arm — and is refused
for a strategy that would not be bit-identical for the workload, or
that has no slab path for it.
Pinning ``engine="host"`` or a driver argument bypasses the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.plan.workload import (
    SOURCE_COMPRESSED,
    SOURCE_MEMORY,
    Machine,
    Workload,
    machine_snapshot,
)

#: At or below this many bytes an in-memory scan plans serial without
#: reading the machine: planning must cost nothing where there is
#: nothing to win.
TINY_BYTES = 256 << 10

@dataclass(frozen=True)
class Choice:
    """A strategy and the driver arguments it runs with."""

    strategy: str  # "serial" | "threaded" | "stream"
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Compact display / counters form, e.g. ``threaded:4``."""
        if "threads" in self.params:
            return f"{self.strategy}:{self.params['threads']}"
        return self.strategy


@dataclass
class PlannerCounters:
    """Process-wide audit trail of planner activity (the in-memory
    analogue of ``StreamCounters.planner_strategy``)."""

    plans: int = 0
    tiny_shortcuts: int = 0
    last_strategy: str = ""
    last_reason: str = ""
    by_strategy: Dict[str, int] = field(default_factory=dict)

    def record_plan(self, label: str, reason: str) -> None:
        self.plans += 1
        self.last_strategy = label
        self.last_reason = reason
        self.by_strategy[label] = self.by_strategy.get(label, 0) + 1

    def to_dict(self) -> dict:
        return {
            "plans": self.plans,
            "tiny_shortcuts": self.tiny_shortcuts,
            "last_strategy": self.last_strategy,
            "last_reason": self.last_reason,
            "by_strategy": dict(self.by_strategy),
        }


#: The process-wide planner audit counters.
PLANNER_COUNTERS = PlannerCounters()

#: One evaluated gate: its name, the input it read, and its verdict.
Gate = Tuple[str, str, str]


@dataclass
class Plan:
    """One planning decision: the gates walked, the choice, and why."""

    workload: Workload
    chosen: Choice
    reason: str
    gates: List[Gate]

    def explain(self) -> str:
        """Every gate's input and verdict, then the choice."""
        w = self.workload
        lines = [
            f"planner: {w.source} {w.dtype} {w.op} order={w.order} "
            f"tuple_size={w.tuple_size} "
            f"({w.nbytes:,} bytes, {w.elements:,} elements)",
            f"  {'gate':<8} {'input':<46} verdict",
        ]
        for name, seen, verdict in self.gates:
            lines.append(f"  {name:<8} {seen:<46} {verdict}")
        lines.append(f"  chosen {self.chosen.label}: {self.reason}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


def _parallel_safe(workload: Workload) -> bool:
    """Whether regrouping strategies reproduce the workload's reference
    bit for bit: fixed-width integers under a real ufunc on a
    contiguous buffer, or a compensable float workload (the caller
    opted into ``float_mode="compensated"``, where the reference *is*
    the deterministic compensated result)."""
    return (
        workload.integer and workload.vectorized and workload.contiguous
    ) or workload.compensable


def _gate_reason(workload: Workload) -> str:
    """Why this workload plans serial-only — named precisely, because
    for floats the answer is an *instruction* (the compensated mode
    exists), not a fact of nature."""
    if not workload.contiguous:
        return "non-contiguous buffer: slab bounds need a flat layout"
    if not workload.vectorized:
        return "looped operator: no GIL-releasing inner loop to parallelize"
    from repro.kernels import compensated_supported

    if workload.float_mode != "compensated" and compensated_supported(
        workload.op, workload.dtype
    ):
        return (
            "float dtype under the exact contract: only the sequential "
            "path reproduces the left fold bit for bit "
            "(float_mode='compensated' makes parallel runs deterministic)"
        )
    return (
        "float regrouping rounds differently per split, and this op has "
        "no error-free transformation"
    )


def _runs_slabs(workload: Workload) -> bool:
    """Whether the workload's carry kind runs on the slab driver (the
    row kind only)."""
    from repro.kernels.threaded import runs_slabs

    w = workload
    return runs_slabs(w.op, w.dtype, w.order, w.tuple_size, w.float_mode)


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


def _memory_gates(
    w: Workload, machine: Callable[[], Machine], gates: List[Gate]
) -> Tuple[Choice, str]:
    serial = Choice("serial")
    if w.nbytes <= TINY_BYTES:
        PLANNER_COUNTERS.tiny_shortcuts += 1
        gates.append(("tiny", f"{w.nbytes:,} B <= {TINY_BYTES:,} B", "serial"))
        return serial, "tiny input: the serial kernel wins before any dispatch"
    gates.append(("tiny", f"{w.nbytes:,} B > {TINY_BYTES:,} B", "pass"))
    layout = (
        f"{w.dtype} {w.op}, {'ufunc' if w.vectorized else 'looped'}, "
        f"{'contiguous' if w.contiguous else 'strided'}"
    )
    if np.dtype(w.dtype).kind == "f":
        layout += f", {w.float_mode or 'exact'}"
    if not _parallel_safe(w):
        gates.append(("correct", layout, "serial"))
        return serial, _gate_reason(w)
    gates.append(("correct", layout, "pass"))
    kind = f"{w.kind} (order {w.order}, tuple size {w.tuple_size})"
    if not _runs_slabs(w):
        gates.append(("kind", kind, "serial"))
        if w.kind == "row":
            return serial, "order-q tile loop: one serial sweep, no slab path"
        return serial, f"{w.kind} kind: no slab path, so it scans serially"
    gates.append(("kind", kind, "pass"))
    m = machine()
    if not m.multicore:
        gates.append(("cores", f"{m.cpu_count} core", "serial"))
        return serial, "one core: slab threads cannot overlap"
    gates.append(("cores", f"{m.cpu_count} cores", "pass"))
    from repro.kernels import threaded

    cutover = threaded.PARALLEL_CUTOVER_BYTES
    sizes = f"{w.nbytes:,} B vs {cutover:,} B"
    if w.nbytes < cutover:
        gates.append(("cutover", sizes, "serial"))
        return serial, (
            "below the parallel cutover, where two threads measured "
            "slower than one"
        )
    chosen = Choice("threaded", {"threads": m.cpu_count})
    gates.append(("cutover", sizes, chosen.label))
    return chosen, "row kind at or above the parallel cutover"


def _forced(
    w: Workload, force: str, machine: Callable[[], Machine]
) -> Choice:
    """The strategy ``force`` names, if it is correct for ``w``."""
    name, _, arg = force.partition(":")
    if w.on_disk:
        if force == "stream":
            return Choice("stream", {"chunk_bytes": plan_chunk_bytes(w.nbytes)})
    elif force == "serial":
        return Choice("serial")
    elif name == "threaded" and _parallel_safe(w) and _runs_slabs(w):
        threads = int(arg) if arg else machine().cpu_count
        return Choice("threaded", {"threads": threads})
    allowed = "stream" if w.on_disk else (
        "serial, threaded[:T]" if _parallel_safe(w) and _runs_slabs(w)
        else "serial"
    )
    raise ValueError(
        f"cannot force strategy {force!r} for this workload; "
        f"correct strategies: {allowed}"
    )


def plan_scan(
    workload: Workload,
    machine: Optional[Machine] = None,
    force: Optional[str] = None,
) -> Plan:
    """Walk the gates for ``workload`` and return the :class:`Plan`.

    ``machine`` injects the core count (tests); by default the snapshot
    is read only when a gate needs it.  ``force`` names a strategy label
    to choose regardless of the gates.
    """
    gates: List[Gate] = []

    def resolve() -> Machine:
        return machine if machine is not None else machine_snapshot()

    if force is not None:
        chosen = _forced(workload, force, resolve)
        reason = "forced by caller"
        gates.append(("force", force, chosen.label))
    elif workload.source == SOURCE_MEMORY:
        chosen, reason = _memory_gates(workload, resolve, gates)
    else:
        size = f"{workload.nbytes:,} B"
        if workload.source == SOURCE_COMPRESSED:
            size += f" ({workload.compressed_nbytes:,} B on disk)"
        gates.append(("driver", f"{workload.source}, {size}", "stream"))
        chosen = Choice(
            "stream", {"chunk_bytes": plan_chunk_bytes(workload.nbytes)}
        )
        reason = "no parallel file driver beat stream in a same-run A/B"
    PLANNER_COUNTERS.record_plan(chosen.label, reason)
    return Plan(workload, chosen, reason, gates)


# -- in-memory dispatch -----------------------------------------------------


def execute_plan(plan: Plan, values, *, op=None, forced: bool = False) -> np.ndarray:
    """Run an in-memory workload on its plan's chosen strategy.

    ``op`` carries the caller's original operator object when it is not
    resolvable by name (a locally constructed :class:`AssociativeOp`);
    such workloads are always planned serial, and the serial kernel
    takes the object verbatim.  ``forced=True`` (the fuzzer)
    additionally zeroes the threaded kernel's cutover so the strategy
    genuinely executes even at fuzz sizes.
    """
    w = plan.workload
    run_op = op if op is not None else w.op
    if plan.chosen.strategy == "threaded":
        from repro.kernels import ThreadedScan

        engine = ThreadedScan(
            threads=plan.chosen.params["threads"],
            cutover_bytes=0 if forced else None,
            float_mode=w.float_mode,
        )
        return engine.run(
            values,
            order=w.order,
            tuple_size=w.tuple_size,
            op=run_op,
            inclusive=w.inclusive,
        ).values
    from repro.core.host import host_prefix_sum

    return host_prefix_sum(
        values,
        order=w.order,
        tuple_size=w.tuple_size,
        op=run_op,
        inclusive=w.inclusive,
        float_mode=w.float_mode,
    )


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
    reference for every workload."""
    workload = Workload.from_array(
        values, op=op, order=order, tuple_size=tuple_size,
        inclusive=inclusive, float_mode=float_mode,
    )
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
    :class:`Plan` prints as the gate table (``--explain``)."""
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
    compressed workload, with dtype and logical size from its header."""
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


def session_threads(
    dtype, op="add", float_mode: Optional[str] = None, *, order=1, tuple_size=1
) -> Optional[str]:
    """Planned ``threads=`` for a streaming/served session whose chunk
    sizes are unknown up front: ``"auto"`` on a multicore machine for an
    integer configuration whose row kind runs on the slab driver
    (:func:`repro.kernels.threaded.runs_slabs`; the threaded kernel's
    parallel cutover then decides per chunk), ``None`` where slab
    threads could only add dispatch overhead.  Floats never plan
    threads: exact and compensated floats have no slab path, and a
    regrouped float's bits would follow the core count.  ``order`` and
    ``tuple_size`` are the session's: order ``q >= 2`` at ``s >= 2``
    runs the serial tile loop and plans ``None``.  Reads the planner's
    machine snapshot and the configuration only."""
    if not machine_snapshot().multicore:
        return None
    from repro.kernels.threaded import runs_slabs

    try:
        integer = np.dtype(dtype).kind in "iu"
        slabs = integer and runs_slabs(op, dtype, order, tuple_size, float_mode)
        return "auto" if slabs else None
    except (KeyError, TypeError, ValueError):  # the registry open reports it
        return None
