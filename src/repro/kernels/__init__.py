"""``repro.kernels`` — the shared lane-aware scan kernel layer.

One tuned, zero-copy kernel family used by every engine's host-side
hot path: the fast host functions, the streaming session, the sharded
out-of-core driver, and the multicore workers.  Two entries run it:
:func:`scan_into`, the one in-memory one-shot scan, and
:class:`LaneKernel`, the one chunk kernel; both take ``threads=`` and
``float_mode=`` as parameters, and
:func:`repro.kernels.threaded.runs_slabs` says where ``threads=``
applies (the plain row kind only).  See
:mod:`repro.kernels.lane` for the algorithmic notes (the 2-D
lane-block trick, the cache-blocked integer path, and the head fold
every carry continuation takes) and :mod:`repro.kernels.compensated` for the
deterministic float mode built on error-free carries.
"""

from repro.kernels.batched import (
    BatchedLaneKernel,
    batchable_op_dtype,
)
from repro.kernels.compensated import (
    FLOAT_MODES,
    SEGMENT_ROWS,
    CompensatedCollectKernel,
    compensated_scan_into,
    compensated_supported,
    fresh_state,
    lane_scan_compensated,
    resolve_float_mode,
    segment_span,
)
from repro.kernels.lane import (
    BLOCK_BYTES,
    BLOCKED_MIN_BYTES,
    BLOCKED_MIN_STRIDE_BYTES,
    FUSED_BLOCK_BYTES,
    FUSED_MIN_TUPLE,
    LaneKernel,
    exclusive_shift,
    fold_head,
    fold_lanes,
    fused_combine,
    fused_deltas,
    fused_lane_scan,
    fused_supported,
    lane_scan,
    lane_totals,
    phase_perm,
    phase_totals,
    scan_into,
)
from repro.kernels.threaded import (
    MIN_SLAB_BYTES,
    PARALLEL_CUTOVER_BYTES,
    ThreadedScan,
    check_threads,
    get_pool,
    resolve_threads,
)

__all__ = [
    "BLOCK_BYTES",
    "BLOCKED_MIN_BYTES",
    "BLOCKED_MIN_STRIDE_BYTES",
    "FLOAT_MODES",
    "FUSED_BLOCK_BYTES",
    "FUSED_MIN_TUPLE",
    "MIN_SLAB_BYTES",
    "PARALLEL_CUTOVER_BYTES",
    "SEGMENT_ROWS",
    "BatchedLaneKernel",
    "CompensatedCollectKernel",
    "LaneKernel",
    "ThreadedScan",
    "batchable_op_dtype",
    "check_threads",
    "compensated_scan_into",
    "compensated_supported",
    "exclusive_shift",
    "fold_head",
    "fold_lanes",
    "fresh_state",
    "fused_combine",
    "fused_deltas",
    "fused_lane_scan",
    "fused_supported",
    "get_pool",
    "lane_scan",
    "lane_scan_compensated",
    "lane_totals",
    "phase_perm",
    "phase_totals",
    "resolve_float_mode",
    "resolve_threads",
    "scan_into",
]
