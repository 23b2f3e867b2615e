"""``repro.plan`` — the execution planner.

Several PRs built several ways to run the same scan: the serial lane
kernel, the slab-parallel threaded kernel, the single-session
out-of-core driver, the sharded driver, and the serving layer's
batched sessions.  This package chooses among them *from the
data*: a :class:`Workload` (size, dtype, op, order, tuple size, where
the bytes live) and a :class:`Machine` (core count plus the
empirically tuned kernel geometry) are priced through a cost model
that combines the analytic vocabulary of :mod:`repro.perf` with the
measured throughput calibration this machine has accumulated, and the
winning :class:`Plan` dispatches through the existing engines —
recording its decision in counters and folding the observed runtime
back into the calibration store so repeated workloads converge on the
best configuration.

``repro.scan(x)``, ``repro.prefix_sum(x)``, flag-less
``repro.scan_file`` and the serving layer all route through here;
explicit flags always win, and ``engine="auto"`` names the planner
explicitly.  ``repro.explain(...)`` (CLI: ``repro scan --explain``)
prints the candidate table without running anything.
"""

from repro.plan.calibration import (
    CalibrationStore,
    calibration_path,
    get_store,
)
from repro.plan.cost import Candidate
from repro.plan.planner import (
    PLANNER_COUNTERS,
    TINY_BYTES,
    Plan,
    PlannerCounters,
    auto_scan,
    execute_plan,
    explain_scan,
    plan_file_scan,
    plan_scan,
    session_threads,
)
from repro.plan.workload import Machine, Workload, machine_snapshot

__all__ = [
    "PLANNER_COUNTERS",
    "TINY_BYTES",
    "CalibrationStore",
    "Candidate",
    "Machine",
    "Plan",
    "PlannerCounters",
    "Workload",
    "auto_scan",
    "calibration_path",
    "execute_plan",
    "explain_scan",
    "get_store",
    "machine_snapshot",
    "plan_file_scan",
    "plan_scan",
    "session_threads",
]
