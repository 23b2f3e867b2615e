"""``repro.plan`` — the execution planner.

Several PRs built several ways to run the same scan: the serial lane
kernel, the slab-parallel threaded kernel, the single-session
out-of-core driver, the sharded driver, and the serving layer's
batched sessions.  This package chooses among them *from the data*: a
:class:`Workload` (size, dtype, op, order, tuple size, where the bytes
live) and a :class:`Machine` (the core count) pass through a few
gates, each reading one measured or observed input, and the resulting
:class:`Plan` dispatches through the existing engines and records its
decision in counters.

``repro.scan(x)``, ``repro.prefix_sum(x)``, flag-less
``repro.scan_file`` and the serving layer all route through here;
explicit flags always win, and ``engine="auto"`` names the planner
explicitly.  ``repro.explain(...)`` (CLI: ``repro scan --explain``)
prints every gate's input and verdict without running anything.
"""

from repro.plan.planner import (
    PLANNER_COUNTERS,
    TINY_BYTES,
    Choice,
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
    "Choice",
    "Machine",
    "Plan",
    "PlannerCounters",
    "Workload",
    "auto_scan",
    "execute_plan",
    "explain_scan",
    "machine_snapshot",
    "plan_file_scan",
    "plan_scan",
    "session_threads",
]
