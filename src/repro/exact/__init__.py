"""Exact region scheduling: branch-and-bound optima and the gap report.

The second scheduling backend next to the list scheduler
(:mod:`repro.schedule.list_scheduler`):

* :mod:`repro.exact.bnb` — the branch-and-bound search itself
  (cycle-by-cycle maximal-bundle enumeration, dominance memoization,
  admissible lower-bound pruning, deterministic node budget);
* :mod:`repro.exact.backend` — the pipeline entry: heuristic incumbent
  seeding and the solve, returning a ScheduleRecord like the list
  scheduler (``ScheduleOptions(backend="exact")`` routes here);
* :mod:`repro.exact.gap` — the ``repro gap`` / ``repro.api.gap_report``
  driver scoring every heuristic's height against the proven optimum
  per region and machine-certifying the ``repro.analysis.bounds``
  lower bounds along the way.
"""

from repro.exact.backend import (
    DEFAULT_NODE_BUDGET,
    ExactInfo,
    exact_schedule_problem,
    solve_region,
)
from repro.exact.bnb import BnBResult, branch_and_bound
from repro.exact.gap import format_gap, gap_program, gap_summary

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "ExactInfo",
    "exact_schedule_problem",
    "solve_region",
    "BnBResult",
    "branch_and_bound",
    "gap_program",
    "gap_summary",
    "format_gap",
]
