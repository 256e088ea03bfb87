"""Performance evaluation: the paper's estimation methodology.

"Program performance was measured by using the profile count and schedule
height of each region to estimate execution time.  The effects of
instruction and data caches were ignored, and perfect branch prediction was
assumed [...].  Speedup over basic block scheduling on a single-issue,
pipelined universal unit machine was the performance metric used."
— Section 3.
"""

from repro.evaluation.schemes import (
    Scheme,
    bb_scheme,
    slr_scheme,
    treegion_scheme,
    superblock_scheme,
    treegion_td_scheme,
)
from repro.evaluation.runner import baseline_time, speedup_over_baseline
from repro.evaluation.engine import (
    CellResult,
    EvaluationResult,
    GridCell,
    build_scheme,
    default_grid,
    evaluate_cell,
    evaluate_grid,
    evaluate_program,
    machine_by_name,
)

__all__ = [
    "Scheme",
    "bb_scheme",
    "slr_scheme",
    "treegion_scheme",
    "superblock_scheme",
    "treegion_td_scheme",
    "EvaluationResult",
    "evaluate_program",
    "baseline_time",
    "speedup_over_baseline",
    "CellResult",
    "GridCell",
    "build_scheme",
    "default_grid",
    "evaluate_cell",
    "evaluate_grid",
    "machine_by_name",
]
