"""The paper's performance metric: speedup over basic-block scheduling.

The estimated execution time of a program under a scheme is

    sum over regions of sum over exits of  weight(exit) * retire_cycle(exit)

(the paper's Figures 4/5 arithmetic, applied program-wide), computed by
the direct route :func:`repro.evaluation.engine.evaluate_program`.  The
performance metric is speedup over basic-block scheduling on the
single-issue universal machine.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Program
from repro.machine.presets import SCALAR_1U
from repro.schedule.priorities import DEP_HEIGHT
from repro.schedule.scheduler import ScheduleOptions
from repro.evaluation.engine import EvaluationResult, evaluate_program
from repro.evaluation.schemes import bb_scheme


def baseline_time(
    program: Program, options: Optional[ScheduleOptions] = None
) -> float:
    """Basic-block scheduling on the 1-issue machine: the paper's
    speedup denominator."""
    options = options or ScheduleOptions(heuristic=DEP_HEIGHT)
    return evaluate_program(program, bb_scheme(), SCALAR_1U, options).time


def speedup_over_baseline(
    result: EvaluationResult, baseline: float
) -> float:
    """Speedup = T(bb, 1U) / T(scheme, machine)."""
    if result.time <= 0:
        return float("inf") if baseline > 0 else 1.0
    return baseline / result.time
