"""The experiment runner: form regions, schedule, estimate, compare.

The estimated execution time of a program under a scheme is

    sum over regions of sum over exits of  weight(exit) * retire_cycle(exit)

(the paper's Figures 4/5 arithmetic, applied program-wide), and the
performance metric is speedup over basic-block scheduling on the
single-issue universal machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.ir.clone import clone_program
from repro.ir.function import Program
from repro.machine.model import MachineModel
from repro.machine.presets import SCALAR_1U
from repro.obs.metrics import NULL_METRICS, metrics_scope
from repro.obs.tracer import NULL_TRACER
from repro.regions.region import RegionPartition
from repro.regions.stats import RegionStats, partition_stats
from repro.schedule.priorities import DEP_HEIGHT
from repro.schedule.schedule import RegionSchedule
from repro.schedule.scheduler import ScheduleOptions, schedule_partition
from repro.evaluation.schemes import Scheme, bb_scheme


@dataclass
class EvaluationResult:
    """Everything one (program, scheme, machine, options) run produced."""

    scheme: str
    machine: str
    heuristic: str
    #: Estimated execution time (profile-weighted cycles).
    time: float
    #: Code expansion factor vs the original program (1.0 when the scheme
    #: does not duplicate).
    code_expansion: float
    #: Per-function partitions (on the possibly-duplicated clone).
    partitions: List[RegionPartition] = field(default_factory=list)
    #: All region schedules.
    schedules: List[RegionSchedule] = field(default_factory=list)
    #: The program the partitions refer to (clone if the scheme mutates).
    program: Optional[Program] = None

    @property
    def stats(self) -> RegionStats:
        return partition_stats(self.partitions)

    @property
    def multi_block_stats(self) -> RegionStats:
        return partition_stats(self.partitions, multi_block_only=True)

    @property
    def total_copies(self) -> int:
        return sum(len(s.copies) for s in self.schedules)

    @property
    def total_merged(self) -> int:
        return sum(len(s.merged) for s in self.schedules)

    @property
    def total_speculated(self) -> int:
        return sum(s.speculated_count for s in self.schedules)


def evaluate_program(
    program: Program,
    scheme: Scheme,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
) -> EvaluationResult:
    """Run one full formation + scheduling + estimation pipeline.

    The input program is never modified: schemes that tail-duplicate run
    on a deep clone (returned in the result for inspection).  ``metrics``
    collects pipeline counters and ``tracer`` records the run as nested
    spans (program → clone/function → formation/schedule_region/estimate
    → prep/renaming/ddg/priorities/list_schedule).
    """
    options = options or ScheduleOptions()
    with metrics_scope(metrics), \
            tracer.span("evaluate_program", scheme=scheme.name,
                        machine=machine.name,
                        heuristic=options.heuristic):
        with tracer.span("clone"):
            worked = clone_program(program) if scheme.mutates else program
        original_ops = sum(fn.cfg.total_ops for fn in program.functions())

        result = EvaluationResult(
            scheme=scheme.name,
            machine=machine.name,
            heuristic=options.heuristic,
            time=0.0,
            code_expansion=1.0,
            program=worked,
        )
        for function in worked.functions():
            with tracer.span("function", function=function.name):
                with tracer.span("formation"):
                    partition = scheme.form(function.cfg)
                schedules = schedule_partition(partition, machine, options,
                                               tracer=tracer)
                result.partitions.append(partition)
                result.schedules.extend(schedules)
                with tracer.span("estimate"):
                    result.time += sum(s.weighted_time for s in schedules)

        final_ops = sum(fn.cfg.total_ops for fn in worked.functions())
        if original_ops > 0:
            result.code_expansion = final_ops / original_ops
        return result


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
