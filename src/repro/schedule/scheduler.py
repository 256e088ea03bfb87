"""The region scheduler: Figure 3's three steps plus the supporting
passes, as one stage sequence.

    scheduleTreegion (treegion) {
        Form DDG for treegion
        sortDDGNodesBy*** (DDG)
        listSchedule (DDG)
    }

:func:`schedule_region` runs the stages in order: :func:`prepare` (guard
synthesis and renaming), :func:`dependences` (the DDG) and
:func:`schedule_prepared` (priority sort and list scheduling, or the
exact backend), then builds the
:class:`~repro.schedule.schedule.RegionSchedule` from the last stage's
:class:`~repro.schedule.schedule.ScheduleRecord`.  It works for any
tree-shaped region, so the same code schedules basic blocks, SLRs,
superblocks, and treegions — only the region former differs between
the paper's experiments.

This module is the only one that knows the stage order.  The region
memo (:mod:`repro.schedule.memo`) puts its caches in front of the same
three stages, and the exact solver and the bound analysis call
:func:`prepare` and :func:`dependences` to get the problem the scheduler
would see.  :func:`check_options` is the one place options are
validated; every route calls it before doing any work.

The stages count nothing: :func:`region_counts` reads a region's
figures off its stage outputs, and :func:`count_region` is the one
function that counts them — once per region on the direct route, once
per probe from the record each memo entry keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ir.analysis_cache import liveness_of
from repro.ir.liveness import LivenessInfo
from repro.lint.collect import current_collector
from repro.machine.model import MachineModel
from repro.obs.metrics import NULL_METRICS, current_metrics
from repro.obs.tracer import NULL_TRACER
from repro.regions.hyperblock import Hyperblock
from repro.regions.region import Region, RegionPartition
from repro.schedule.ddg import DDG, build_ddg
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.prep import ScheduleProblem, prepare_region
from repro.schedule.priorities import (
    GLOBAL_WEIGHT,
    HEURISTICS,
    Heuristic,
    priority_order,
    unknown_heuristic,
)
from repro.schedule.renaming import ExitCopy, rename_region
from repro.schedule.schedule import RegionSchedule, SchedOp, ScheduleRecord


#: The values :attr:`ScheduleOptions.backend` accepts.
BACKENDS = ("heuristic", "exact")

#: ``HEURISTICS`` as a set: :func:`check_options` runs on every memo
#: probe.
_HEURISTICS = frozenset(HEURISTICS)


@dataclass(frozen=True)
class ScheduleOptions:
    """Knobs for one scheduling run.

    Attributes:
        heuristic: One of ``repro.schedule.priorities.HEURISTICS``.
        dominator_parallelism: Enable duplicate elimination at schedule
            time (Section 4); only has an effect on tail-duplicated code.
        schedule_copies: Materialize renaming repair copies as real
            (predicated) ops competing for slots.  The paper's accounting
            leaves them out ("Copy Ops added due to renaming were not
            used in computing speedup"); turning this on quantifies that
            choice.
        max_cycles: Safety bound on schedule length.
        certify: Run the static legality certifier (``repro.lint``
            schedule rules) on every tree-region schedule and raise
            :class:`~repro.util.errors.ScheduleCertificationError` on any
            error diagnostic.  The certifier also runs — without raising —
            whenever a :func:`repro.lint.collect.lint_scope` is active.
        backend: ``"heuristic"`` (the list scheduler, default) or
            ``"exact"`` (branch-and-bound search for a provably minimal
            schedule height, seeded from the best heuristic schedule;
            see :mod:`repro.exact`).  The exact backend requires
            ``dominator_parallelism=False`` and ``schedule_copies=False``
            and does not cover hyperblocks.
        exact_budget: Node budget for the exact backend's search (one
            bundle-extension step per node).  When exceeded the best
            heuristic schedule is returned unchanged and the result is
            flagged ``budget-exceeded`` instead of ``proven``.
    """

    heuristic: Heuristic = GLOBAL_WEIGHT
    dominator_parallelism: bool = False
    schedule_copies: bool = False
    max_cycles: int = 1_000_000
    certify: bool = False
    backend: str = "heuristic"
    exact_budget: int = 50_000


class RegionCounts(NamedTuple):
    """One region's pipeline counters as plain figures read off its stage
    outputs.  A stage's fields are None where the route did not run it:
    the DDG's for hyperblocks, the schedule's for the bound analysis and
    the gap route, the exact search's unless it ran (``exact_proven`` and
    ``exact_improved`` are 0 or 1)."""

    pand_merges: int = 0
    registers_minted: int = 0
    ddg_nodes: Optional[int] = None
    ddg_edges: Optional[int] = None
    ddg_control_edges: Optional[int] = None
    length: Optional[int] = None
    copy_count: Optional[int] = None
    merged_count: Optional[int] = None
    speculated_count: Optional[int] = None
    exact_nodes: Optional[int] = None
    exact_pruned: Optional[int] = None
    exact_proven: Optional[int] = None
    exact_improved: Optional[int] = None


def region_counts(problem: ScheduleProblem, ddg: Optional[DDG] = None,
                  record: Optional[ScheduleRecord] = None,
                  info=None) -> RegionCounts:
    """The record of a region's prepared problem and, where the route
    built them, its DDG, its schedule's figures and the exact search's
    :class:`~repro.exact.backend.ExactInfo`."""
    absent = (None,) * 4
    return RegionCounts(
        problem.pand_merges, problem.registers_minted,
        *((ddg.num_nodes, ddg.num_edges, ddg.num_control_edges)
          if ddg is not None else absent[:3]),
        *((record.length, record.copy_count, record.merged_count,
           record.speculated_count) if record is not None else absent),
        *((info.nodes, info.pruned, int(info.proven), int(info.improved))
          if info is not None else absent))


def count_region(counts: RegionCounts) -> None:
    """Count one region's record into the active registry: the only
    place pipeline counters are incremented.  Event counters (PAND
    merges, minted registers, exact outcomes) are left out at zero;
    sizes and totals are emitted even when zero."""
    metrics = current_metrics()
    if metrics is NULL_METRICS:
        return
    if counts.pand_merges:
        metrics.inc("prep.pand_merges", counts.pand_merges)
    if counts.registers_minted:
        metrics.inc("rename.registers_minted", counts.registers_minted)
    if counts.ddg_nodes is not None:
        metrics.inc("ddg.nodes", counts.ddg_nodes)
        metrics.inc("ddg.edges", counts.ddg_edges)
        metrics.inc("ddg.control_edges", counts.ddg_control_edges)
    if counts.length is not None:
        metrics.inc("schedule.regions")
        metrics.inc("schedule.cycles", counts.length)
        metrics.inc("schedule.speculated", counts.speculated_count)
        metrics.inc("schedule.merged", counts.merged_count)
        metrics.inc("rename.exit_copies", counts.copy_count)
        metrics.observe("schedule.length", counts.length)
    if counts.exact_nodes is not None:
        metrics.inc("exact.regions")
        metrics.inc("exact.nodes", counts.exact_nodes)
        metrics.inc("exact.pruned", counts.exact_pruned)
        metrics.inc("exact.proven" if counts.exact_proven
                    else "exact.budget_exceeded")
        if counts.exact_improved:
            metrics.inc("exact.improved")


def check_options(region: Region, options: ScheduleOptions) -> None:
    """Reject option combinations no pipeline route can honour.

    Every route runs this before any work: :func:`schedule_region` and
    the region memo (:meth:`repro.schedule.memo.RegionMemo.schedule`),
    hits included.
    """
    if options.heuristic not in _HEURISTICS:
        raise unknown_heuristic(options.heuristic)
    if options.backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {options.backend!r}; "
            "expected 'heuristic' or 'exact'"
        )
    if options.backend != "exact":
        return
    if options.dominator_parallelism or options.schedule_copies:
        raise ValueError(
            "backend='exact' requires dominator_parallelism=False and "
            "schedule_copies=False (merging and materialized copies "
            "fall outside the search's legality model)"
        )
    if isinstance(region, Hyperblock):
        raise ValueError(
            "the exact backend covers tree-pipeline regions only; "
            "hyperblocks schedule through a different pipeline"
        )


def prepare(region: Region, machine: MachineModel, liveness: LivenessInfo,
            schedule_copies: bool = False,
            tracer=NULL_TRACER) -> Tuple[ScheduleProblem, List[ExitCopy]]:
    """Stage 1: guard/predication prep, then renaming (plus the repair
    copies as real ops when ``schedule_copies``).  Returns the problem
    and its exit repair copies.  Tree-shaped regions only."""
    if isinstance(region, Hyperblock):
        raise ValueError(
            "the tree pipeline covers tree-shaped regions only; "
            "hyperblocks schedule through a different pipeline"
        )
    with tracer.span("prep"):
        problem = prepare_region(region, machine, liveness)
    with tracer.span("renaming"):
        copies = rename_region(problem, liveness)
        if schedule_copies:
            _insert_copy_ops(problem, copies)
    return problem, copies


def dependences(problem: ScheduleProblem, machine: MachineModel,
                liveness: LivenessInfo, copies: List[ExitCopy],
                tracer=NULL_TRACER) -> DDG:
    """Stage 2: the region's DDG (Figure 3, "Form DDG")."""
    with tracer.span("ddg"):
        return build_ddg(problem, machine, liveness=liveness, copies=copies)


def schedule_prepared(problem: ScheduleProblem, ddg: DDG,
                      copies: List[ExitCopy], machine: MachineModel,
                      options: ScheduleOptions,
                      keys: Optional[Dict[Heuristic, List[Tuple]]] = None,
                      order: Optional[List[SchedOp]] = None,
                      tracer=NULL_TRACER
                      ) -> Tuple[ScheduleRecord, RegionCounts]:
    """Stage 3: sort by priority and list-schedule (or solve exactly).

    Returns the schedule's :class:`~repro.schedule.schedule.ScheduleRecord`
    and the region's :class:`RegionCounts`, which the caller counts.
    Neither backend writes to the problem, except dominator
    parallelism's merge step (it rewrites consumer operands, so such a
    problem is single-use); callers that read placements build the
    :class:`RegionSchedule` with
    :meth:`~repro.schedule.schedule.RegionSchedule.materialize`.
    ``keys`` is an :func:`~repro.schedule.priorities.all_priority_keys`
    dict for this problem when the caller already has one; None computes
    what is needed here.  ``order`` is this problem's
    :func:`~repro.schedule.priorities.priority_order` for
    ``options.heuristic`` when the caller already sorted it; the list
    scheduler then skips the sort (the exact backend ignores it).
    """
    info = None
    if options.backend == "exact":
        from repro.exact.backend import exact_schedule_problem

        with tracer.span("exact"):
            record, info = exact_schedule_problem(
                problem, ddg, keys, machine, options, copies,
            )
    else:
        if order is None:
            with tracer.span("priorities"):
                order = priority_order(
                    problem, ddg, options.heuristic,
                    keys=keys.get(options.heuristic) if keys else None,
                )
        with tracer.span("list_schedule"):
            record = list_schedule(
                problem,
                ddg,
                order,
                machine,
                dominator_parallelism=options.dominator_parallelism,
                copies=copies,
                max_cycles=options.max_cycles,
            )
    return record, region_counts(problem, ddg, record, info)


def schedule_region(
    region: Region,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    liveness: Optional[LivenessInfo] = None,
    tracer=NULL_TRACER,
) -> RegionSchedule:
    """Schedule one region for the given machine: the three stages in
    order.

    ``liveness`` may be supplied to avoid recomputing it per region when
    scheduling a whole partition.  The input IR is never modified.

    ``tracer`` records the stages as nested spans (prep, renaming, ddg,
    priorities, list_schedule; its :meth:`~repro.obs.tracer.Tracer.self_times`
    are the per-stage wall times); the region's counters
    (:func:`count_region`) land in the active
    :func:`repro.obs.metrics.current_metrics` registry.
    """
    options = options or ScheduleOptions()
    check_options(region, options)
    if liveness is None:
        liveness = liveness_of(region.root.cfg)
    # Hyperblocks go through the if-conversion pipeline: full predication,
    # DAG dependences, no renaming, no speculation.
    if isinstance(region, Hyperblock):
        from repro.schedule.hyperblock import (
            build_hyperblock_ddg,
            prepare_hyperblock,
        )

        with tracer.span("list_schedule", region=region.root.bid,
                         kind="hyperblock"):
            problem = prepare_hyperblock(region, machine, liveness)
            ddg = build_hyperblock_ddg(problem, machine, liveness)
            order = priority_order(problem, ddg, options.heuristic)
            record = list_schedule(problem, ddg, order, machine, copies=[],
                                   max_cycles=options.max_cycles)
        # The DAG dependences are not counted: only prep and schedule.
        count_region(region_counts(problem, record=record))
        return RegionSchedule.materialize(problem, record)
    with tracer.span("schedule_region", region=region.root.bid,
                     blocks=len(region.blocks),
                     machine=machine.name,
                     heuristic=options.heuristic):
        problem, copies = prepare(region, machine, liveness,
                                  options.schedule_copies, tracer)
        ddg = dependences(problem, machine, liveness, copies, tracer)
        record, counts = schedule_prepared(problem, ddg, copies, machine,
                                           options, tracer=tracer)
        count_region(counts)
        schedule = RegionSchedule.materialize(problem, record)
        if options.certify or current_collector() is not None:
            with tracer.span("certify"):
                _certify(problem, ddg, schedule, machine, liveness, options)
        return schedule


def _certify(problem, ddg, schedule, machine, liveness, options) -> None:
    """Run the schedule-legality rules over a freshly built schedule.

    Diagnostics flow into the active lint collector when one is open (the
    lint runner / validation oracle path); with ``options.certify`` the
    pipeline additionally fails fast on any error diagnostic.
    """
    from repro.lint.schedule_rules import check_schedule

    report = check_schedule(problem, ddg, schedule, machine=machine,
                            liveness=liveness)
    collector = current_collector()
    if collector is not None and report.diagnostics:
        collector.extend(report.diagnostics)
    if options.certify and not report.ok:
        from repro.util.errors import ScheduleCertificationError

        raise ScheduleCertificationError(report.errors)


def _insert_copy_ops(problem, copies) -> None:
    """Materialize exit repair copies as predicated COPY ops.

    Each copy (exit, original <- renamed) becomes a real op homed at the
    exit's source block, guarded by the exit's predicate so it only
    commits on that path, and placed before the exit branch in walk order
    — the exit's liveness edge then naturally orders the branch after it.
    """
    from repro.ir.operation import Operation
    from repro.ir.types import Opcode

    for exit, original, renamed in copies:
        exit_sop = problem.exit_op_for(exit)
        branch = exit_sop.op
        if branch.opcode is Opcode.BRCT:
            guard = branch.srcs[0]
        else:  # BRU / RET exits inherit whatever guard they carry.
            guard = branch.guard
        copy_op = Operation(
            -(len(problem.sched_ops) + 1), Opcode.COPY,
            dests=[original], srcs=[renamed], guard=guard,
        )
        sop = SchedOp(len(problem.sched_ops), copy_op, exit.source,
                      source=None)
        problem.sched_ops.append(sop)
        block_list = problem.by_block[exit.source.bid]
        block_list.insert(block_list.index(exit_sop), sop)


def schedule_partition(
    partition: RegionPartition,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    tracer=NULL_TRACER,
) -> List[RegionSchedule]:
    """Schedule every region of a partition (liveness cached per CFG)."""
    return [schedule_region(region, machine, options, tracer=tracer)
            for region in partition]
