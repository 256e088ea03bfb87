"""The exact scheduling backend: heuristic incumbent + branch-and-bound.

``exact_schedule_problem`` is the single entry every caller shares: the
scheduler's last stage (:func:`repro.schedule.scheduler.schedule_prepared`
with ``backend="exact"``, on every route that reaches it) and the
``repro gap`` driver (through :func:`solve_region`).  The contract:

1. every heuristic in :data:`repro.schedule.priorities.HEURISTICS` is
   list-scheduled on the prepared problem (placement state is reset
   between runs with
   :meth:`~repro.schedule.prep.ScheduleProblem.reset_placement`), and
   the best height becomes the branch-and-bound incumbent;
2. if the DDG lower bound (:func:`repro.analysis.bounds.bounds_from_ddg`
   — the same admissible bound ``repro analyze`` reports) already meets
   the incumbent, the incumbent is optimal and the search is skipped;
3. otherwise :func:`repro.exact.bnb.branch_and_bound` runs under the
   options' node budget;
4. the returned :class:`~repro.schedule.schedule.RegionSchedule` is the
   improved schedule when the search found one, else the best
   heuristic's schedule re-run verbatim (so a ``budget-exceeded``
   result is bit-identical to the heuristic backend's output — same
   bundles, same slots, same exit cycles).

Improved schedules are materialized through the same post-passes as the
list scheduler (:func:`_record_exits` / :func:`_mark_speculation`), so
downstream consumers — the ``sched.*`` lint certifier, the VLIW
simulator, ``dot --schedule`` — see a structurally identical object.

Restrictions: ``dominator_parallelism`` rewires consumers mid-placement
and ``schedule_copies`` appends ops whose edges break the low-to-high
index invariant the bundle enumeration relies on; both raise.
Hyperblocks schedule through a different pipeline entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.liveness import LivenessInfo
from repro.machine.model import MachineModel
from repro.regions.region import Region
from repro.schedule.ddg import DDG
from repro.schedule.list_scheduler import (
    _mark_speculation,
    _record_exits,
    list_schedule,
)
from repro.schedule.prep import ScheduleProblem
from repro.schedule.priorities import (
    HEURISTICS,
    all_priority_keys,
    priority_order,
)
from repro.schedule.schedule import RegionSchedule
from repro.schedule.scheduler import (
    ScheduleOptions,
    count_region,
    dependences,
    prepare,
    region_counts,
)
from repro.exact.bnb import branch_and_bound

__all__ = ["ExactInfo", "exact_schedule_problem", "solve_region",
           "DEFAULT_NODE_BUDGET"]

#: The default branch-and-bound node budget (one bundle-extension step
#: per node), shared with :class:`repro.schedule.scheduler.ScheduleOptions`.
DEFAULT_NODE_BUDGET = ScheduleOptions().exact_budget

#: Statuses an exact result can carry.
PROVEN = "proven"
BUDGET_EXCEEDED = "budget-exceeded"


class ExactInfo:
    """Everything the gap report needs about one exact solve."""

    __slots__ = ("status", "length", "optimum", "lower_bound", "heights",
                 "incumbent", "incumbent_length", "improved", "nodes",
                 "pruned")

    def __init__(self, status: str, length: int, optimum: Optional[int],
                 lower_bound: int, heights: Dict[str, int],
                 incumbent: str, incumbent_length: int, improved: bool,
                 nodes: int, pruned: int):
        #: ``"proven"`` or ``"budget-exceeded"``.
        self.status = status
        #: Height of the returned schedule.
        self.length = length
        #: The proven optimum, or None when the budget ran out.
        self.optimum = optimum
        #: The admissible DDG lower bound the search pruned against.
        self.lower_bound = lower_bound
        #: Achieved height per heuristic (the incumbent candidates).
        self.heights = heights
        #: The heuristic that seeded the incumbent (ties break in
        #: HEURISTICS order) and its height.
        self.incumbent = incumbent
        self.incumbent_length = incumbent_length
        #: True when the search beat every heuristic.
        self.improved = improved
        self.nodes = nodes
        self.pruned = pruned

    @property
    def proven(self) -> bool:
        return self.status == PROVEN

    def __repr__(self) -> str:
        return (f"<ExactInfo {self.status} len={self.length} "
                f"lb={self.lower_bound} nodes={self.nodes}>")


def _schedule_from_cycles(problem: ScheduleProblem, cycle_of: List[int],
                          copies) -> RegionSchedule:
    """Materialize a cycle assignment as a RegionSchedule.

    Ops are placed in (cycle, index) order, so slots within a bundle
    follow op index — deterministic, and legal under every ``sched.*``
    rule (slot order within a MultiOp carries no semantics; the
    simulator applies its stores-first rule itself).
    """
    schedule = RegionSchedule(problem.region)
    for index in sorted(range(len(cycle_of)),
                        key=lambda i: (cycle_of[i], i)):
        schedule.place(problem.sched_ops[index], cycle_of[index])
    _record_exits(problem, schedule)
    _mark_speculation(problem, schedule)
    schedule.copies = list(copies)
    return schedule


def exact_schedule_problem(
    problem: ScheduleProblem,
    ddg: DDG,
    keys: Optional[Dict[str, List[Tuple]]],
    machine: MachineModel,
    options: ScheduleOptions,
    copies,
) -> Tuple[RegionSchedule, ExactInfo]:
    """Solve one prepared problem exactly; returns (schedule, info).

    ``keys`` is the ``all_priority_keys`` dict when the caller already
    has one (memo tier 1); None computes it here.
    The problem must be placement-clean on entry; on return it holds
    the returned schedule's placement (like any pipeline run).
    """
    from repro.analysis.bounds import bounds_from_ddg

    ddg.finalize()
    if keys is None:
        keys = all_priority_keys(problem, ddg)

    def heuristic_schedule(heuristic: str) -> RegionSchedule:
        order = priority_order(problem, ddg, heuristic,
                               keys=keys.get(heuristic))
        return list_schedule(problem, ddg, order, machine, copies=copies,
                             max_cycles=options.max_cycles)

    heights: Dict[str, int] = {}
    best_heuristic = HEURISTICS[0]
    for heuristic in HEURISTICS:
        schedule = heuristic_schedule(heuristic)
        heights[heuristic] = schedule.length
        if schedule.length < heights[best_heuristic]:
            best_heuristic = heuristic
        problem.reset_placement()
    incumbent_length = heights[best_heuristic]

    bounds = bounds_from_ddg(problem, ddg, machine)
    lower_bound = bounds.lower_bound

    if incumbent_length <= lower_bound:
        # The heuristic already meets an admissible bound: optimal.
        from repro.exact.bnb import BnBResult

        result = BnBResult(None, incumbent_length, True, 0, 0)
    else:
        n = len(problem.sched_ops)
        sched_ops = problem.sched_ops
        result = branch_and_bound(
            n,
            ddg.pred_ptr,
            ddg.succ_ptr,
            ddg.succ_dst,
            ddg.succ_lat,
            [sop.op.is_memory for sop in sched_ops],
            [sop.op.is_branch for sop in sched_ops],
            machine.issue_width,
            machine.max_memory_per_cycle,
            machine.max_branches_per_cycle,
            incumbent=incumbent_length,
            node_budget=options.exact_budget,
        )

    if result.best is not None:
        schedule = _schedule_from_cycles(problem, result.best, copies)
    else:
        # No improvement (or none found in budget): the final schedule
        # is the best heuristic's, re-run so bundles and slots are
        # bit-identical to the heuristic backend's output.
        schedule = heuristic_schedule(best_heuristic)

    status = PROVEN if result.proven else BUDGET_EXCEEDED
    info = ExactInfo(
        status=status,
        length=schedule.length,
        optimum=result.length if result.proven else None,
        lower_bound=lower_bound,
        heights=heights,
        incumbent=best_heuristic,
        incumbent_length=incumbent_length,
        improved=result.best is not None,
        nodes=result.nodes,
        pruned=result.pruned,
    )
    return schedule, info


def solve_region(
    region: Region,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Tuple[RegionSchedule, ExactInfo, ScheduleProblem, DDG]:
    """Run the scheduler's stages fresh and solve one region exactly.

    The convenience entry the gap driver and tests use: prepares,
    renames, builds the DDG (default options — no dominator
    parallelism, no materialized copies), then solves.  Returns the
    problem and DDG too so callers can certify the schedule with the
    ``sched.*`` lint rules without re-running the pipeline.
    """
    from repro.ir.analysis_cache import liveness_of

    if liveness is None:
        liveness = liveness_of(region.root.cfg)
    problem, copies = prepare(region, machine, liveness)
    ddg = dependences(problem, machine, liveness, copies)
    options = ScheduleOptions(backend="exact", exact_budget=budget)
    schedule, info = exact_schedule_problem(problem, ddg, None, machine,
                                            options, copies)
    count_region(region_counts(problem, ddg, info=info))
    return schedule, info, problem, ddg
