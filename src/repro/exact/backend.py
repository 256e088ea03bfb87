"""The exact scheduling backend: heuristic incumbent + branch-and-bound.

``exact_schedule_problem`` is the single entry every caller shares: the
scheduler's last stage (:func:`repro.schedule.scheduler.schedule_prepared`
with ``backend="exact"``, on every route that reaches it) and the
``repro gap`` driver (through :func:`solve_region`).  The contract:

1. every heuristic in :data:`repro.schedule.priorities.HEURISTICS` is
   list-scheduled on the prepared problem (list scheduling writes
   nothing to the problem, so the runs share it as they are);
2. if the DDG lower bound (:func:`repro.analysis.bounds.bounds_from_ddg`
   — the same admissible bound ``repro analyze`` reports) already meets
   the incumbent, the incumbent is optimal and the search is skipped;
3. otherwise :func:`repro.exact.bnb.branch_and_bound` runs under the
   options' node budget;
4. the returned :class:`~repro.schedule.schedule.ScheduleRecord` is the
   improved cycle assignment when the search found one (ops placed in
   (cycle, index) order), else the best heuristic's own record (so a
   ``budget-exceeded`` result is bit-identical to the heuristic
   backend's output — same bundles, same slots, same exit cycles).

Records are read like the list scheduler's: the scheduler's stage
counts their figures, and
:meth:`~repro.schedule.schedule.RegionSchedule.materialize` builds the
full schedule where placements are read (:func:`solve_region`, the
direct route), so the ``sched.*`` lint certifier, the VLIW simulator
and ``dot --schedule`` see a structurally identical object.

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
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.prep import ScheduleProblem
from repro.schedule.priorities import (
    HEURISTICS,
    all_priority_keys,
    priority_order,
)
from repro.schedule.schedule import RegionSchedule, ScheduleRecord
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


def exact_schedule_problem(
    problem: ScheduleProblem,
    ddg: DDG,
    keys: Optional[Dict[str, List[Tuple]]],
    machine: MachineModel,
    options: ScheduleOptions,
    copies,
) -> Tuple[ScheduleRecord, ExactInfo]:
    """Solve one prepared problem exactly; returns (record, info).

    ``keys`` is the ``all_priority_keys`` dict when the caller already
    has one (memo tier 1); None computes it here.  The problem is left
    as it came in.
    """
    from repro.analysis.bounds import bounds_from_ddg

    if keys is None:
        keys = all_priority_keys(problem, ddg)

    records: Dict[str, ScheduleRecord] = {}
    for heuristic in HEURISTICS:
        order = priority_order(problem, ddg, heuristic,
                               keys=keys.get(heuristic))
        records[heuristic] = list_schedule(
            problem, ddg, order, machine, copies=copies,
            max_cycles=options.max_cycles)
    heights = {heuristic: record.length
               for heuristic, record in records.items()}
    # Ties break in HEURISTICS order.
    best_heuristic = min(HEURISTICS, key=heights.__getitem__)
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
        # Slots within a bundle follow op index (the sort is stable):
        # deterministic, and legal under every ``sched.*`` rule (slot
        # order within a MultiOp carries no semantics; the simulator
        # applies its stores-first rule itself).
        cycle_of = list(result.best)
        order = sorted(range(len(cycle_of)), key=cycle_of.__getitem__)
        record = ScheduleRecord(problem, cycle_of, order, [],
                                max(cycle_of, default=0), list(copies))
    else:
        record = records[best_heuristic]

    status = PROVEN if result.proven else BUDGET_EXCEEDED
    info = ExactInfo(
        status=status,
        length=record.length,
        optimum=result.length if result.proven else None,
        lower_bound=lower_bound,
        heights=heights,
        incumbent=best_heuristic,
        incumbent_length=incumbent_length,
        improved=result.best is not None,
        nodes=result.nodes,
        pruned=result.pruned,
    )
    return record, info


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
    record, info = exact_schedule_problem(problem, ddg, None, machine,
                                          options, copies)
    count_region(region_counts(problem, ddg, info=info))
    return RegionSchedule.materialize(problem, record), info, problem, ddg
