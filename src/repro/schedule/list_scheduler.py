"""The list scheduler (step 3 of Figure 3) with dominator parallelism.

This is a *placement-order* list scheduler: ops are visited in heuristic
priority order (the sorted DDG node list of Figure 3) and each is placed at
the earliest cycle that satisfies its dependences and has a free slot.
High-priority ops get first pick of the slots; lower-priority ops fill the
holes left over.  This matches the paper's observed behaviour — under the
dependence-height heuristic, ops far down the treegion share early slots
with ops near the root instead of starving them outright, and "on a very
wide machine a large amount of speculation will occur due to abundant
processor resources".

Placement runs through a heap of *placeable* ops (all DDG predecessors
already placed), keyed by priority rank.  For tree-shaped regions the four
priority orders are almost topological over the DDG — along a path,
dependence height never increases and block weight / exit count never
increase either — so the heap nearly always pops ops in exact priority
order; the heap exists to stay correct when floating-point profile weights
break monotonicity by an ulp.

The inner loop runs on arrays :func:`repro.schedule.ddg.build_ddg`
builds once and every list schedule over the DDG (each machine and
priority order of a group) shares: the CSR edge arrays
(predecessor edges of the popped op are the slice
``pred_ptr[i]:pred_ptr[i+1]`` of two parallel int lists) and the per-op
``is_memory``/``is_branch`` flags that the slot caps test.  Placement
cycles live in a local ``cycle_of`` int array (merged ops record their
survivor's cycle, so no ``effective_cycle`` chain is ever chased), and
the per-cycle resource table is three parallel int lists indexed by
``cycle - 1``.  Placement writes nothing to any SchedOp or Operation:
the result is a :class:`~repro.schedule.schedule.ScheduleRecord` of
those arrays and the figures the estimate reads, and
:meth:`~repro.schedule.schedule.RegionSchedule.materialize` builds the
full schedule from it where placements are read.

Dominator parallelism (Section 4) is folded in exactly where the paper puts
it — at schedule time: "if a tail duplicated Op A' is speculated into a
block where one of its duplicates A'' is already scheduled, A' can be
eliminated."  In the flattened predicated schedule an unguarded op executes
on every path through the region, so a duplicate about to be placed can be
merged into an already-placed sibling (same tail-duplication ``origin``)
whenever both clones still compute the same values — same opcode and
operands *and* the same DDG producers for every register source (per-path
renaming makes operand equality meaningful).  The merged op consumes no
slot; its consumers are rewired to read the survivor's destinations.  The
merge candidates (placed, unguarded, speculable duplicates, by ``origin``)
are collected only when dominator parallelism is on.  The merge step is
the one place placement mutates the problem: it rewrites the consumers'
operands, so a problem scheduled with dominator parallelism is
single-use.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.util.errors import SchedulingError
from repro.ir.registers import Register
from repro.machine.model import MachineModel
from repro.schedule.ddg import DDG
from repro.schedule.prep import ScheduleProblem
from repro.schedule.renaming import ExitCopy
from repro.schedule.schedule import SchedOp, ScheduleRecord


def list_schedule(
    problem: ScheduleProblem,
    ddg: DDG,
    order: List[SchedOp],
    machine: MachineModel,
    dominator_parallelism: bool = False,
    copies: Optional[List[ExitCopy]] = None,
    max_cycles: int = 1_000_000,
) -> ScheduleRecord:
    """Place every op of ``order`` (the heuristic-sorted DDG node list)."""
    copies = list(copies) if copies else []
    merge_table: Dict[int, List[SchedOp]] = {}

    sched_ops = problem.sched_ops
    n = len(sched_ops)

    pred_ptr, pred_src, pred_lat = ddg.pred_ptr, ddg.pred_src, ddg.pred_lat
    succ_ptr, succ_dst = ddg.succ_ptr, ddg.succ_dst

    ranks = [0] * n
    for position, sop in enumerate(order):
        ranks[sop.index] = position
    waiting = list(ddg.in_degree)
    ready = [(ranks[i], i) for i in range(n) if waiting[i] == 0]
    heapify(ready)

    #: cycle_of[i] — the effective issue cycle of op i once placed or
    #: merged (0 = not yet placed).  Merge survivors are always already
    #: placed, so a merged op's entry is final the moment it is written.
    cycle_of = [0] * n
    #: Placed op indices in placement order; (merged, survivor) pairs.
    placement: List[int] = []
    merges: List[Tuple[int, int]] = []
    is_mem, is_br = ddg.is_memory, ddg.is_branch

    issue_width = machine.issue_width
    max_mem = machine.max_memory_per_cycle
    max_br = machine.max_branches_per_cycle
    # Per-cycle occupancy, indexed by cycle - 1.
    used: List[int] = []
    memory: List[int] = []
    branches: List[int] = []

    placed = 0
    while ready:
        _rank, index = heappop(ready)
        earliest = 1
        for e in range(pred_ptr[index], pred_ptr[index + 1]):
            candidate = cycle_of[pred_src[e]] + pred_lat[e]
            if candidate > earliest:
                earliest = candidate

        survivor = None
        if dominator_parallelism:
            sop = sched_ops[index]
            survivor = _find_merge_target(problem, ddg, merge_table, sop)
        if survivor is not None:
            _merge(problem, ddg, copies, sop, survivor)
            merges.append((index, survivor.index))
            cycle_of[index] = cycle_of[survivor.index]
        else:
            cycle = earliest
            mem = is_mem[index]
            br = is_br[index]
            while True:
                while len(used) < cycle:
                    used.append(0)
                    memory.append(0)
                    branches.append(0)
                slot = cycle - 1
                if used[slot] < issue_width and (
                    max_mem is None or not mem or memory[slot] < max_mem
                ) and (
                    max_br is None or not br or branches[slot] < max_br
                ):
                    break
                cycle += 1
                if cycle > max_cycles:
                    raise SchedulingError(
                        f"schedule exceeded {max_cycles} cycles placing "
                        f"{sched_ops[index]!r}"
                    )
            used[slot] += 1
            if mem:
                memory[slot] += 1
            if br:
                branches[slot] += 1
            placement.append(index)
            cycle_of[index] = cycle
            if (dominator_parallelism and sop.source is not None
                    and sop.op.guard is None and sop.op.can_speculate):
                merge_table.setdefault(sop.source.origin, []).append(sop)

        placed += 1
        for e in range(succ_ptr[index], succ_ptr[index + 1]):
            succ = succ_dst[e]
            remaining = waiting[succ] - 1
            waiting[succ] = remaining
            if remaining == 0:
                heappush(ready, (ranks[succ], succ))

    if placed != n:
        raise SchedulingError(
            f"DDG has a cycle: only {placed}/{n} ops were placeable"
        )
    # Every placed cycle extended the tables, and only up to it: their
    # length is the schedule's.
    return ScheduleRecord(problem, cycle_of, placement, merges, len(used),
                          copies)


# ----------------------------------------------------------------------
# Dominator parallelism

def _find_merge_target(
    problem: ScheduleProblem,
    ddg: DDG,
    merge_table: Dict[int, List[SchedOp]],
    sop: SchedOp,
) -> Optional[SchedOp]:
    """A scheduled duplicate that provably computes the same values."""
    if sop.source is None or sop.exit is not None:
        return None
    if sop.op.guard is not None or not sop.op.can_speculate:
        return None
    for candidate in merge_table.get(sop.source.origin, []):
        if candidate.home is sop.home:
            continue  # same block: that is CSE, not dominator parallelism
        if candidate.source is sop.source:
            continue
        if not candidate.op.same_computation(sop.op):
            continue
        if len(candidate.op.dests) != len(sop.op.dests):
            continue
        if not _same_producers(ddg, candidate, sop):
            continue
        return candidate
    return None


def _same_producers(ddg: DDG, a: SchedOp, b: SchedOp) -> bool:
    for src in b.op.srcs:
        if isinstance(src, Register):
            if ddg.producers[a.index].get(src) != ddg.producers[b.index].get(src):
                return False
    if a.op.is_load or b.op.is_load:
        # Loads only merge when they observe the same memory state.
        if ddg.mem_producers[a.index] != ddg.mem_producers[b.index]:
            return False
    return True


def _merge(
    problem: ScheduleProblem,
    ddg: DDG,
    copies: List[ExitCopy],
    sop: SchedOp,
    survivor: SchedOp,
) -> None:
    """Eliminate ``sop``: its consumers and exit copies read
    ``survivor``'s destinations instead."""
    replacements = dict(zip(sop.op.dests, survivor.op.dests))
    # Rewrite every (necessarily unplaced) consumer reading sop's dests.
    index = sop.index
    succ_ptr, succ_dst = ddg.succ_ptr, ddg.succ_dst
    for e in range(succ_ptr[index], succ_ptr[index + 1]):
        consumer = problem.sched_ops[succ_dst[e]].op
        for old, new in replacements.items():
            if old != new:
                consumer.replace_uses(old, new)
    for position, (exit, original, renamed) in enumerate(copies):
        if renamed in replacements:
            copies[position] = (exit, original, replacements[renamed])
