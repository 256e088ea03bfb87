"""Sound per-region lower bounds on schedule height.

The static half of the ROADMAP optimality-gap study: for one region and
one machine, how short could *any* legal schedule possibly be?  Two
bound families, each provably ≤ every height the list scheduler can
achieve under default options:

* **Critical path.**  The list scheduler places op *i* no earlier than
  ``max over placement predecessors p of cycle(p) + latency(p→i)`` (see
  :mod:`repro.schedule.list_scheduler`), so the longest latency chain
  through the *placement* edges of the very DDG the scheduler uses is a
  floor on the final cycle count.  Control edges are excluded — they
  exist only to shape heuristic heights and are broken by speculation,
  so counting them would overestimate (and be unsound as a bound).
* **Windowed resource saturation.**  Every op issues exactly once, and
  each cycle offers ``issue_width`` slots, at most
  ``max_memory_per_cycle`` memory ops, and ``max_branches_per_cycle``
  branch ops — the resource classes are selected by the *same*
  ``Operation.is_memory`` / ``Operation.is_branch`` predicates the list
  scheduler's per-cycle occupancy tables use, so the bound and the
  scheduler can never disagree about which cap an op consumes.  The
  plain floors ``ceil(ops / cap)`` per class are tightened with
  Fernandez-style windows over the precedence structure:

  - *forward*: every op with precedence-earliest issue ``est(i) ≥ t``
    must issue in cycle ``t`` or later, so
    ``H ≥ (t − 1) + ceil(#{i : est(i) ≥ t} / cap)``;
  - *backward*: ``down(i)`` (the longest latency chain from *i*'s issue
    to the last issue) forces ``issue(i) ≤ H − down(i) + 1``, so every
    op with ``down(i) ≥ d`` fits in the first ``H − d + 1`` cycles and
    ``H ≥ (d − 1) + ceil(#{i : down(i) ≥ d} / cap)``.

  Both are evaluated at every distinct ``est``/``down`` value per
  resource class; ``t = d = 1`` recover the plain floors, so the
  windowed bound is never looser.  ``est`` and ``down`` are precedence-
  only quantities, valid in *any* legal schedule, which is what makes
  the windows admissible.

The overall bound is the max of both families.  Soundness scope: any
region (hyperblocks included) under default
:class:`~repro.schedule.scheduler.ScheduleOptions` —
``dominator_parallelism`` may merge duplicate ops (an op stops
consuming a slot and inherits its survivor's cycle), which invalidates
both arguments, and ``schedule_copies`` schedules extra COPY ops
that the default problem the bound reads does not hold.
The corpus soundness gate and the validate oracle check the bound
against all four heuristics on exactly that default configuration, and
the exact backend (:mod:`repro.exact`) machine-certifies it against
proven optima: ``repro gap`` fails if the bound ever exceeds one.

The bound is computed from the scheduler's own first two stages
(:func:`repro.schedule.scheduler.prepare` and
:func:`~repro.schedule.scheduler.dependences`), so synthesized
guard/branch ops are counted identically on both sides of the
comparison;
:func:`bounds_from_ddg` exposes the math to callers (the exact backend)
that already hold a built DDG.
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Optional

from repro.ir.liveness import LivenessInfo
from repro.machine.model import MachineModel
from repro.regions.region import Region


class RegionBounds(NamedTuple):
    """Lower bounds on one region's schedule height for one machine."""

    #: Longest latency chain over placement edges, in cycles.
    critical_path: int
    #: Resource-saturation floor (windowed issue/memory/branch slots).
    resource: int
    #: Number of schedulable ops (after prep synthesizes guards/exits).
    ops: int
    memory_ops: int
    branch_ops: int

    @property
    def lower_bound(self) -> int:
        """The combined sound lower bound: max of both components."""
        return max(self.critical_path, self.resource)


def _windowed_floor(values: List[int], cap: int) -> int:
    """``max over t of (t − 1) + ceil(#{v ≥ t} / cap)`` for ``values``.

    The count of values ≥ t is a right-continuous decreasing step
    function, so the expression is maximized at some t equal to one of
    the values — scanning the distinct sorted values suffices.
    """
    if not values:
        return 0
    ordered = sorted(values)
    total = len(ordered)
    best = 0
    previous = None
    for position, value in enumerate(ordered):
        if value == previous:
            continue
        previous = value
        count = total - position
        floor = value - 1 + -(-count // cap)
        if floor > best:
            best = floor
    return best


def bounds_from_ddg(problem, ddg, machine: MachineModel) -> RegionBounds:
    """The bound math over an already-built placement DDG.

    ``problem``/``ddg`` must come from the default pipeline (no
    materialized copy ops, no dominator parallelism) — the soundness
    scope documented on the module.
    """
    n = len(problem.sched_ops)
    if n == 0:
        return RegionBounds(0, 0, 0, 0, 0)

    # Forward Kahn pass over the placement CSR: earliest[i] is the
    # 1-based cycle op i could issue at were resources infinite —
    # exactly the scheduler's dependence constraint, minus slot limits.
    succ_ptr, succ_dst, succ_lat = ddg.succ_ptr, ddg.succ_dst, ddg.succ_lat
    waiting = list(ddg.in_degree)
    earliest = [1] * n
    queue = deque(i for i in range(n) if waiting[i] == 0)
    processed = 0
    while queue:
        i = queue.popleft()
        processed += 1
        base = earliest[i]
        for e in range(succ_ptr[i], succ_ptr[i + 1]):
            dst = succ_dst[e]
            candidate = base + succ_lat[e]
            if candidate > earliest[dst]:
                earliest[dst] = candidate
            waiting[dst] -= 1
            if waiting[dst] == 0:
                queue.append(dst)
    if processed != n:
        raise ValueError(
            f"placement DDG has a cycle: {processed}/{n} ops ordered"
        )
    critical_path = max(earliest)

    # Backward chain lengths: down[i] cycles must elapse from op i's
    # issue to the last issue.  Placement edges point from a lower to a
    # higher index (tree preorder or a hyperblock's topological order,
    # no copies), so reverse index order is a valid reverse-topological
    # sweep.
    down = [1] * n
    for i in range(n - 1, -1, -1):
        longest = 1
        for e in range(succ_ptr[i], succ_ptr[i + 1]):
            chain = succ_lat[e] + down[succ_dst[e]]
            if chain > longest:
                longest = chain
        down[i] = longest

    is_mem = [sop.op.is_memory for sop in problem.sched_ops]
    is_br = [sop.op.is_branch for sop in problem.sched_ops]
    memory_ops = sum(1 for flag in is_mem if flag)
    branch_ops = sum(1 for flag in is_br if flag)

    resource = 0
    classes = [(None, machine.issue_width)]
    if machine.max_memory_per_cycle is not None and memory_ops:
        classes.append((is_mem, machine.max_memory_per_cycle))
    if machine.max_branches_per_cycle is not None and branch_ops:
        classes.append((is_br, machine.max_branches_per_cycle))
    for member, cap in classes:
        if member is None:
            est_values, down_values = earliest, down
        else:
            est_values = [earliest[i] for i in range(n) if member[i]]
            down_values = [down[i] for i in range(n) if member[i]]
        resource = max(
            resource,
            _windowed_floor(est_values, cap),
            _windowed_floor(down_values, cap),
        )

    return RegionBounds(critical_path, resource, n, memory_ops, branch_ops)


def region_lower_bounds(
    region: Region,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> RegionBounds:
    """Compute both lower bounds for ``region`` on ``machine``.

    Runs the scheduler's own first two stages (the IR is never
    modified), so the op population and dependences are what the list
    scheduler will place, hyperblocks included.
    """
    from repro.ir.analysis_cache import liveness_of
    from repro.schedule.scheduler import (
        count_region,
        dependences,
        prepare,
        region_counts,
    )

    if liveness is None:
        liveness = liveness_of(region.root.cfg)

    problem, copies = prepare(region, machine, liveness)
    ddg = dependences(problem, machine, liveness, copies)
    count_region(region_counts(problem, ddg))
    return bounds_from_ddg(problem, ddg, machine)
