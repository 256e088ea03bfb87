"""The four treegion scheduling heuristics (Section 3, step 2 of Figure 3).

Each heuristic is a sort key over DDG nodes; the list scheduler then picks
ready ops in sorted order.  Quoting the paper:

* **dependence height** — "the DDG nodes are sorted by their heights";
  critical-path scheduling, maximally eager speculation.
* **exit count** — "the priority of an Op is equal to the Op's exit count,
  which is the number of exits that follow the Op in control flow in the
  treegion"; ties broken by dependence height.  Adapted from speculative
  hedge's *helped count*.
* **global weight** — "the priority value assigned to an Op is the profile
  weight of the original basic block which contains it"; ties broken by
  dependence height.  Adapted from speculative hedge's *helped weight*
  (in a tree, the weight of all exits below an op equals its block's
  weight).
* **weighted count** — weight first, then exit count, then height.

All four fall back to op creation order as the final tie-break, making
schedules fully deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.schedule.ddg import DDG
from repro.schedule.prep import ScheduleProblem
from repro.schedule.schedule import SchedOp

#: Heuristic names as used throughout the benchmarks and figures.
Heuristic = str

DEP_HEIGHT: Heuristic = "dep_height"
EXIT_COUNT: Heuristic = "exit_count"
GLOBAL_WEIGHT: Heuristic = "global_weight"
WEIGHTED_COUNT: Heuristic = "weighted_count"

HEURISTICS: Tuple[Heuristic, ...] = (
    DEP_HEIGHT,
    EXIT_COUNT,
    GLOBAL_WEIGHT,
    WEIGHTED_COUNT,
)


def priority_keys(
    problem: ScheduleProblem, ddg: DDG, heuristic: Heuristic
) -> List[Tuple]:
    """Per-op sort keys (higher = more urgent), indexed like sched_ops."""
    heights = ddg.heights
    if heuristic == DEP_HEIGHT:
        return [(heights[sop.index],) for sop in problem.sched_ops]
    if heuristic == EXIT_COUNT:
        counts = problem.region.exit_counts()
        return [
            (counts[sop.home.bid], heights[sop.index])
            for sop in problem.sched_ops
        ]
    if heuristic == GLOBAL_WEIGHT:
        return [
            (sop.home.weight, heights[sop.index])
            for sop in problem.sched_ops
        ]
    if heuristic == WEIGHTED_COUNT:
        counts = problem.region.exit_counts()
        return [
            (sop.home.weight, counts[sop.home.bid], heights[sop.index])
            for sop in problem.sched_ops
        ]
    raise unknown_heuristic(heuristic)


def unknown_heuristic(heuristic) -> ValueError:
    """The error every route raises for a heuristic not in
    ``HEURISTICS``."""
    return ValueError(
        f"unknown heuristic {heuristic!r}; choose one of {HEURISTICS}"
    )


def all_priority_keys(
    problem: ScheduleProblem, ddg: DDG
) -> Dict[Heuristic, List[Tuple]]:
    """``priority_keys`` for every heuristic, sharing the common pieces.

    Dependence heights, exit counts, and block weights feed several
    heuristics; evaluating the full heuristic sweep on one region (as the
    evaluation engine does) computes each ingredient once here instead of
    per heuristic.  Each entry is element-wise identical to what
    :func:`priority_keys` returns for that heuristic.
    """
    heights = ddg.heights
    counts = problem.region.exit_counts()
    sops = problem.sched_ops
    per_op = [
        (heights[sop.index], counts[sop.home.bid], sop.home.weight)
        for sop in sops
    ]
    return {
        DEP_HEIGHT: [(h,) for h, _, _ in per_op],
        EXIT_COUNT: [(c, h) for h, c, _ in per_op],
        GLOBAL_WEIGHT: [(w, h) for h, _, w in per_op],
        WEIGHTED_COUNT: [(w, c, h) for h, c, w in per_op],
    }


def priority_order(
    problem: ScheduleProblem,
    ddg: DDG,
    heuristic: Heuristic,
    keys: Optional[List[Tuple]] = None,
) -> List[SchedOp]:
    """Step 2 of Figure 3: the DDG nodes sorted by the chosen heuristic.

    ``keys`` lets a caller that already holds this heuristic's keys (e.g.
    from :func:`all_priority_keys` on an identically-prepared problem —
    preparation is deterministic, so op indices line up) skip recomputing
    them.
    """
    if keys is None:
        keys = priority_keys(problem, ddg, heuristic)
    # Op indices by descending key.  The sort is stable under
    # ``reverse``, so ties keep ascending index: the same order as an
    # ascending sort on ``(-key..., index)``, without a tuple per op.
    sched_ops = problem.sched_ops
    return [sched_ops[i] for i in sorted(range(len(keys)),
                                         key=keys.__getitem__, reverse=True)]
