"""Branch-and-bound search for provably optimal region schedules.

The search minimizes *schedule height* (the quantity ``repro analyze``
compares against :class:`repro.analysis.bounds.RegionBounds`) over
exactly the legality constraints the list scheduler enforces: every op
issues once, no earlier than ``cycle(pred) + latency`` over the
placement edges of the CSR-packed DDG, within ``issue_width`` slots per
cycle and the optional memory/branch per-cycle caps.  Control
dependences only raise heights and are not in the arrays — the list
scheduler speculates through them, so an "optimal" schedule must be
allowed to as well.

**Search space.**  Cycle-by-cycle bundle enumeration: the search fixes
the complete MultiOp of cycle 1, then cycle 2, and so on.  Within one
cycle the candidate set is dynamic — a latency-0 edge lets a consumer
issue in the same cycle as its producer — but under default options
every placement edge points from a lower to a higher op index (tree
preorder; see :mod:`repro.schedule.ddg`), so enumerating candidates in
increasing index order visits every op a partial bundle can unlock.
Each candidate is branched on include/exclude, giving every subset of
every reachable ready set exactly once.

**Dominance rules** (each preserves at least one optimal completion):

* *Maximal bundles only.*  A closed bundle that excluded an op which is
  ready and still fits the bundle's free resources is pruned: moving
  that op from its later cycle into this one keeps every constraint
  satisfied (its predecessors are done, successor constraints are
  minimum-delay and only relax) and never lengthens the schedule — the
  classic exchange argument.
* *State dominance.*  After closing a cycle the search state is
  ``(placed set, next cycle, per-op release times)``.  For a given
  placed set, a previously seen state with an earlier next-cycle and
  pointwise ≤ effective release times can replay any completion of the
  current state at the same absolute cycles, so the current state is
  pruned.  States are memoized per placed-set bitmask with a Pareto
  list of ``(next cycle, clamped release tuple)`` frontiers.
* *Lower-bound pruning.*  Before expanding a state, a sound bound on
  the best completion is computed — the max of (a) per-op
  ``release + down − 1`` chains (``down[i]`` = the minimum cycles from
  op *i*'s issue to the end over placement edges) and (b)
  remaining-ops resource floors ``next_cycle − 1 + ceil(remaining /
  cap)`` per resource class.  States that cannot beat the incumbent
  are cut.

**Budget and determinism.**  Every bundle-extension step counts as one
node; exceeding the node budget aborts the search (the caller keeps
the heuristic incumbent and reports ``budget-exceeded``).  The search
touches only ints and fixed iteration orders — no hashing of floats,
no randomness, no wall clock — so equal inputs always visit the same
nodes in the same order and return identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["BnBResult", "branch_and_bound"]


class BnBResult:
    """Outcome of one branch-and-bound run."""

    __slots__ = ("best", "length", "proven", "nodes", "pruned")

    def __init__(self, best: Optional[List[int]], length: int,
                 proven: bool, nodes: int, pruned: int):
        #: Per-op 1-based issue cycles of the best schedule found that
        #: strictly beats the incumbent, or None if none was found.
        self.best = best
        #: Height of the best known schedule (incumbent or improved).
        self.length = length
        #: True when the search space was exhausted within budget, so
        #: ``length`` is the true optimum.
        self.proven = proven
        self.nodes = nodes
        self.pruned = pruned

    def __repr__(self) -> str:
        tag = "proven" if self.proven else "budget-exceeded"
        return (f"<BnBResult len={self.length} {tag} "
                f"nodes={self.nodes} pruned={self.pruned}>")


class _BudgetExhausted(Exception):
    """Internal: the node budget ran out mid-search."""


def branch_and_bound(
    n: int,
    pred_ptr: List[int],
    succ_ptr: List[int],
    succ_dst: List[int],
    succ_lat: List[int],
    is_mem: List[bool],
    is_br: List[bool],
    issue_width: int,
    max_mem: Optional[int],
    max_br: Optional[int],
    incumbent: int,
    node_budget: int,
) -> BnBResult:
    """Search for a schedule strictly shorter than ``incumbent``.

    ``pred_ptr``/``succ_*`` are the DDG's CSR placement
    arrays; every edge must point from a lower to a higher index (true
    for tree-preorder problems without materialized copy ops — the
    caller enforces that restriction).
    """
    if n == 0:
        return BnBResult(None, 0, True, 0, 0)

    # down[i]: minimum cycles from op i's issue to the last issue —
    # op i at cycle c forces height >= c + down[i] - 1.  Edges point
    # low -> high index, so reverse index order is reverse-topological.
    down = [1] * n
    for i in range(n - 1, -1, -1):
        longest = 1
        for e in range(succ_ptr[i], succ_ptr[i + 1]):
            chain = succ_lat[e] + down[succ_dst[e]]
            if chain > longest:
                longest = chain
        down[i] = longest

    release = [1] * n          # earliest issue cycle given placed preds
    waiting = [pred_ptr[i + 1] - pred_ptr[i] for i in range(n)]
    placed = [False] * n
    cycle_of = [0] * n
    banned = [False] * n       # excluded from the bundle being built
    remaining = n
    rem_mem = sum(1 for flag in is_mem if flag)
    rem_br = sum(1 for flag in is_br if flag)

    state = {
        "mask": 0,
        "nodes": 0,
        "pruned": 0,
        "best_length": incumbent,
        "best_cycles": None,
    }
    #: mask -> Pareto frontier of (next_cycle, clamped release tuple).
    seen: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}

    def lower_bound(t_next: int) -> int:
        rem = remaining
        bound = t_next - 1 + -(-rem // issue_width)
        if max_mem is not None and rem_mem:
            floor = t_next - 1 + -(-rem_mem // max_mem)
            if floor > bound:
                bound = floor
        if max_br is not None and rem_br:
            floor = t_next - 1 + -(-rem_br // max_br)
            if floor > bound:
                bound = floor
        for i in range(n):
            if placed[i]:
                continue
            start = release[i]
            if start < t_next:
                start = t_next
            chain = start + down[i] - 1
            if chain > bound:
                bound = chain
        return bound

    def dominated(t_next: int) -> bool:
        key = tuple(
            release[i] if release[i] > t_next else t_next
            for i in range(n) if not placed[i]
        )
        frontier = seen.get(state["mask"])
        if frontier is None:
            seen[state["mask"]] = [(t_next, key)]
            return False
        for t_seen, key_seen in frontier:
            if t_seen <= t_next and all(
                a <= b for a, b in zip(key_seen, key)
            ):
                return True
        frontier[:] = [
            (t_seen, key_seen) for t_seen, key_seen in frontier
            if not (t_next <= t_seen and all(
                a <= b for a, b in zip(key, key_seen)
            ))
        ]
        frontier.append((t_next, key))
        return False

    def close_cycle(t: int, excluded: List[int],
                    used: int, mem_used: int, br_used: int) -> None:
        # Maximality: an excluded op is still ready (bans never remove
        # predecessors) — if it also still fits the bundle's free
        # resources, a strict superset bundle dominates this one.
        if used < issue_width:
            for i in excluded:
                if (max_mem is None or not is_mem[i]
                        or mem_used < max_mem) and (
                        max_br is None or not is_br[i]
                        or br_used < max_br):
                    state["pruned"] += 1
                    return
        if remaining == 0:
            # Complete schedule; the final op issued in this bundle, so
            # the height is t.  Strict improvement only.
            if t < state["best_length"]:
                state["best_length"] = t
                state["best_cycles"] = list(cycle_of)
            return
        # Next decision cycle: skip idle cycles up to the earliest
        # release among frontier ops (all preds placed).
        t_next = 0
        for i in range(n):
            if placed[i] or waiting[i]:
                continue
            r = release[i]
            if t_next == 0 or r < t_next:
                t_next = r
        if t_next <= t:
            t_next = t + 1
        if lower_bound(t_next) >= state["best_length"]:
            state["pruned"] += 1
            return
        if dominated(t_next):
            state["pruned"] += 1
            return
        extend(t_next, 0, [], 0, 0, 0)

    def extend(t: int, start: int, excluded: List[int],
               used: int, mem_used: int, br_used: int) -> None:
        nonlocal remaining, rem_mem, rem_br
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise _BudgetExhausted
        i = start
        while i < n:
            if (not placed[i] and not banned[i] and waiting[i] == 0
                    and release[i] <= t and used < issue_width
                    and (max_mem is None or not is_mem[i]
                         or mem_used < max_mem)
                    and (max_br is None or not is_br[i]
                         or br_used < max_br)):
                break
            i += 1
        if i == n:
            close_cycle(t, excluded, used, mem_used, br_used)
            return

        # Include op i at cycle t.
        placed[i] = True
        state["mask"] |= 1 << i
        cycle_of[i] = t
        remaining -= 1
        if is_mem[i]:
            rem_mem -= 1
        if is_br[i]:
            rem_br -= 1
        saved: List[Tuple[int, int]] = []
        for e in range(succ_ptr[i], succ_ptr[i + 1]):
            dst = succ_dst[e]
            waiting[dst] -= 1
            after = t + succ_lat[e]
            if after > release[dst]:
                saved.append((dst, release[dst]))
                release[dst] = after
        extend(t, i + 1, excluded,
               used + 1,
               mem_used + (1 if is_mem[i] else 0),
               br_used + (1 if is_br[i] else 0))
        for dst, old in saved:
            release[dst] = old
        for e in range(succ_ptr[i], succ_ptr[i + 1]):
            waiting[succ_dst[e]] += 1
        if is_br[i]:
            rem_br += 1
        if is_mem[i]:
            rem_mem += 1
        remaining += 1
        state["mask"] &= ~(1 << i)
        cycle_of[i] = 0
        placed[i] = False

        # Exclude op i from this cycle's bundle.
        banned[i] = True
        excluded.append(i)
        extend(t, i + 1, excluded, used, mem_used, br_used)
        excluded.pop()
        banned[i] = False

    proven = True
    try:
        if lower_bound(1) < incumbent:
            extend(1, 0, [], 0, 0, 0)
    except _BudgetExhausted:
        proven = False
    except RecursionError:
        # Pathologically deep regions (thousands of ops): treat like an
        # exhausted budget rather than crashing the pipeline.
        proven = False

    return BnBResult(
        best=state["best_cycles"],
        length=state["best_length"],
        proven=proven,
        nodes=state["nodes"],
        pruned=state["pruned"],
    )
