"""Hyperblock scheduling: full if-conversion (predication, no speculation).

The first two scheduler stages for
:class:`~repro.regions.hyperblock.Hyperblock` regions
(:func:`~repro.schedule.scheduler.prepare` and
:func:`~repro.schedule.scheduler.dependences` dispatch here),
implementing the comparison the paper plans in Section 6 ("the merits of predication versus
speculation for scheduling"):

* every op of a non-root block is **predicated** on its block guard and
  therefore cannot issue before the guard chain resolves — the exact
  opposite of the treegion scheduler, whose non-store ops speculate
  freely and repair conflicts by renaming;
* merge points stay inside the region; a join's guard is the ``POR`` of
  its incoming edge predicates;
* no renaming is needed: conflicting definitions on disjoint-guard paths
  are squashed by predication, and the DAG dependence walk gives a use at
  a join flow edges from *all* reaching definitions.

The pieces reused unchanged: the generic prep logic for edge predicates
and exit branches (subclassed), the priority heuristics (the
:class:`Hyperblock` region exposes DAG-reachability exit counts), and the
placement-order list scheduler.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.cfg import BasicBlock, Edge
from repro.ir.liveness import LivenessInfo
from repro.ir.operation import Operation
from repro.ir.registers import Register
from repro.ir.types import Opcode
from repro.machine.model import MachineModel
from repro.regions.hyperblock import Hyperblock
from repro.schedule.ddg import BRANCH_GUARDS, DDG, exit_live_sets
from repro.schedule.prep import ScheduleProblem, _Prep


class _HyperblockPrep(_Prep):
    """Prep with DAG visit order, OR-merged guards, and full predication."""

    def _visit_order(self) -> List[BasicBlock]:
        return self.region.topological_order()  # type: ignore[attr-defined]

    def _op_guard(self, op: Operation, guard, block):
        # Full if-conversion: everything executes under its block guard,
        # AND-combined with any guard the op already carried.
        if op.guard is not None:
            return self._merge_op_guard(op.guard, guard, block)
        return guard

    @property
    def _incoming(self) -> Dict[int, List]:
        return self.__dict__.setdefault("_incoming_preds", {})

    def _record_child_guard(self, edge: Edge) -> None:
        self._incoming.setdefault(edge.dst.bid, []).append(
            (edge, self._edge_predicate(edge))
        )

    def _prep_block(self, block: BasicBlock) -> None:
        if block is not self.region.root:
            self._resolve_guard(block)
        super()._prep_block(block)

    def _resolve_guard(self, block: BasicBlock) -> None:
        """Merge the incoming edge predicates into the block's guard."""
        arriving = self._incoming.get(block.bid, [])
        predicates = [pred for _edge, pred in arriving]
        if not predicates or any(pred is None for pred in predicates):
            # An unconditional/always-true way in: the block always runs.
            self.problem.guards[block.bid] = None
            return
        if len(predicates) == 1:
            self.problem.guards[block.bid] = predicates[0]
            return
        merged = self.problem.regs.fresh_pred()
        op = Operation(0, Opcode.POR, dests=[merged], srcs=list(predicates))
        self._emit_synth(op, block, merged)
        self.problem.guards[block.bid] = merged


def prepare_hyperblock(
    region: Hyperblock,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> ScheduleProblem:
    """Build the if-converted scheduling problem for a hyperblock."""
    return _HyperblockPrep(region, machine, liveness).run()


# ----------------------------------------------------------------------
# DAG dependence graph

#: A join's ``POR`` guard is branch-role too.
_DAG_BRANCH_GUARDS = BRANCH_GUARDS | {Opcode.POR}


class _DagState:
    """Dependence state at one program point of the DAG walk.

    Unlike the tree walk, definitions/uses/stores are *sets*: a join sees
    everything reaching it along any path, and a consumer depends on all
    of them (only the taken path's producer commits, but the schedule must
    order after every potential one).
    """

    __slots__ = ("defs", "uses", "stores", "loads", "sides")

    def __init__(self):
        self.defs: Dict[Register, FrozenSet[int]] = {}
        self.uses: Dict[Register, FrozenSet[int]] = {}
        self.stores: FrozenSet[int] = frozenset()
        self.loads: FrozenSet[int] = frozenset()
        self.sides: FrozenSet[int] = frozenset()

    @staticmethod
    def merge(states: List["_DagState"]) -> "_DagState":
        merged = _DagState()
        for state in states:
            for reg, defs in state.defs.items():
                merged.defs[reg] = merged.defs.get(reg, frozenset()) | defs
            for reg, uses in state.uses.items():
                merged.uses[reg] = merged.uses.get(reg, frozenset()) | uses
            merged.stores |= state.stores
            merged.loads |= state.loads
            merged.sides |= state.sides
        return merged


def build_hyperblock_ddg(
    problem: ScheduleProblem,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> DDG:
    """DDG over an if-converted hyperblock (all-paths dependences).

    Built like the tree DDG, walking blocks in topological order.  A
    branch-role op controls every op in the blocks reachable below its
    own (the DAG analogue of the tree's subtree), and a join's ``POR``
    guard counts as branch-role too.
    """
    region: Hyperblock = problem.region  # type: ignore[assignment]
    ddg = DDG(problem, machine)
    by_block = problem.by_block

    live_cache = (exit_live_sets(problem, liveness, None)
                  if liveness is not None else None)

    blocks = region.topological_order()
    above: Dict[int, Tuple[int, ...]] = {}
    below_ops: Dict[int, int] = {}
    out_states: Dict[int, _DagState] = {}
    for block in blocks:
        preds = region.dag_preds(block)
        above[block.bid] = tuple(p.bid for p in preds)
        below_ops[block.bid] = sum(
            len(by_block[reached.bid])
            for reached in region.reachable_from(block)
            if reached is not block)
        if preds:
            state = _DagState.merge([out_states[p.bid] for p in preds])
        else:
            state = _DagState()
        for sop in by_block[block.bid]:
            _add_dag_edges(ddg, problem.sched_ops, sop, state, live_cache)
        out_states[block.bid] = state

    ddg.close(problem, blocks, above, below_ops, _DAG_BRANCH_GUARDS)
    return ddg


def _add_dag_edges(ddg: DDG, ops, sop, state: _DagState,
                   live_cache) -> None:
    i = sop.index
    op = sop.op
    latency = ddg.latency
    edges: List[Tuple[int, int]] = []

    for reg in op.used_registers():
        for producer in state.defs.get(reg, ()):
            edges.append((producer, latency[producer]))
        state.uses[reg] = state.uses.get(reg, frozenset()) | {i}

    for reg in op.defined_registers():
        for previous in state.defs.get(reg, ()):
            edges.append(
                (previous, max(1, latency[previous] - latency[i] + 1)))
        for user in state.uses.get(reg, ()):
            if user != i:
                edges.append((user, 0))
        state.defs[reg] = frozenset({i})
        state.uses[reg] = frozenset()

    if op.opcode is Opcode.LD:
        for store in state.stores:
            edges.append(
                (store, 0 if ops[store].op.opcode is Opcode.ST else 1))
        state.loads |= {i}
    elif op.opcode is Opcode.ST or op.opcode is Opcode.CALL:
        for store in state.stores:
            edges.append((store, 1))
        for load in state.loads:
            edges.append((load, 1))
        state.stores = frozenset({i})
        state.loads = frozenset()
        state.sides |= {i}

    if sop.exit is not None:
        for side in state.sides:
            edges.append((side, 0))
        if live_cache is None:
            for defs in state.defs.values():
                for producer in defs:
                    edges.append((producer, 0))
        else:
            for reg in live_cache[id(sop.exit)]:  # pre-sorted
                for producer in state.defs.get(reg, ()):
                    edges.append((producer, 0))

    ddg.add_preds(i, edges)
