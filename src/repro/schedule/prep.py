"""Region preparation: predication, exit branches, and PBR insertion.

The list scheduler flattens a whole tree of blocks into one MultiOp stream,
so control flow inside the region is converted to *predicates* and exits
become explicitly *predicated branches*, exactly as in the paper's Figure 5
schedule:

* every non-root block ``B`` gets a **guard predicate** ``g(B)`` meaning
  "control reaches B":  for conditional parents this comes from a two-
  destination guarded ``CMPP`` (Playdoh style — the original compare is
  folded into it when it has no other uses); for switch parents from one
  ``CMPP.eq`` per case and one ``NINSET`` for the default; for
  unconditional edges the guard is inherited;
* every **region exit** becomes one predicated branch op (``BRCT`` on the
  exit's path predicate, plain ``BRU`` for an unguarded exit); ``RET``
  exits keep their ``RET`` op, guarded.  Internal branches disappear —
  within the flattened schedule control "flows" through predicates;
* when the machine uses branch-target registers, each branch gets a
  ``PBR`` op and reads the resulting BTR (one PBR per branch, as in the
  paper's figures — even two exits to the same target use two BTRs);
* ops that may not execute speculatively (stores, calls) are guarded with
  their block's predicate; everything else is left bare and free to
  speculate, with renaming (:mod:`repro.schedule.renaming`) repairing any
  live-out violations.

Nothing here mutates the program: every op entering the problem is cloned
into a :class:`~repro.schedule.schedule.SchedOp`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.util.errors import SchedulingError
from repro.ir.analysis_cache import register_bounds_of
from repro.ir.cfg import BasicBlock, Edge
from repro.ir.liveness import LivenessInfo
from repro.ir.operation import Operation
from repro.ir.registers import Register, RegisterFactory
from repro.ir.types import CompareCond, EdgeKind, Opcode
from repro.machine.model import MachineModel
from repro.regions.region import Region, RegionExit
from repro.schedule.schedule import SchedOp


class ScheduleProblem:
    """Everything the DDG builder and list scheduler need for one region."""

    def __init__(self, region: Region, machine: MachineModel):
        self.region = region
        self.machine = machine
        #: All schedulable ops, dense indices.
        self.sched_ops: List[SchedOp] = []
        #: Per block (bid): SchedOps in intra-block program order.
        self.by_block: Dict[int, List[SchedOp]] = {b.bid: [] for b in region}
        #: Guard predicate per block (None for the root).
        self.guards: Dict[int, Optional[Register]] = {}
        #: The region's exits, captured once (identity matters downstream).
        self.exits: List[RegionExit] = []
        #: exit -> the SchedOp that retires it.
        self.exit_ops: Dict[int, SchedOp] = {}
        #: Private register namespace (reserved against the whole CFG).
        self.regs = RegisterFactory()
        #: Guard register -> the SchedOp that defines it (filled as prep
        #: synthesizes guard predicates).
        self.guard_def: Dict[Register, SchedOp] = {}
        #: (op index, index of the op defining its home block's guard)
        #: for every original non-exit op in a guarded block: the op is
        #: speculated when it issues no later than that definition.
        self.speculation_pairs: List[Tuple[int, int]] = []
        #: Guard ANDs prep synthesized and names renaming minted (the
        #: ``prep.pand_merges``/``rename.registers_minted`` counters).
        self.pand_merges = 0
        self.registers_minted = 0

    # ------------------------------------------------------------------

    def new_sched_op(
        self,
        op: Operation,
        home: BasicBlock,
        exit: Optional[RegionExit] = None,
        source: Optional[Operation] = None,
    ) -> SchedOp:
        sop = SchedOp(len(self.sched_ops), op, home, exit=exit, source=source)
        self.sched_ops.append(sop)
        self.by_block[home.bid].append(sop)
        return sop

    def exit_op_for(self, exit: RegionExit) -> SchedOp:
        return self.exit_ops[id(exit)]

    def guard_of(self, block: BasicBlock) -> Optional[Register]:
        return self.guards[block.bid]


def _reserve_all_registers(problem: ScheduleProblem) -> None:
    cfg = problem.region.root.cfg
    if cfg is not None:
        # Function-wide register bounds are cached per CFG version: one
        # scan per function instead of one per region (this walk was the
        # dominant cost of preparing small regions).
        problem.regs.reserve_bounds(register_bounds_of(cfg))
        return
    for block in problem.region.blocks:
        for op in block.ops:
            for reg in op.defined_registers():
                problem.regs.reserve(reg)
            for reg in op.used_registers():
                problem.regs.reserve(reg)


def _register_reads(region: Region) -> Counter:
    """How many operands (sources and guards) of the region's ops read
    each register."""
    reads: List[Register] = []
    for block in region:
        for op in block.ops:
            for src in op.srcs:
                if isinstance(src, Register):
                    reads.append(src)
            if op.guard is not None:
                reads.append(op.guard)
    return Counter(reads)


def _find_defining_cmpp(block: BasicBlock, pred: Register, before: Operation):
    """The last CMPP writing ``pred`` earlier in ``block``, or None."""
    found = None
    for op in block.ops:
        if op is before:
            break
        if op.opcode is Opcode.CMPP and pred in op.dests:
            found = op
    return found


class _Prep:
    def __init__(self, region: Region, machine: MachineModel,
                 liveness: Optional[LivenessInfo]):
        self.problem = ScheduleProblem(region, machine)
        self.region = region
        self.machine = machine
        self.liveness = liveness
        #: Register -> operands reading it in the region, and the bits
        #: live into any exit; both built on the first foldable branch.
        self._reads: Optional[Counter] = None
        self._exits_live: Optional[int] = None
        _reserve_all_registers(self.problem)

    # ------------------------------------------------------------------

    def run(self) -> ScheduleProblem:
        problem = self.problem
        problem.exits = self.region.exits()
        self._exits_by_block: Dict[int, List[RegionExit]] = {}
        for exit in problem.exits:
            self._exits_by_block.setdefault(exit.source.bid, []).append(exit)

        problem.guards[self.region.root.bid] = None
        for block in self._visit_order():
            self._prep_block(block)
        guards, guard_def = problem.guards, problem.guard_def
        for sop in problem.sched_ops:
            if sop.source is None or sop.exit is not None:
                continue  # synthesized and exit ops never count
            definer = guard_def.get(guards.get(sop.home.bid))
            if definer is not None:  # the root has no guard
                problem.speculation_pairs.append((sop.index, definer.index))
        return problem

    def _visit_order(self) -> List[BasicBlock]:
        """Blocks in an order where guards are known before use.

        Tree preorder for tree regions; the hyperblock subclass overrides
        this with a DAG topological order.
        """
        order: List[BasicBlock] = []
        stack = [self.region.root]
        while stack:
            block = stack.pop()
            order.append(block)
            stack.extend(reversed(self.region.children(block)))
        return order

    # ------------------------------------------------------------------

    def _prep_block(self, block: BasicBlock) -> None:
        guard = self.problem.guard_of(block)
        term = block.terminator

        # 1. Body ops (everything except the terminator).
        body = block.ops[:-1] if term is not None else list(block.ops)
        dropped_cmpp = self._plan_branch_predicates(block, term, guard)
        for op in body:
            if op is dropped_cmpp:
                continue
            clone = op.clone(op.uid)
            clone.guard = self._op_guard(op, guard, block)
            self.problem.new_sched_op(clone, block, source=op)

        # 2. Edge predicates (guard CMPPs / switch case predicates).
        self._emit_edge_predicates(block, term, guard)

        # 3. Exit ops: RET keeps its op; every exit edge gets a branch.
        for exit in self._exits_by_block.get(block.bid, []):
            if exit.is_return:
                assert term is not None and term.opcode is Opcode.RET
                clone = term.clone(term.uid)
                clone.guard = guard
                sop = self.problem.new_sched_op(clone, block, exit=exit, source=term)
                self.problem.exit_ops[id(exit)] = sop
            else:
                self._emit_exit_branch(block, exit)

        # 4. Guards for in-region children.
        for edge in block.out_edges:
            if edge.dst in self.region and edge.dst is not self.region.root:
                self._record_child_guard(edge)

    def _op_guard(self, op: Operation, guard, block: BasicBlock):
        """The execution guard a body op receives.

        Tree regions speculate freely: only side-effecting ops keep their
        block guard.  The hyperblock subclass predicates everything.

        An op that arrives already predicated keeps its own guard — a
        guarded op is a *conditional* update, so stripping the guard (or
        replacing it with the block guard) would execute it on paths where
        the original program squashed it.  When the block guard also
        exists, the two are AND-combined.
        """
        if op.guard is not None:
            return self._merge_op_guard(op.guard, guard, block)
        return guard if not op.can_speculate else None

    def _merge_op_guard(self, op_guard: Register,
                        guard: Optional[Register],
                        block: BasicBlock) -> Register:
        """Combine a pre-existing op guard with the block guard.

        Emitted *before* the guarded op's clone, so stream order (and the
        flow edges the DDG derives from it) keeps the PAND between the
        guard's definition and its use.
        """
        if guard is None:
            return op_guard
        dest = self.problem.regs.fresh_pred()
        self.problem.pand_merges += 1
        self._emit_synth(
            Operation(0, Opcode.PAND, dests=[dest], srcs=[op_guard, guard]),
            block, dest,
        )
        return dest

    def _record_child_guard(self, edge: Edge) -> None:
        """Bind an internal edge's predicate to its destination's guard.

        In a tree each member has one incoming edge, so the predicate *is*
        the guard; hyperblocks accumulate several and OR them at visit
        time.
        """
        self.problem.guards[edge.dst.bid] = self._edge_predicate(edge)

    # ------------------------------------------------------------------
    # Edge predicates

    def _plan_branch_predicates(self, block, term, guard):
        """Decide how this block's outgoing condition becomes predicates.

        Returns the original CMPP to fold away (drop), if any.  Fills
        ``self._edge_preds`` lazily per block in ``_emit_edge_predicates``.
        """
        self._pending: Dict[int, Register] = {}  # edge-key -> predicate
        self._branch_plan = None
        if term is None or term.opcode in (Opcode.RET, Opcode.BRU):
            return None
        if term.opcode is Opcode.SWITCH:
            self._branch_plan = ("switch", term)
            return None
        # Conditional branch: locate the compare computing its predicate.
        pred = term.srcs[0]
        if not isinstance(pred, Register):
            raise SchedulingError(f"branch in bb{block.bid} lacks a predicate")
        cmpp = _find_defining_cmpp(block, pred, term)
        if cmpp is not None and cmpp.guard is None and len(cmpp.dests) <= 2:
            position = cmpp.dests.index(pred)
            cond = cmpp.cond if position == 0 else cmpp.cond.negate()
            if term.opcode is Opcode.BRCF:
                cond = cond.negate()
            keep_original = (self._predicate_uses_elsewhere(pred, term, cmpp)
                             or self._pred_live_out(pred))
            self._branch_plan = ("cmpp", term, cmpp, cond, keep_original)
            return None if keep_original else cmpp
        self._branch_plan = ("pand", term, pred)
        return None

    def _predicate_uses_elsewhere(self, pred: Register, branch: Operation,
                                  cmpp: Operation) -> bool:
        """Does ``pred`` have readers besides ``branch`` and ``cmpp``
        inside the region?"""
        if self._reads is None:
            self._reads = _register_reads(self.region)
        own = (branch.used_registers().count(pred)
               + cmpp.used_registers().count(pred))
        return self._reads[pred] > own

    def _pred_live_out(self, pred: Register) -> bool:
        if self.liveness is None:
            return False
        if self._exits_live is None:
            self._exits_live = self.liveness.live_into_edges(
                exit.edge for exit in self.problem.exits
                if exit.edge is not None)
        return bool(self._exits_live & self.liveness.bit(pred))

    def _emit_edge_predicates(self, block, term, guard) -> None:
        """Emit the ops computing this block's outgoing edge predicates."""
        plan = self._branch_plan
        if plan is None:
            # Unconditional flow: edges inherit the block guard.
            for edge in block.out_edges:
                self._pending[id(edge)] = guard
            return

        if plan[0] == "switch":
            switch = plan[1]
            selector = switch.srcs[0]
            case_values = [e.case_value for e in block.case_edges()]
            for edge in block.out_edges:
                if edge.kind is EdgeKind.CASE:
                    dest = self.problem.regs.fresh_pred()
                    op = Operation(
                        0, Opcode.CMPP, dests=[dest],
                        srcs=[selector, _imm(edge.case_value)],
                        cond=CompareCond.EQ, guard=guard,
                    )
                    self._emit_synth(op, block, dest)
                    self._pending[id(edge)] = dest
                else:  # DEFAULT
                    dest = self.problem.regs.fresh_pred()
                    op = Operation(
                        0, Opcode.NINSET, dests=[dest],
                        srcs=[selector] + [_imm(v) for v in case_values],
                        guard=guard,
                    )
                    self._emit_synth(op, block, dest)
                    self._pending[id(edge)] = dest
            return

        taken_edge = block.taken_edge
        fall_edge = block.fallthrough_edge
        if plan[0] == "cmpp":
            _, term_op, cmpp, cond, keep_original = plan
            p_taken = self.problem.regs.fresh_pred()
            p_fall = self.problem.regs.fresh_pred()
            op = Operation(
                0, Opcode.CMPP, dests=[p_taken, p_fall],
                srcs=list(cmpp.srcs), cond=cond, guard=guard,
            )
            self._emit_synth(op, block, p_taken, p_fall)
        else:  # "pand": predicate defined outside this block
            _, term_op, pred = plan
            p_taken = self.problem.regs.fresh_pred()
            p_fall = self.problem.regs.fresh_pred()
            taken_opcode = (
                Opcode.PAND if term_op.opcode is Opcode.BRCT else Opcode.PANDCN
            )
            fall_opcode = (
                Opcode.PANDCN if term_op.opcode is Opcode.BRCT else Opcode.PAND
            )
            srcs = [pred] if guard is None else [pred, guard]
            self._emit_synth(
                Operation(0, taken_opcode, dests=[p_taken], srcs=list(srcs)),
                block, p_taken,
            )
            self._emit_synth(
                Operation(0, fall_opcode, dests=[p_fall], srcs=list(srcs)),
                block, p_fall,
            )
        if taken_edge is not None:
            self._pending[id(taken_edge)] = p_taken
        if fall_edge is not None:
            self._pending[id(fall_edge)] = p_fall

    def _emit_synth(self, op: Operation, block: BasicBlock, *guard_dests) -> SchedOp:
        op.uid = -(len(self.problem.sched_ops) + 1)  # synthetic uid space
        sop = self.problem.new_sched_op(op, block, source=None)
        for dest in guard_dests:
            self.problem.guard_def[dest] = sop
        return sop

    def _edge_predicate(self, edge: Edge) -> Optional[Register]:
        return self._pending.get(id(edge))

    # ------------------------------------------------------------------
    # Exit branches

    def _emit_exit_branch(self, block: BasicBlock, exit: RegionExit) -> None:
        pred = self._pending.get(id(exit.edge))
        target_bid = exit.edge.dst.bid
        if pred is None:
            branch = Operation(0, Opcode.BRU, target=target_bid)
        else:
            branch = Operation(0, Opcode.BRCT, srcs=[pred], target=target_bid)
        branch.uid = -(len(self.problem.sched_ops) + 1)
        if self.machine.use_btr:
            btr = self.problem.regs.fresh_btr()
            pbr = Operation(
                -(len(self.problem.sched_ops) + 1), Opcode.PBR,
                dests=[btr], target=target_bid,
            )
            self.problem.new_sched_op(pbr, block, source=None)
            branch.srcs = list(branch.srcs) + [btr]
            branch.uid = -(len(self.problem.sched_ops) + 1)
        sop = self.problem.new_sched_op(branch, block, exit=exit, source=None)
        self.problem.exit_ops[id(exit)] = sop


def _imm(value):
    from repro.ir.types import Immediate

    return Immediate(value)


def prepare_region(
    region: Region,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> ScheduleProblem:
    """Build the scheduling problem for one region (IR left untouched)."""
    return _Prep(region, machine, liveness).run()
