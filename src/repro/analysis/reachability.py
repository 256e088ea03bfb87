"""Reachability under constant-branch pruning.

A sparse conditional-constant skeleton sized to this IR: a register is
*known constant* when it has exactly one def in the whole function, that
def is unguarded, its defining op is a ``MOV`` of an immediate or a
``CMPP`` over constant operands, and the def site dominates the use
being asked about (single assignment alone does not imply the def
executes before the use — the synthetic workloads reuse registers
across sibling arms, so the dominance check is what keeps this sound).

Branches whose outcome is decided by a known constant (``BRCT``/``BRCF``
on a constant predicate, ``SWITCH`` on a constant selector) have their
untaken out-edges marked *dead*; every other edge is *executable*.  One
breadth-first search from the entry over the executable edges then
marks the reachable blocks.  A block it never reaches is unreachable —
either structurally (no path at all) or because every path in runs
through the dead arm of a constant branch.

Consumers: ``ir.const-branch`` (each decided branch),
``ir.unreachable-block`` (each unreached block), and the analyses that
skip what never executes: ``ir.dead-store`` (:mod:`.liveranges`) and
``ir.uninit-use`` (:mod:`.reaching`, which also follows only the
executable edges).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.ir.cfg import CFG, BasicBlock, Edge
from repro.ir.operation import Operation
from repro.ir.registers import Register
from repro.ir.types import EdgeKind, Immediate, Opcode


class ConstBranch(NamedTuple):
    """One branch whose outcome is statically decided."""

    block: BasicBlock
    op: Operation
    #: Human description of the decision, e.g. ``"always taken"`` or
    #: ``"always selects case 3"``.
    decision: str
    #: The out-edges the decision makes dead.
    dead_edges: Tuple[Edge, ...]


class Reachability:
    """Const-aware reachability facts for one CFG."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self._single_defs = self._collect_single_defs(cfg)
        self._const_memo: Dict[Register, Optional[object]] = {}
        self.const_branches: List[ConstBranch] = []
        self._dead: Set[int] = set()
        for block in cfg.blocks():
            decided = self._decide_branch(block)
            if decided is None:
                continue
            self.const_branches.append(decided)
            self._dead.update(id(edge) for edge in decided.dead_edges)

        self._reached: Set[int] = set()
        if cfg.entry is not None:
            self._reached.add(cfg.entry.bid)
            queue = deque((cfg.entry,))
            while queue:
                for edge in self.executable_edges(queue.popleft()):
                    if edge.dst.bid not in self._reached:
                        self._reached.add(edge.dst.bid)
                        queue.append(edge.dst)

    # ------------------------------------------------------------------

    def executable_edges(self, block: BasicBlock) -> Iterator[Edge]:
        """The block's out-edges, in order, less the dead ones."""
        dead = self._dead
        return (edge for edge in block.out_edges if id(edge) not in dead)

    def is_reachable(self, block: BasicBlock) -> bool:
        return block.bid in self._reached

    def unreachable_blocks(self) -> List[BasicBlock]:
        """Blocks no executable path reaches, in bid order."""
        return [block for block in self.cfg.blocks()
                if block.bid not in self._reached]

    # ------------------------------------------------------------------
    # Constant environment

    @staticmethod
    def _collect_single_defs(cfg: CFG):
        """reg -> (block, position, op) for single-unguarded-def regs."""
        defs: Dict[Register, List[Tuple[BasicBlock, int, Operation]]] = {}
        guarded: Set[Register] = set()
        for block in cfg.blocks():
            for position, op in enumerate(block.ops):
                for reg in op.dests:
                    if op.guard is not None:
                        guarded.add(reg)
                    defs.setdefault(reg, []).append((block, position, op))
        return {
            reg: sites[0]
            for reg, sites in defs.items()
            if len(sites) == 1 and reg not in guarded
        }

    def _dominates_site(self, def_block: BasicBlock, def_pos: int,
                        use_block: BasicBlock, use_pos: int) -> bool:
        if def_block is use_block:
            return def_pos < use_pos
        from repro.ir.analysis_cache import dominators_of

        return dominators_of(self.cfg).strictly_dominates(
            def_block, use_block
        )

    def _const_operand(self, operand, use_block: BasicBlock,
                       use_pos: int):
        """The constant value of an operand at a use site, or None."""
        if isinstance(operand, Immediate):
            return operand.value
        if not isinstance(operand, Register):
            return None
        return self._const_register(operand, use_block, use_pos)

    def _const_register(self, reg: Register, use_block: BasicBlock,
                        use_pos: int):
        site = self._single_defs.get(reg)
        if site is None:
            return None
        def_block, def_pos, op = site
        if not self._dominates_site(def_block, def_pos, use_block, use_pos):
            return None
        if reg in self._const_memo:
            return self._const_memo[reg]
        # Pre-seed against self-reference (r = add r, 1 is never const).
        self._const_memo[reg] = None
        value = None
        if op.opcode is Opcode.MOV and len(op.srcs) == 1:
            value = self._const_operand(op.srcs[0], def_block, def_pos)
        elif op.opcode is Opcode.CMPP and op.cond is not None \
                and len(op.srcs) == 2 and len(op.dests) == 1:
            lhs = self._const_operand(op.srcs[0], def_block, def_pos)
            rhs = self._const_operand(op.srcs[1], def_block, def_pos)
            if lhs is not None and rhs is not None:
                value = op.cond.evaluate(lhs, rhs)
        self._const_memo[reg] = value
        return value

    # ------------------------------------------------------------------
    # Branch decisions

    def _decide_branch(self, block: BasicBlock) -> Optional[ConstBranch]:
        term = block.terminator
        if term is None or term.guard is not None:
            return None
        position = len(block.ops) - 1
        if term.opcode in (Opcode.BRCT, Opcode.BRCF):
            if not term.srcs or not isinstance(term.srcs[0], Register):
                return None
            value = self._const_register(term.srcs[0], block, position)
            if value is None:
                return None
            taken = bool(value) if term.opcode is Opcode.BRCT \
                else not bool(value)
            dead = block.fallthrough_edge if taken else block.taken_edge
            if dead is None:
                return None
            return ConstBranch(
                block, term,
                "always taken" if taken else "never taken",
                (dead,),
            )
        if term.opcode is Opcode.SWITCH:
            if not term.srcs:
                return None
            value = self._const_operand(term.srcs[0], block, position)
            if value is None:
                return None
            dead: List[Edge] = []
            matched = False
            for edge in block.out_edges:
                if edge.kind is EdgeKind.CASE:
                    if edge.case_value == value:
                        matched = True
                    else:
                        dead.append(edge)
            if matched:
                dead.extend(
                    edge for edge in block.out_edges
                    if edge.kind is EdgeKind.DEFAULT
                )
                decision = f"always selects case {value}"
            else:
                decision = "always selects the default case"
            if not dead:
                return None
            return ConstBranch(block, term, decision, tuple(dead))
        return None
