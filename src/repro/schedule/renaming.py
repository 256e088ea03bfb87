"""Compile-time register renaming (Section 3).

"Because the DDG may contain instructions from separate paths, the list
scheduler may place instructions from multiple paths into the same cycle
[...] If they do conflict, compile-time register renaming is used.  [...]
Speculating an instruction above a branch may cause incorrect execution if
the instruction defines data that is used on another exit from the branch.
The treegion scheduler uses register renaming to prevent such live-out
violations."

A definition of ``r`` in a non-root block ``C`` is renamed when either

* some block *unrelated* to ``C`` in the region tree (neither ancestor nor
  descendant — i.e. on a divergent path) also defines or uses ``r``, or
* ``r`` is live into some region exit that does not lie in ``C``'s subtree
  (so a speculated ``C`` def could clobber the value that exit needs).

This reproduces the paper's examples exactly: ``r4``/``r5`` defined on both
arms of Figure 1 get per-path names (the shaded ``r4a``/``r5a`` of
Figure 5), while ``r6 = 5`` — dead on every foreign exit — keeps its name
and runs unconditionally.

Uses are rewritten along each tree path with a scoped map; at every exit
where a renamed value is live under its original name a **copy op** is
recorded.  Copies are bookkeeping, not schedule material — the paper states
"Copy Ops added due to renaming were not used in computing speedup" — but
the simulator applies them at region exits so execution stays correct, and
an ablation option can schedule them for real.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.cfg import BasicBlock
from repro.ir.liveness import LivenessInfo
from repro.ir.registers import INDEX_BITS, RANKS, Register
from repro.ir.types import Opcode, RegClass
from repro.regions.region import RegionExit
from repro.schedule.prep import ScheduleProblem

#: Opcodes that still define their dests when squashed (the simulator
#: clears them to keep guard chains well-defined).  Every other guarded
#: op is a *partial* definition: on squash the previous value survives.
_DEFINES_WHEN_SQUASHED = frozenset({
    Opcode.CMPP, Opcode.NINSET, Opcode.PAND, Opcode.PANDCN, Opcode.POR,
})

_BTR_RANK = RANKS[RegClass.BTR]

#: (exit, original register, renamed register) — "copy original <- renamed
#: when leaving through this exit".
ExitCopy = Tuple[RegionExit, Register, Register]


class _ConflictAnalysis:
    """Which (register, defining block) pairs need fresh names."""

    def __init__(self, problem: ScheduleProblem, liveness: LivenessInfo):
        self.problem = problem
        self.region = problem.region
        self.liveness = liveness
        self.def_blocks: Dict[Register, Set[int]] = {}
        self.use_blocks: Dict[Register, Set[int]] = {}
        #: Per block (bid): the live-in bits of every exit outside its
        #: subtree, built on the block's first def.
        self._foreign_live: Dict[int, int] = {}
        self._collect()

    def _collect(self) -> None:
        for sop in self.problem.sched_ops:
            bid = sop.home.bid
            for reg in sop.op.defined_registers():
                self.def_blocks.setdefault(reg, set()).add(bid)
            for reg in sop.op.used_registers():
                self.use_blocks.setdefault(reg, set()).add(bid)

    def _unrelated(self, a: BasicBlock, b: BasicBlock) -> bool:
        return not (self.region.dominates(a, b) or self.region.dominates(b, a))

    def needs_rename(self, reg: Register, block: BasicBlock) -> bool:
        """Should a def of ``reg`` in ``block`` get a fresh name?"""
        if block is self.region.root:
            return False
        if reg >> INDEX_BITS == _BTR_RANK:
            return False  # BTRs are minted fresh per branch already
        cfg = self.region.root.cfg
        touching = self.def_blocks.get(reg, set()) | self.use_blocks.get(reg, set())
        for bid in touching:
            other = cfg.block(bid)
            if other is not block and self._unrelated(block, other):
                return True
        foreign_live = self._foreign_live.get(block.bid)
        if foreign_live is None:
            foreign_live = self._foreign_live[block.bid] = \
                self._live_outside_subtree(block)
        return bool(foreign_live & self.liveness.bit(reg))

    def _live_outside_subtree(self, block: BasicBlock) -> int:
        """The live-in bits of the exits whose source is not in
        ``block``'s subtree."""
        subtree_ids = {b.bid for b in self.region.subtree(block)}
        return self.liveness.live_into_edges(
            exit.edge for exit in self.problem.exits
            if exit.edge is not None and exit.source.bid not in subtree_ids)


def rename_region(problem: ScheduleProblem, liveness: LivenessInfo) -> List[ExitCopy]:
    """Apply per-path renaming to the problem's SchedOps in place.

    Returns the exit copies required to restore original names when
    control leaves the region.
    """
    analysis = _ConflictAnalysis(problem, liveness)
    region = problem.region
    copies: List[ExitCopy] = []

    exits_by_block: Dict[int, List[RegionExit]] = {}
    for exit in problem.exits:
        exits_by_block.setdefault(exit.source.bid, []).append(exit)
    # Only a register the region defines can carry a rename into an exit.
    defined = liveness.mask(analysis.def_blocks.keys())

    # DFS with a scoped rename map (original name -> current name).
    stack: List[Tuple[BasicBlock, Dict[Register, Register]]] = [
        (region.root, {})
    ]
    while stack:
        block, renames = stack.pop()
        for sop in problem.by_block[block.bid]:
            op = sop.op
            for i, src in enumerate(op.srcs):
                if isinstance(src, Register) and src in renames:
                    op.srcs[i] = renames[src]
            if op.guard is not None and op.guard in renames:
                op.guard = renames[op.guard]
            partial = (op.guard is not None
                       and op.opcode not in _DEFINES_WHEN_SQUASHED)
            for i, dest in enumerate(op.dests):
                if partial:
                    # A guarded op that squashes without writing is a
                    # partial def: minting a fresh name would leave it
                    # unwritten on squash and the exit copy would then
                    # publish garbage.  Update the currently active name
                    # instead — the guard already implies the block
                    # executes, so no foreign exit can observe the write.
                    current = renames.get(dest)
                    if current is not None:
                        op.dests[i] = current
                    continue
                if analysis.needs_rename(dest, block):
                    fresh = problem.regs.fresh(dest.rclass)
                    problem.registers_minted += 1
                    renames[dest] = fresh
                    op.dests[i] = fresh
                else:
                    renames.pop(dest, None)

        for exit in exits_by_block.get(block.bid, []):
            if exit.edge is None:
                continue  # RET srcs were rewritten in place
            for reg in liveness.live_into_edge_masked(exit.edge, defined):
                current = renames.get(reg)
                if current is not None and current != reg:
                    copies.append((exit, reg, current))

        for child in reversed(region.children(block)):
            stack.append((child, dict(renames)))

    return copies
