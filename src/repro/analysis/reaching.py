"""Reaching definitions, graded for uninitialized uses.

``ir.uninit-use`` asks two questions of every register read: can the
register arrive *uninitialized* (no definition on some path from the
entry), and can it arrive *defined* (a definition or a parameter on
some path)?  Two int bitsets per block answer both, numbered by
:meth:`repro.ir.liveness.LivenessInfo.bit` so the function has one
register numbering:

* ``uninit`` — registers with a path from the entry that no unguarded
  def crosses.  At the entry every register but the parameters is set;
  an unguarded (*strong*) def clears its bit.
* ``defined`` — registers with a path from the entry through a def or
  from a parameter.  Any def sets its bit.  Guarded (predicated) defs
  are *weak*: they set ``defined`` but leave ``uninit`` alone, because
  the write may be squashed at run time.

Both are forward may-facts: a join is one ``|`` per set and a transfer
one ``& ~strong`` and one ``| defs``, so the fixed point runs over ints.
It follows only the edges
:class:`~repro.analysis.reachability.Reachability` keeps executable: the
dead arm of a constant branch neither reports reads nor lets its defs
reach the join.

Consumers:

* :func:`ReachingDefinitions.uninit_uses` grades every read that
  ``uninit`` reaches as *must*-uninitialized (``defined`` does not
  reach: wrong on every path) or *may*-uninitialized (both reach:
  wrong on some path) — the ``ir.uninit-use`` lint rule.
* :func:`ReachingDefinitions.def_free_path` reconstructs one offending
  entry-to-use path along which the register is never strongly defined,
  for the rule's fix hint.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Tuple

from repro.ir.analysis_cache import liveness_of, reachability_of
from repro.ir.cfg import CFG, BasicBlock
from repro.ir.operation import Operation
from repro.ir.registers import Register


class UninitUse(NamedTuple):
    """One register read that an uninitialized path reaches."""

    block: BasicBlock
    op: Operation
    position: int
    reg: Register
    #: ``"must"`` — no definition reaches; ``"may"`` — a definition
    #: reaches along some paths but not others.
    kind: str


class ReachingDefinitions:
    """Uninit and defined bitsets at the entry of every reachable block."""

    def __init__(self, cfg: CFG, params: Tuple[Register, ...] = ()):
        self.cfg = cfg
        self._bit = liveness_of(cfg).bit
        self._reach = reachability_of(cfg)
        # Per block: the registers it defines, and those it defines
        # unguarded.
        self._defs: Dict[int, int] = {}
        self._strong: Dict[int, int] = {}
        for block in cfg.blocks():
            defs = strong = 0
            for op in block.ops:
                for reg in op.dests:
                    bit = self._bit(reg)
                    defs |= bit
                    if op.guard is None:
                        strong |= bit
            self._defs[block.bid] = defs
            self._strong[block.bid] = strong

        #: bid -> (uninit, defined) at block entry; unreached blocks are
        #: absent.
        self._in: Dict[int, Tuple[int, int]] = {}
        entry = cfg.entry
        if entry is None:
            return
        param_bits = 0
        for reg in params:
            param_bits |= self._bit(reg)
        # ``~param_bits`` sets every bit the numbering could hand out.
        self._in[entry.bid] = (~param_bits, param_bits)
        queue = deque((entry,))
        queued = {entry.bid}
        while queue:
            block = queue.popleft()
            queued.discard(block.bid)
            uninit, defined = self._in[block.bid]
            uninit &= ~self._strong[block.bid]
            defined |= self._defs[block.bid]
            for edge in self._reach.executable_edges(block):
                dst = edge.dst.bid
                old = self._in.get(dst)
                new = (uninit, defined) if old is None \
                    else (old[0] | uninit, old[1] | defined)
                if new != old:
                    self._in[dst] = new
                    if dst not in queued:
                        queued.add(dst)
                        queue.append(edge.dst)

    # ------------------------------------------------------------------

    def uninit_uses(self) -> List[UninitUse]:
        """Every read (sources and guards) that ``uninit`` reaches.

        Uses inside unreachable blocks are skipped — they never
        execute, and ``ir.unreachable-block`` already reports the block.
        """
        bit_of = self._bit
        found: List[UninitUse] = []
        for block in self.cfg.blocks():
            state = self._in.get(block.bid)
            if state is None:
                continue  # unreachable
            uninit, defined = state
            for position, op in enumerate(block.ops):
                for reg in op.used_registers():
                    bit = bit_of(reg)
                    if uninit & bit:
                        kind = "may" if defined & bit else "must"
                        found.append(
                            UninitUse(block, op, position, reg, kind)
                        )
                for reg in op.dests:
                    bit = bit_of(reg)
                    defined |= bit
                    if op.guard is None:
                        uninit &= ~bit
        return found

    def def_free_path(self, reg: Register,
                      use_block: BasicBlock) -> List[str]:
        """One shortest entry-to-use path never strongly defining ``reg``.

        Returns block labels (``bb3`` style) for the lint fix hint; an
        empty list when no such path exists (the use is not uninit).
        """
        entry = self.cfg.entry
        if entry is None:
            return []
        bit = self._bit(reg)
        parent = {entry.bid: None}
        queue = deque((entry,))
        while queue:
            block = queue.popleft()
            if block is use_block:
                path: List[str] = []
                bid = block.bid
                while bid is not None:
                    path.append(f"bb{bid}")
                    bid = parent[bid]
                return list(reversed(path))
            if self._strong[block.bid] & bit:
                continue  # a strong def en route kills UNINIT
            for edge in self._reach.executable_edges(block):
                if edge.dst.bid not in parent:
                    parent[edge.dst.bid] = block.bid
                    queue.append(edge.dst)
        return []
