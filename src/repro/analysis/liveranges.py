"""Flow-sensitive live ranges: dead stores and register pressure.

Block-level liveness is the function's one live-variable analysis,
:meth:`repro.ir.analysis_cache.AnalysisCache.liveness` (the int-bitset
fixed point of :mod:`repro.ir.liveness`), refined to op granularity by
walking each block's ops backward from its live-out set.  Two
consumers:

* **Dead stores** — an op whose destinations are all dead immediately
  after it, with no side effects, computes a value nothing ever reads
  (``ir.dead-store``).  A guarded def of a dead register is still dead:
  whether or not the write commits, nobody reads it.
* **Register pressure** — the maximum number of simultaneously live
  registers per class at any program point of a block.  Simultaneously
  live registers pairwise interfere, so a clique of that size exists in
  the interference graph and *any* correct allocation needs at least
  that many registers of the class: a sound lower bound on demand.
  :func:`LiveRanges.region_pressure` takes the max over a region's
  blocks, which ``sched.pressure-exceeds-class`` compares against the
  machine's per-class register file.  Both read the same live-out sets,
  so they agree by construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple

from repro.ir.analysis_cache import liveness_of, reachability_of
from repro.ir.cfg import CFG, BasicBlock
from repro.ir.operation import Operation
from repro.ir.registers import Register
from repro.ir.types import RegClass


class DeadStore(NamedTuple):
    """One op whose computed value is never read."""

    block: BasicBlock
    op: Operation
    position: int


def block_peak_pressure(block: BasicBlock,
                        live_out) -> Dict[RegClass, int]:
    """Max simultaneously-live registers per class inside one block.

    Takes the block's live-out set explicitly so callers that only have
    block-level liveness in hand (the ``sched.pressure-exceeds-class``
    rule certifies against :class:`repro.ir.liveness.LivenessInfo`) share
    the exact walk :meth:`LiveRanges.block_pressure` memoizes.
    """
    live = set(live_out)
    counts = {rclass: 0 for rclass in RegClass}
    for reg in live:
        counts[reg.rclass] += 1
    peak = dict(counts)
    for position in range(len(block.ops) - 1, -1, -1):
        op = block.ops[position]
        for reg in op.dests:
            if reg in live:
                live.discard(reg)
                counts[reg.rclass] -= 1
        for reg in op.used_registers():
            if reg not in live:
                live.add(reg)
                counts[reg.rclass] += 1
        for rclass in RegClass:
            if counts[rclass] > peak[rclass]:
                peak[rclass] = counts[rclass]
    return peak


class LiveRanges:
    """Op-granular liveness facts for one CFG."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.liveness = liveness_of(cfg)
        self._block_pressure: Dict[int, Dict[RegClass, int]] = {}

    # ------------------------------------------------------------------

    def live_in(self, block: BasicBlock) -> FrozenSet[Register]:
        return self.liveness.live_in(block)

    def live_out(self, block: BasicBlock) -> FrozenSet[Register]:
        return self.liveness.live_out(block)

    # ------------------------------------------------------------------

    def dead_stores(self) -> List[DeadStore]:
        """Ops computing values nothing reads, in program order.

        Side-effecting ops (stores, calls, branches, returns) are never
        reported — their usefulness does not flow through registers.
        Ops in the blocks ``ir.unreachable-block`` reports are skipped
        (that rule owns them); every other block is checked, loops with
        no way out included.
        """
        cfg = self.cfg
        # Without an entry, ir.unreachable-block reports nothing.
        reach = reachability_of(cfg) if cfg.entry is not None else None
        found: List[DeadStore] = []
        for block in cfg.blocks():
            if reach is not None and not reach.is_reachable(block):
                continue
            live = set(self.live_out(block))
            # Walk backward so "live after op" is exact per position.
            flagged: List[DeadStore] = []
            for position in range(len(block.ops) - 1, -1, -1):
                op = block.ops[position]
                if op.dests and not op.opcode.has_side_effects:
                    if all(reg not in live for reg in op.dests):
                        flagged.append(DeadStore(block, op, position))
                for reg in op.dests:
                    live.discard(reg)
                live.update(op.used_registers())
            found.extend(reversed(flagged))
        return found

    # ------------------------------------------------------------------

    def block_pressure(self, block: BasicBlock) -> Dict[RegClass, int]:
        """Max simultaneously-live registers per class inside ``block``."""
        peak = self._block_pressure.get(block.bid)
        if peak is None:
            peak = self._block_pressure[block.bid] = block_peak_pressure(
                block, self.live_out(block))
        return peak

    def region_pressure(self, blocks) -> Dict[RegClass, int]:
        """Max per-class pressure over a set of blocks (e.g. one region).

        A lower bound on the registers any allocation of the region
        needs: the peak block's simultaneously-live set is a clique in
        the interference graph.
        """
        peak = {rclass: 0 for rclass in RegClass}
        for block in blocks:
            for rclass, count in self.block_pressure(block).items():
                if count > peak[rclass]:
                    peak[rclass] = count
        return peak
