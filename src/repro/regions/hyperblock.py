"""Hyperblock formation (Mahlke et al., MICRO-25) — the paper's planned
comparison point.

Section 6: "The serialization of code using predication as in hyperblocks
is an alternative to using tail duplication to eliminate merge points.  We
also plan to compare the tradeoffs between hyperblocks and treegions
directly and to evaluate the merits of predication versus speculation for
scheduling."  This module (with :mod:`repro.schedule.hyperblock`)
implements that comparison.

A **hyperblock** is a single-entry, *acyclic* set of blocks whose internal
control flow is removed by if-conversion: side paths execute under
predicates and only the taken path's results commit.  Unlike a treegion it
may contain merge points (no tail duplication needed); unlike a treegion
its off-path ops are *predicated*, not speculated — they cannot issue
before their guard resolves.

Formation here grows from a root like ``treeform`` but absorbs a block
only when **every** predecessor is already inside (single-entry preserved,
joins if-converted), never absorbs a block with an edge back into the
region (acyclicity; an edge to the root is allowed and becomes a region
exit, so loop bodies if-convert cleanly), excludes blocks containing
calls (predicated calls are not in the machine model), and respects an op
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.util.ordered import OrderedSet
from repro.ir.cfg import BasicBlock, CFG
from repro.ir.types import Opcode
from repro.regions.region import Region, RegionPartition


@dataclass(frozen=True)
class HyperblockLimits:
    """Knobs bounding hyperblock growth."""

    max_ops: int = 160
    max_blocks: int = 24


class Hyperblock(Region):
    """A single-entry acyclic region scheduled by if-conversion.

    The generic :class:`Region` tree fields are still maintained — the
    tree parent of an absorbed block is its *first* absorbed predecessor —
    but hyperblock consumers use the DAG structure (``dag_preds`` /
    ``dag_succs`` over member blocks) rather than the tree.
    """

    def __init__(self):
        super().__init__("hyperblock")

    # ------------------------------------------------------------------
    # DAG structure

    def dag_preds(self, block: BasicBlock) -> List[BasicBlock]:
        """Member predecessors of a member (excluding edges into the root)."""
        if block is self.root:
            return []
        return [e.src for e in block.in_edges if e.src in self]

    def dag_succs(self, block: BasicBlock) -> List[BasicBlock]:
        """Member successors reached by internal edges."""
        return [
            e.dst for e in block.out_edges
            if e.dst in self and e.dst is not self.root
        ]

    def topological_order(self) -> List[BasicBlock]:
        """Members in dependency order (root first); the region is acyclic
        by construction, which this asserts."""
        remaining = {b.bid: len(self.dag_preds(b)) for b in self.blocks}
        ready = [b for b in self.blocks if remaining[b.bid] == 0]
        order: List[BasicBlock] = []
        while ready:
            block = ready.pop(0)
            order.append(block)
            for succ in self.dag_succs(block):
                remaining[succ.bid] -= 1
                if remaining[succ.bid] == 0:
                    ready.append(succ)
        if len(order) != len(self.blocks):
            raise AssertionError("hyperblock contains a cycle")
        return order

    def reachable_from(self, block: BasicBlock) -> List[BasicBlock]:
        """Members reachable from ``block`` through internal edges
        (inclusive)."""
        seen = OrderedSet()
        stack = [block]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.dag_succs(current))
        return list(seen)

    def exit_count_below(self, block: BasicBlock) -> int:
        """Exits reachable from ``block`` (the exit-count heuristic input,
        generalized from the treegion subtree to DAG reachability)."""
        members = self.reachable_from(block)
        member_ids = {b.bid for b in members}
        count = 0
        for member in members:
            term = member.terminator
            if term is not None and term.opcode is Opcode.RET:
                count += 1
                continue
            for edge in member.out_edges:
                if edge.dst.bid not in member_ids or edge.dst is self.root:
                    count += 1
        return count

    def exit_counts(self) -> Dict[int, int]:
        """Every member's :meth:`exit_count_below`: joins make the
        reachable sets overlap, so each block counts its own."""
        return {block.bid: self.exit_count_below(block)
                for block in self.blocks}


def _has_call(block: BasicBlock) -> bool:
    return any(op.opcode is Opcode.CALL for op in block.ops)


class _HyperblockFormer:
    def __init__(self, cfg: CFG, limits: HyperblockLimits):
        self.cfg = cfg
        self.limits = limits
        self.partition = RegionPartition("hyperblock")

    def run(self) -> RegionPartition:
        unprocessed: OrderedSet = OrderedSet()
        if self.cfg.entry is not None:
            unprocessed.add(self.cfg.entry)

        def drain() -> None:
            while unprocessed:
                node = unprocessed.pop_first()
                if self.partition.region_of(node) is not None:
                    continue
                region = self._grow(node)
                self.partition.add(region)
                for block in region.blocks:
                    for succ in block.successors:
                        if self.partition.region_of(succ) is None:
                            unprocessed.add(succ)

        drain()
        for block in self.cfg.blocks():
            if self.partition.region_of(block) is None:
                unprocessed.add(block)
                drain()
        self.partition.verify_covering(self.cfg)
        return self.partition

    # ------------------------------------------------------------------

    def _grow(self, root: BasicBlock) -> Hyperblock:
        region = Hyperblock()
        region.add_block(root)
        op_budget = self.limits.max_ops - len(root.ops)

        changed = True
        while changed and len(region) < self.limits.max_blocks:
            changed = False
            for candidate in self._frontier(region):
                if not self._absorbable(region, candidate, op_budget):
                    continue
                parent = next(
                    e.src for e in candidate.in_edges if e.src in region
                )
                region.add_block(candidate, parent)
                op_budget -= len(candidate.ops)
                changed = True
                break
        return region

    def _frontier(self, region: Hyperblock) -> List[BasicBlock]:
        seen = OrderedSet()
        for block in region.blocks:
            for succ in block.successors:
                if succ not in region:
                    seen.add(succ)
        return list(seen)

    def _absorbable(self, region: Hyperblock, block: BasicBlock,
                    op_budget: int) -> bool:
        if self.partition.region_of(block) is not None:
            return False
        if len(block.ops) > op_budget:
            return False
        if _has_call(block):
            return False  # no predicated calls in the machine model
        # Single entry: every predecessor already if-converted inside.
        for edge in block.in_edges:
            if edge.src not in region:
                return False
        # Acyclicity: no internal edge back to a non-root member.
        for edge in block.out_edges:
            if edge.dst in region and edge.dst is not region.root:
                return False
        return True


def form_hyperblocks(
    cfg: CFG, limits: Optional[HyperblockLimits] = None
) -> RegionPartition:
    """Partition ``cfg`` into hyperblocks.  Does not modify the CFG."""
    return _HyperblockFormer(cfg, limits or HyperblockLimits()).run()
