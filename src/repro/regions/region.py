"""The region abstraction shared by every scheme in the paper.

A :class:`Region` is a single-entry set of basic blocks whose internal
control flow forms a *tree* rooted at the entry: basic-block regions are
1-node trees, SLRs and superblocks are chains, treegions are general trees.
This mirrors the paper's observation that SLR formation "is implemented as
a special case of treegion formation" — and it lets one DDG builder, one
list scheduler, and one estimator serve all four region types.

Exits: any CFG edge from a member block to a non-member (or back to the
region's own root — the loop-back case) leaves the region, as does falling
off a ``RET`` block.  Each :class:`RegionExit` knows its source block, its
profile weight, and later (after scheduling) the cycle at which it retires;
profile-weighted execution time is ``sum(exit.weight * exit.cycle)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.util.errors import SchedulingError
from repro.ir.cfg import BasicBlock, Edge
from repro.ir.types import Opcode


class RegionExit:
    """One way control can leave a region.

    Either wraps a CFG edge leaving the member set, or marks the function
    return in a ``RET``-terminated member (``edge is None``).
    """

    __slots__ = ("source", "edge", "weight")

    def __init__(self, source: BasicBlock, edge: Optional[Edge], weight: float):
        self.source = source
        self.edge = edge
        self.weight = weight

    @property
    def is_return(self) -> bool:
        return self.edge is None

    @property
    def target(self) -> Optional[BasicBlock]:
        return self.edge.dst if self.edge is not None else None

    def __repr__(self) -> str:
        dest = self.edge.dst.name if self.edge else "ret"
        return f"<exit {self.source.name} -> {dest} w={self.weight:g}>"


class Region:
    """A single-entry tree of basic blocks.

    Blocks are kept in absorption order with the root first.  The tree
    structure (parent/children) is recorded as blocks are added; formation
    code supplies the parent, and the invariant that a non-root member's
    parent is a member is enforced.
    """

    def __init__(self, kind: str):
        self.kind = kind
        #: 1-based position in the owning :class:`RegionPartition`, in
        #: ``add`` order (0 until added), so printed ids depend only on
        #: the partition's own construction order.
        self.rid = 0
        self.blocks: List[BasicBlock] = []
        self._members: Dict[int, BasicBlock] = {}
        self._parent: Dict[int, Optional[BasicBlock]] = {}
        self._children: Dict[int, List[BasicBlock]] = {}

    # ------------------------------------------------------------------
    # Construction

    def add_block(self, block: BasicBlock, parent: Optional[BasicBlock] = None) -> None:
        """Add ``block`` with the given tree parent (None only for the root)."""
        if block.bid in self._members:
            raise SchedulingError(f"bb{block.bid} added to region twice")
        if parent is None and self.blocks:
            raise SchedulingError(
                f"region already has root bb{self.root.bid}; "
                f"bb{block.bid} needs a parent"
            )
        if parent is not None and parent.bid not in self._members:
            raise SchedulingError(
                f"parent bb{parent.bid} of bb{block.bid} is not in the region"
            )
        self.blocks.append(block)
        self._members[block.bid] = block
        self._parent[block.bid] = parent
        self._children[block.bid] = []
        if parent is not None:
            self._children[parent.bid].append(block)

    # ------------------------------------------------------------------
    # Membership / tree structure

    @property
    def root(self) -> BasicBlock:
        if not self.blocks:
            raise SchedulingError("empty region has no root")
        return self.blocks[0]

    def __contains__(self, block: BasicBlock) -> bool:
        return self._members.get(block.bid) is block

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def parent(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self._parent[block.bid]

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children[block.bid])

    def is_leaf(self, block: BasicBlock) -> bool:
        return not self._children[block.bid]

    def leaves(self) -> List[BasicBlock]:
        return [b for b in self.blocks if self.is_leaf(b)]

    def depth(self, block: BasicBlock) -> int:
        """Tree depth of a member (root = 0)."""
        depth = 0
        current = self._parent[block.bid]
        while current is not None:
            depth += 1
            current = self._parent[current.bid]
        return depth

    def path_to(self, block: BasicBlock) -> List[BasicBlock]:
        """Members from the root down to ``block`` inclusive."""
        path = [block]
        current = self._parent[block.bid]
        while current is not None:
            path.append(current)
            current = self._parent[current.bid]
        path.reverse()
        return path

    def subtree(self, block: BasicBlock) -> List[BasicBlock]:
        """``block`` and every member below it, preorder."""
        result: List[BasicBlock] = []
        stack = [block]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self._children[current.bid]))
        return result

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Tree dominance: in a treegion every block dominates its subtree."""
        current: Optional[BasicBlock] = b
        while current is not None:
            if current is a:
                return True
            current = self._parent[current.bid]
        return False

    @property
    def path_count(self) -> int:
        """Number of distinct root-to-leaf execution paths."""
        return len(self.leaves())

    def paths(self) -> List[List[BasicBlock]]:
        """All root-to-leaf paths, in leaf order."""
        return [self.path_to(leaf) for leaf in self.leaves()]

    # ------------------------------------------------------------------
    # Exits

    def exits(self) -> List[RegionExit]:
        """All exits in block order, sources before their out-edges.

        A member edge is an exit when its destination is outside the region
        or is the region root (a back-edge re-entering the region counts as
        leaving it: the trip through the region ends).  ``RET`` members
        contribute a return exit weighted by the block's weight.
        """
        result: List[RegionExit] = []
        for block in self.blocks:
            term = block.terminator
            if term is not None and term.opcode is Opcode.RET:
                result.append(RegionExit(block, None, block.weight))
                continue
            for edge in block.out_edges:
                if edge.dst not in self or edge.dst is self.root:
                    result.append(RegionExit(block, edge, edge.weight))
        return result

    def exit_count_below(self, block: BasicBlock) -> int:
        """Exits reachable from ``block`` within the region.

        This is the *exit count* of every op in ``block`` for the exit-count
        heuristic: "the number of exits that follow the Op in control flow
        in the treegion".
        """
        members = self.subtree(block)
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
        """Every member's :meth:`exit_count_below`, keyed by bid, in one
        bottom-up pass.

        In a tree every in-region edge runs from a parent to its child,
        so a block's count is its own exits plus its children's counts;
        blocks are kept parents first, so the reverse visits children
        first.
        """
        counts: Dict[int, int] = {}
        root = self.root
        for block in reversed(self.blocks):
            term = block.terminator
            if term is not None and term.opcode is Opcode.RET:
                count = 1
            else:
                count = sum(1 for edge in block.out_edges
                            if edge.dst not in self or edge.dst is root)
            for child in self._children[block.bid]:
                count += counts[child.bid]
            counts[block.bid] = count
        return counts

    # ------------------------------------------------------------------
    # Statistics

    @property
    def op_count(self) -> int:
        return sum(len(b.ops) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def distinct_origins(self) -> List[int]:
        """Original block ids represented (duplicates counted once)."""
        seen: Dict[int, None] = {}
        for block in self.blocks:
            seen.setdefault(block.origin, None)
        return list(seen)

    def __repr__(self) -> str:
        ids = ", ".join(f"bb{b.bid}" for b in self.blocks[:8])
        more = "..." if len(self.blocks) > 8 else ""
        return f"<{self.kind} region #{self.rid} [{ids}{more}]>"


class RegionPartition:
    """A set of regions covering a CFG, each block in exactly one region."""

    def __init__(self, kind: str):
        self.kind = kind
        self.regions: List[Region] = []
        self._by_block: Dict[int, Region] = {}

    def add(self, region: Region) -> Region:
        self.regions.append(region)
        region.rid = len(self.regions)
        for block in region.blocks:
            if block.bid in self._by_block:
                raise SchedulingError(
                    f"bb{block.bid} belongs to two regions"
                )
            self._by_block[block.bid] = region
        return region

    def region_of(self, block: BasicBlock) -> Optional[Region]:
        return self._by_block.get(block.bid)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def covers(self, blocks: Sequence[BasicBlock]) -> bool:
        return all(b.bid in self._by_block for b in blocks)

    def verify_covering(self, cfg) -> None:
        """Check the partition invariant: every block in exactly one region."""
        for block in cfg.blocks():
            region = self._by_block.get(block.bid)
            if region is None:
                raise SchedulingError(f"bb{block.bid} is in no region")
        total = sum(len(r) for r in self.regions)
        if total != len(cfg):
            raise SchedulingError(
                f"partition holds {total} blocks, CFG has {len(cfg)}"
            )
