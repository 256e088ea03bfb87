"""Basic blocks, typed control-flow edges, and the CFG.

The control-flow graph is the source of truth for control flow: branch ops
carry a target block id for printing and interpretation, but region
formation, tail duplication, and the verifier all reason over explicit
:class:`Edge` objects.  Edges carry profile weights (execution counts), which
is the only profile information the paper's heuristics consume.

Merge points — blocks with two or more incoming edges — are what delimit
treegions (Section 2), so :meth:`BasicBlock.is_merge_point` counts *edges*,
not distinct predecessors: a conditional branch whose both arms reach the
same block makes that block a merge point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.util.errors import IRValidationError
from repro.util.ids import IdAllocator
from repro.ir.types import EdgeKind, Opcode
from repro.ir.operation import Operation


class Edge:
    """A directed control-flow edge with a profile weight.

    ``kind`` records how control traverses the edge (branch taken,
    fallthrough, switch case/default); ``case_value`` is the selector value
    for :attr:`EdgeKind.CASE` edges.  ``weight`` is the profiled traversal
    count (0.0 until a profile is attached).
    """

    __slots__ = ("src", "dst", "kind", "case_value", "weight")

    def __init__(
        self,
        src: "BasicBlock",
        dst: "BasicBlock",
        kind: EdgeKind,
        case_value: Optional[int] = None,
        weight: float = 0.0,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.case_value = case_value
        self.weight = weight

    def __repr__(self) -> str:
        tag = self.kind.value
        if self.kind is EdgeKind.CASE:
            tag = f"case {self.case_value}"
        return f"<edge bb{self.src.bid} -> bb{self.dst.bid} ({tag}, w={self.weight:g})>"


class BasicBlock:
    """A basic block: a straight-line op sequence plus typed out-edges.

    A block ends with at most one terminator (``BRU``, ``BRCT``, ``BRCF``,
    ``SWITCH``, ``RET``); a block without a terminator must have exactly one
    fallthrough out-edge (or none, which the verifier rejects except via
    ``RET``).
    """

    __slots__ = (
        "bid", "name", "ops", "in_edges", "out_edges", "weight", "cfg", "origin",
    )

    def __init__(self, bid: int, name: str = "", cfg: Optional["CFG"] = None):
        self.bid = bid
        self.name = name or f"bb{bid}"
        self.ops: List[Operation] = []
        self.in_edges: List[Edge] = []
        self.out_edges: List[Edge] = []
        # Profiled execution count of the block.  Kept explicitly (rather
        # than derived from in-edge weights) so the entry block and
        # synthetic profiles work uniformly.
        self.weight: float = 0.0
        self.cfg = cfg
        # Provenance for tail duplication: the bid of the original block
        # this one was (transitively) cloned from; its own bid if original.
        # Code-expansion accounting counts each origin once.
        self.origin: int = bid

    # ------------------------------------------------------------------
    # Structure queries

    @property
    def terminator(self) -> Optional[Operation]:
        """The block's terminator op, or None for fallthrough blocks."""
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        return [edge.dst for edge in self.out_edges]

    @property
    def predecessors(self) -> List["BasicBlock"]:
        return [edge.src for edge in self.in_edges]

    def is_merge_point(self) -> bool:
        """True if two or more edges enter this block (Section 2)."""
        return len(self.in_edges) >= 2

    @property
    def merge_count(self) -> int:
        """Number of incoming edges (the tail-duplication limit input)."""
        return len(self.in_edges)

    def out_edge(self, kind: EdgeKind) -> Optional[Edge]:
        """The unique out-edge of the given kind, or None.

        Raises if several edges share the kind (only legal for CASE).
        """
        found = [e for e in self.out_edges if e.kind is kind]
        if not found:
            return None
        if len(found) > 1 and kind is not EdgeKind.CASE:
            raise IRValidationError(
                f"bb{self.bid} has {len(found)} {kind.value} edges"
            )
        return found[0]

    @property
    def taken_edge(self) -> Optional[Edge]:
        return self.out_edge(EdgeKind.TAKEN)

    @property
    def fallthrough_edge(self) -> Optional[Edge]:
        return self.out_edge(EdgeKind.FALLTHROUGH)

    def case_edges(self) -> List[Edge]:
        return [e for e in self.out_edges if e.kind is EdgeKind.CASE]

    @property
    def op_count(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<bb{self.bid} '{self.name}' ops={len(self.ops)} w={self.weight:g}>"


class CFG:
    """A control-flow graph owning blocks, edges, and op uids.

    One CFG belongs to one :class:`~repro.ir.function.Function`.  All
    structural mutation — adding blocks/edges, retargeting edges, cloning
    blocks for tail duplication — goes through methods here so that edge
    lists, branch-op targets, and id allocation stay consistent.
    """

    def __init__(self):
        self._blocks: Dict[int, BasicBlock] = {}
        self._block_ids = IdAllocator(start=1)
        self._op_ids = IdAllocator(start=1)
        self.entry: Optional[BasicBlock] = None
        # Monotonic mutation counter: bumped by every structural change
        # (blocks, edges, op lists).  Cached analyses (liveness, dominators,
        # register bounds — see repro.ir.analysis_cache) are keyed on it,
        # so a stale result is never served after a mutation.
        self.version: int = 0

    # ------------------------------------------------------------------
    # Construction

    def bump_version(self) -> None:
        """Invalidate cached analyses after a structural mutation.

        Called automatically by every mutating CFG method; passes that
        edit blocks or ops directly (the builder, parser, optimizer) must
        call it themselves — that is the cache-invalidation contract.
        """
        self.version += 1

    def new_block(self, name: str = "") -> BasicBlock:
        """Create and register a new empty block."""
        bid = self._block_ids.allocate()
        block = BasicBlock(bid, name=name, cfg=self)
        self._blocks[bid] = block
        if self.entry is None:
            self.entry = block
        self.version += 1
        return block

    def new_op(self, opcode: Opcode, **kwargs) -> Operation:
        """Create an op with a fresh uid (not yet placed in any block)."""
        return Operation(self._op_ids.allocate(), opcode, **kwargs)

    def append_op(self, block: BasicBlock, opcode: Opcode, **kwargs) -> Operation:
        """Create an op and append it to ``block``."""
        op = self.new_op(opcode, **kwargs)
        block.ops.append(op)
        self.version += 1
        return op

    def add_edge(
        self,
        src: BasicBlock,
        dst: BasicBlock,
        kind: EdgeKind = EdgeKind.FALLTHROUGH,
        case_value: Optional[int] = None,
        weight: float = 0.0,
    ) -> Edge:
        """Create an edge and register it on both endpoints."""
        edge = Edge(src, dst, kind, case_value=case_value, weight=weight)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        self.version += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        edge.src.out_edges.remove(edge)
        edge.dst.in_edges.remove(edge)
        self.version += 1

    def set_entry(self, block: BasicBlock) -> None:
        if block.bid not in self._blocks:
            raise IRValidationError(f"bb{block.bid} is not in this CFG")
        self.entry = block
        self.version += 1

    def remove_block(self, block: BasicBlock) -> None:
        """Delete an edge-free, non-entry block (unreachable-code cleanup)."""
        if block is self.entry:
            raise IRValidationError("cannot remove the entry block")
        if block.in_edges or block.out_edges:
            raise IRValidationError(
                f"bb{block.bid} still has edges; detach it first"
            )
        del self._blocks[block.bid]
        self.version += 1

    # ------------------------------------------------------------------
    # Access

    def block(self, bid: int) -> BasicBlock:
        return self._blocks[bid]

    def blocks(self) -> List[BasicBlock]:
        """All blocks in creation (id) order."""
        return [self._blocks[bid] for bid in sorted(self._blocks)]

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks())

    def __contains__(self, block: BasicBlock) -> bool:
        return self._blocks.get(block.bid) is block

    @property
    def total_ops(self) -> int:
        return sum(len(b.ops) for b in self._blocks.values())

    # ------------------------------------------------------------------
    # Traversal

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse postorder from the entry.

        Unreachable blocks are appended afterwards in id order so every
        block appears exactly once.
        """
        if self.entry is None:
            return []
        order: List[BasicBlock] = []
        visited = set()
        # Iterative DFS with an explicit stack of (block, successor index).
        stack = [(self.entry, 0)]
        visited.add(self.entry.bid)
        while stack:
            block, idx = stack[-1]
            if idx < len(block.out_edges):
                stack[-1] = (block, idx + 1)
                succ = block.out_edges[idx].dst
                if succ.bid not in visited:
                    visited.add(succ.bid)
                    stack.append((succ, 0))
            else:
                stack.pop()
                order.append(block)
        order.reverse()
        for block in self.blocks():
            if block.bid not in visited:
                order.append(block)
        return order

    # ------------------------------------------------------------------
    # Surgery (used by tail duplication and superblock formation)

    def retarget_edge(self, edge: Edge, new_dst: BasicBlock) -> None:
        """Point ``edge`` at ``new_dst``, fixing the branch op's target.

        Fallthrough edges have no op payload; taken/case edges update the
        source block's terminator when it names the old destination.
        """
        old_dst = edge.dst
        old_dst.in_edges.remove(edge)
        edge.dst = new_dst
        new_dst.in_edges.append(edge)
        term = edge.src.terminator
        if term is not None and term.target == old_dst.bid and edge.kind is EdgeKind.TAKEN:
            term.target = new_dst.bid
        self.version += 1

    def clone_block_for_edge(self, block: BasicBlock, incoming: Edge) -> BasicBlock:
        """Tail-duplicate ``block`` for one of its incoming edges.

        Creates a clone with copies of every op (clone uids are fresh but
        ``origin`` is preserved), copies of every out-edge to the *same*
        destinations, then retargets ``incoming`` to the clone.  Profile
        weights move with the edge: the clone inherits ``incoming.weight``
        and splits its out-edge weights in the original block's proportions,
        which are deducted from the original.
        """
        if incoming.dst is not block:
            raise IRValidationError("incoming edge does not reach the block being cloned")
        clone = self.new_block(name=self._clone_name(block.name))
        clone.origin = block.origin
        for op in block.ops:
            clone.ops.append(op.clone(self._op_ids.allocate()))
        self.version += 1  # ops appended directly, not via append_op
        # Split profile weight proportionally along out-edges.
        moved = incoming.weight
        total_out = sum(e.weight for e in block.out_edges)
        for edge in list(block.out_edges):
            if total_out > 0:
                share = moved * (edge.weight / total_out)
            elif block.out_edges:
                share = moved / len(block.out_edges)
            else:
                share = 0.0
            self.add_edge(clone, edge.dst, edge.kind, case_value=edge.case_value,
                          weight=share)
            edge.weight = max(0.0, edge.weight - share)
        clone.weight = moved
        block.weight = max(0.0, block.weight - moved)
        self.retarget_edge(incoming, clone)
        return clone

    def _clone_name(self, base: str) -> str:
        """A fresh ``.dup``-suffixed label for a tail-duplication clone.

        The first clone of ``X`` is ``X.dup``; further clones count up
        (``X.dup2``, ``X.dup3``) so every clone stays distinguishable in
        dumps and dot output (``ir.duplicate-label``).
        """
        taken = {b.name for b in self._blocks.values()}
        name = f"{base}.dup"
        serial = 1
        while name in taken:
            serial += 1
            name = f"{base}.dup{serial}"
        return name

    # ------------------------------------------------------------------
    # Convenience op constructors (shared by builder, frontend, tests)

    def make_jump(self, block: BasicBlock, target: BasicBlock) -> Operation:
        """Append ``BRU -> target`` and its taken edge."""
        op = self.append_op(block, Opcode.BRU, target=target.bid)
        self.add_edge(block, target, EdgeKind.TAKEN)
        return op

    def make_return(self, block: BasicBlock, value: Optional[object] = None) -> Operation:
        srcs = [] if value is None else [value]
        return self.append_op(block, Opcode.RET, srcs=srcs)
