"""Generic worklist dataflow solver over packed CSR block arrays.

The block-level analyses of :mod:`repro.analysis` are instances of the
classic iterative dataflow framework: values drawn from a finite-height join
semilattice, one monotone transfer function per basic block, and a
worklist iteration to the least fixed point.  This module provides the
two shared pieces:

* :class:`BlockGraph` — a dense, CSR-packed view of one CFG's block
  graph, in the same spirit as the DDG's edge arrays
  (:mod:`repro.schedule.ddg`): blocks get dense indices, and the
  successor/predecessor adjacency is two flat int arrays plus offset
  tables, so the solver's inner loop touches no Python object graphs.
* :func:`solve` — the direction-agnostic worklist iteration.

The lattice protocol is duck-typed (no ABC): a *problem* object supplies

``direction``
    ``"forward"`` or ``"backward"``.
``boundary()``
    The value at the boundary: the function entry (forward) or every
    exit block — a block with no successors (backward).
``transfer(block, value)``
    The output value of ``block`` given its input value.  Must be
    monotone in ``value`` and must not mutate its argument.
``join(a, b)``
    The least upper bound of two values.
``edge_value(edge, value)`` *(optional)*
    The value an edge propagates given its source's output value.
    Returning ``None`` marks the edge *non-executable* and cuts
    propagation along it — reachability uses this to kill the dead arm
    of a constant branch.

**Termination.**  The solver re-enqueues a block only when the value
flowing into one of its edges changed, and values only ever move up the
lattice (``join`` with new information, monotone ``transfer``).  With a
finite-height lattice every block's value can change at most *height*
times, so the worklist drains after at most ``O(blocks x edges x
height)`` transfer applications.  Both shipped analyses use finite
lattices — reaching definitions a powerset of a function's def sites,
reachability the two-point reached/bottom lattice — so the height is
finite by construction; the argument is spelled out in DESIGN.md §15.
Liveness is :mod:`repro.ir.liveness`'s bitset fixed point, not solved here.

**Unreachable blocks.**  Blocks the iteration never reaches (forward:
no executable path from the entry; backward: no path to an exit) keep
the value ``None`` ("bottom": no information has arrived).  Transfers
never run on ``None`` — consumers see ``None`` and skip, never a
half-initialized value.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Dict, List, Optional

from repro.ir.cfg import CFG, BasicBlock, Edge

FORWARD = "forward"
BACKWARD = "backward"


class BlockGraph:
    """Dense CSR packing of one CFG's block-level graph.

    Blocks are numbered ``0..n-1`` in :meth:`CFG.blocks` order (ascending
    bid).  Successor edges of block ``i`` are the slice
    ``succ_ptr[i]:succ_ptr[i+1]`` of ``succ`` (dense target indices) and
    ``succ_edge`` (the :class:`~repro.ir.cfg.Edge` objects, for
    ``edge_value`` hooks); predecessors mirror that layout.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.blocks: List[BasicBlock] = cfg.blocks()
        n = len(self.blocks)
        self.index_of: Dict[int, int] = {
            block.bid: i for i, block in enumerate(self.blocks)
        }
        self.entry_index = (
            self.index_of[cfg.entry.bid] if cfg.entry is not None else -1
        )

        succ_counts = array("i", [0] * (n + 1))
        pred_counts = array("i", [0] * (n + 1))
        for block in self.blocks:
            for edge in block.out_edges:
                succ_counts[self.index_of[edge.src.bid] + 1] += 1
                pred_counts[self.index_of[edge.dst.bid] + 1] += 1
        for i in range(n):
            succ_counts[i + 1] += succ_counts[i]
            pred_counts[i + 1] += pred_counts[i]
        self.succ_ptr = succ_counts
        self.pred_ptr = pred_counts

        total = self.succ_ptr[n]
        self.succ = array("i", [0] * total)
        self.pred = array("i", [0] * total)
        self.succ_edge: List[Optional[Edge]] = [None] * total
        self.pred_edge: List[Optional[Edge]] = [None] * total
        succ_fill = array("i", self.succ_ptr)
        pred_fill = array("i", self.pred_ptr)
        for block in self.blocks:
            src = self.index_of[block.bid]
            for edge in block.out_edges:
                dst = self.index_of[edge.dst.bid]
                slot = succ_fill[src]
                self.succ[slot] = dst
                self.succ_edge[slot] = edge
                succ_fill[src] += 1
                slot = pred_fill[dst]
                self.pred[slot] = src
                self.pred_edge[slot] = edge
                pred_fill[dst] += 1

        #: Dense indices in reverse postorder (unreachable blocks appended
        #: in bid order, matching :meth:`CFG.reverse_postorder`).
        self.rpo = array(
            "i", [self.index_of[b.bid] for b in cfg.reverse_postorder()]
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def block(self, index: int) -> BasicBlock:
        return self.blocks[index]


class DataflowResult:
    """Fixed-point values per block, by dense index or block object.

    ``in_values[i]`` is the value at block entry, ``out_values[i]`` at
    block exit (``None`` = no executable path reached the block).
    """

    def __init__(self, graph: BlockGraph, in_values: List[Any],
                 out_values: List[Any]):
        self.graph = graph
        self.in_values = in_values
        self.out_values = out_values

    def value_in(self, block: BasicBlock) -> Any:
        return self.in_values[self.graph.index_of[block.bid]]

    def value_out(self, block: BasicBlock) -> Any:
        return self.out_values[self.graph.index_of[block.bid]]


def solve(graph: BlockGraph, problem) -> DataflowResult:
    """Run ``problem`` to its least fixed point over ``graph``."""
    n = len(graph)
    in_values: List[Any] = [None] * n
    out_values: List[Any] = [None] * n
    if n == 0:
        return DataflowResult(graph, in_values, out_values)

    forward = problem.direction == FORWARD
    if not forward and problem.direction != BACKWARD:
        raise ValueError(f"bad dataflow direction {problem.direction!r}")
    edge_value = getattr(problem, "edge_value", None)
    join = problem.join
    transfer = problem.transfer
    boundary = problem.boundary()

    if forward:
        ptr, adj, adj_edge = graph.pred_ptr, graph.pred, graph.pred_edge
        out_ptr, out_adj = graph.succ_ptr, graph.succ
        order = graph.rpo
    else:
        ptr, adj, adj_edge = graph.succ_ptr, graph.succ, graph.succ_edge
        out_ptr, out_adj = graph.pred_ptr, graph.pred
        order = array("i", reversed(graph.rpo))

    worklist = deque(order)
    queued = bytearray(n)
    for i in order:
        queued[i] = 1

    while worklist:
        i = worklist.popleft()
        queued[i] = 0
        block = graph.blocks[i]

        # Join the values flowing in: boundary for boundary blocks, plus
        # one contribution per incoming (forward) / outgoing (backward)
        # edge whose far side has produced a value.
        value: Any = None
        if forward:
            if i == graph.entry_index:
                value = boundary
        else:
            if graph.succ_ptr[i] == graph.succ_ptr[i + 1]:
                value = boundary
        for e in range(ptr[i], ptr[i + 1]):
            other = out_values[adj[e]] if forward else in_values[adj[e]]
            if other is None:
                continue
            if edge_value is not None:
                other = edge_value(adj_edge[e], other)
                if other is None:
                    continue
            value = other if value is None else join(value, other)

        if value is None:
            continue  # bottom: nothing reaches this block (yet)

        result = transfer(block, value)
        if forward:
            in_values[i] = value
            if result == out_values[i]:
                continue
            out_values[i] = result
        else:
            out_values[i] = value
            if result == in_values[i]:
                continue
            in_values[i] = result

        for e in range(out_ptr[i], out_ptr[i + 1]):
            succ = out_adj[e]
            if not queued[succ]:
                queued[succ] = 1
                worklist.append(succ)

    return DataflowResult(graph, in_values, out_values)
