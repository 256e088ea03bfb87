"""Data dependence graph construction (step 1 of Figure 3).

The DDG spans every op of the region — all paths at once.  Because the
region is a tree, dependences only exist *along* root-to-leaf paths; ops in
sibling subtrees are independent by construction (cross-path register
conflicts were removed by renaming before this runs).  One depth-first walk
down the tree therefore builds all edges, carrying per-path state:

* **flow** (RAW) edges with the producer's latency, including guard
  predicate reads;
* **anti** (WAR) edges at latency 0 (a MultiOp reads before it writes) and
  **output** (WAW) edges spaced so the later def's write lands last;
* **memory** edges under the paper's no-aliasing rule — loads never bypass
  stores — with the Playdoh concession that "a store and any dependent
  memory operation can be scheduled in the same cycle" (store→load latency
  0; store→store and load→store are spaced a full cycle); calls fence
  everything;
* **exit** edges: a region exit may not retire before the ops on its
  root-to-source path *that the exit actually needs* have issued: every
  side-effecting op (stores, calls — they must happen before control
  leaves) and every op defining a value that is live into the exit.  Ops
  whose results are dead at the exit may issue later — they only matter
  to deeper or sibling paths, and anything they transitively feed is
  ordered behind them by its own dependence edges.  Edge latency is 0:
  issuing *in* the exit cycle is allowed, as ``r6 = 5`` does in the
  paper's Figure 5.

**Walk order.**  The walk visits blocks in tree preorder (a hyperblock's
in topological order) and each block's ops in ``by_block`` order.  Every
edge into op *i* is found while the walk visits *i*, and its source was
visited earlier, so walk order is topological for every edge.  It is
usually index order too, but not under ``schedule_copies``: a COPY op
sits before its exit branch in ``by_block`` yet carries a higher index.

**Control dependences** are the paper's "every op below a branch
depends on it": each branch-role op (exit branches, returns, and the
guard predicate ops standing in for internal branches) controls every
op strictly below its block.  Speculation lets the scheduler break them,
so they never constrain placement and are never stored; they only make
branches and compare chains tall, and therefore urgent under the
dependence-height heuristic, as in Figure 5 where the CMPPs and branches
issue as early as their data allows.  ``num_control_edges`` counts them
and the height sweep adds them.

**Storage.**  A cold evaluation of the paper's grid builds about 1,700
of these graphs, averaging 20 ops, so the graph is built straight into
CSR form.  The walk appends op *i*'s predecessor edges — first
occurrence of each ``(source, latency)`` pair, in the order found — to
``pred_src``/``pred_lat``, so ``pred_ptr[i]:pred_ptr[i+1]`` is op *i*'s
half-open slice.  One reverse sweep over walk order then computes every
height (longest path to a sink over placement and control edges) and
fills the successor arrays ``succ_ptr``/``succ_dst``/``succ_lat``, whose
per-op order is walk order by destination.  A DDG is complete when
built: :func:`~repro.schedule.list_scheduler.list_schedule`, the
schedule-legality lint rules, the bounds and the exact backend read the
arrays as they are, and the scheduling hot path never allocates a
per-edge object after construction.
"""

from __future__ import annotations

from itertools import accumulate
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.ir.cfg import BasicBlock
from repro.ir.liveness import LivenessInfo
from repro.ir.registers import Register
from repro.ir.types import Opcode
from repro.machine.model import MachineModel
from repro.regions.region import RegionExit
from repro.schedule.prep import ScheduleProblem
from repro.schedule.renaming import ExitCopy
from repro.schedule.schedule import SchedOp

#: Opcodes of the guard predicate ops prep synthesizes for internal
#: branches: with exit ops, the branch-role ops of a tree region.
BRANCH_GUARDS = frozenset((Opcode.CMPP, Opcode.PAND, Opcode.PANDCN,
                           Opcode.NINSET))


class DDG:
    """Dependence edges + heights over a :class:`ScheduleProblem`, as
    CSR arrays indexed like ``sched_ops``.

    The placement edges (flow, anti, output, memory and exit) constrain
    the list scheduler; the control dependences only raise heights (see
    the module docstring).  A builder walks the region calling
    :meth:`add_preds` once per op in walk order, then :meth:`close`.
    """

    def __init__(self, problem: ScheduleProblem, machine: MachineModel):
        sched_ops = problem.sched_ops
        n = len(sched_ops)
        self.num_nodes = n
        self.num_edges = 0
        self.num_control_edges = 0
        #: Per-op columns: result latency and the resource classes the
        #: list scheduler's slot caps test (memory ops, branches).
        opcodes = [sop.op.opcode for sop in sched_ops]
        latency = machine.latency_of
        self.latency: List[int] = [latency(opcode) for opcode in opcodes]
        self.is_memory: List[bool] = [opcode.is_memory for opcode in opcodes]
        self.is_branch: List[bool] = [opcode.is_branch for opcode in opcodes]
        #: Predecessor edges of op i: ``pred_src``/``pred_lat`` over
        #: ``pred_ptr[i]:pred_ptr[i+1]``; ``in_degree[i]`` is their count.
        self.pred_ptr: List[int] = []
        self.pred_src: List[int] = []
        self.pred_lat: List[int] = []
        self.in_degree: List[int] = [0] * n
        #: Successor edges of op i, likewise over ``succ_ptr``.
        self.succ_ptr: List[int] = []
        self.succ_dst: List[int] = []
        self.succ_lat: List[int] = []
        #: producers[i][reg] = index of the SchedOp whose def of ``reg``
        #: op ``i`` reads (register flow only); used by dominator
        #: parallelism to prove two duplicates read identical values.
        self.producers: List[Dict[Register, int]] = [{} for _ in range(n)]
        #: For loads: index of the last store/call on the op's path (None
        #: when memory is untouched above it).  Dominator parallelism may
        #: only merge two duplicated loads when these match — otherwise
        #: they observe different memory states.
        self.mem_producers: List[Optional[int]] = [None] * n
        self.heights: List[int] = []

    def add_preds(self, i: int, edges: List[Tuple[int, int]]) -> None:
        """Record op ``i``'s ``(source, latency)`` edges, found in this
        order while the walk visits ``i``; a repeated pair counts once.
        """
        if edges:
            if len(edges) > 1:
                edges = dict.fromkeys(edges)
            pred_src, pred_lat = self.pred_src, self.pred_lat
            for src, latency in edges:
                pred_src.append(src)
                pred_lat.append(latency)
            self.in_degree[i] = len(edges)

    def close(self, problem: ScheduleProblem, blocks: List[BasicBlock],
              above: Dict[int, Tuple[int, ...]], below_ops: Dict[int, int],
              branch_guards: AbstractSet[Opcode]) -> None:
        """Lay the walk's edges out as CSR and take heights in one
        reverse sweep over walk order.

        ``blocks`` is the walk's block order, ``above[bid]`` the bids of
        the blocks directly above a block, ``below_ops[bid]`` the number
        of ops strictly below it (the control targets of each of its
        branch-role ops), and ``branch_guards`` the opcodes of the
        synthesized guard ops that count as branch-role.
        """
        by_block = problem.by_block
        n = self.num_nodes
        in_degree = self.in_degree
        pred_ptr = [0, *accumulate(in_degree)]
        pred_src, pred_lat = self.pred_src, self.pred_lat
        walk = [sop.index for block in blocks for sop in by_block[block.bid]]
        if walk != list(range(n)):
            # COPY ops were visited out of index order: regroup by index.
            start = [0] * n
            position = 0
            for i in walk:
                start[i] = position
                position += in_degree[i]
            pred_src = [pred_src[e] for i in range(n)
                        for e in range(start[i], start[i] + in_degree[i])]
            pred_lat = [pred_lat[e] for i in range(n)
                        for e in range(start[i], start[i] + in_degree[i])]
        m = len(pred_src)

        counts = [0] * n
        for src in pred_src:
            counts[src] += 1
        succ_ptr = [0, *accumulate(counts)]
        # Filled from each op's end backwards, by the reverse sweep.
        fill = succ_ptr[1:]
        succ_dst = [0] * m
        succ_lat = [0] * m

        heights = list(self.latency)
        # bid -> the greatest height strictly below the block (absent:
        # no op below it).
        below_max: Dict[int, int] = {}
        control = 0
        for block in reversed(blocks):
            bid = block.bid
            below = below_max.get(bid, -1)
            top = below
            for sop in reversed(by_block[bid]):
                i = sop.index
                height = heights[i]
                if below >= 0 and (sop.exit is not None or (
                        sop.source is None
                        and sop.op.opcode in branch_guards)):
                    control += below_ops[bid]
                    if below >= height:
                        height = heights[i] = below + 1
                if height > top:
                    top = height
                for e in range(pred_ptr[i + 1] - 1, pred_ptr[i] - 1, -1):
                    src = pred_src[e]
                    latency = pred_lat[e]
                    slot = fill[src] - 1
                    fill[src] = slot
                    succ_dst[slot] = i
                    succ_lat[slot] = latency
                    if latency + height > heights[src]:
                        heights[src] = latency + height
            for up in above.get(bid, ()):
                if top > below_max.get(up, -1):
                    below_max[up] = top

        self.pred_ptr, self.pred_src, self.pred_lat = \
            pred_ptr, pred_src, pred_lat
        self.succ_ptr, self.succ_dst, self.succ_lat = \
            succ_ptr, succ_dst, succ_lat
        self.heights = heights
        self.num_edges = m
        self.num_control_edges = control


class _PathState:
    """Per-path dependence state carried down the tree walk.

    The first child of a block adopts its parent's state outright (the
    parent is done with it), so linear chains never copy; every other
    child starts from a copy taken before the first child runs.  The
    copies are shallow: sequence-valued state (``uses_since`` values,
    ``loads_since``, ``side_ops``) is stored as tuples, so "appending"
    rebinds a fresh tuple on one state without touching its siblings.
    """

    __slots__ = ("last_def", "uses_since", "last_store", "loads_since",
                 "side_ops")

    def __init__(self):
        self.last_def: Dict[Register, int] = {}
        self.uses_since: Dict[Register, Tuple[int, ...]] = {}
        self.last_store: Optional[int] = None   # last ST or CALL
        self.loads_since: Tuple[int, ...] = ()
        self.side_ops: Tuple[int, ...] = ()     # stores/calls on the path

    def copy(self) -> "_PathState":
        child = _PathState.__new__(_PathState)
        child.last_def = dict(self.last_def)
        child.uses_since = dict(self.uses_since)
        child.last_store = self.last_store
        child.loads_since = self.loads_since
        child.side_ops = self.side_ops
        return child


def _live_at_exit(
    exit: RegionExit,
    liveness: Optional[LivenessInfo],
    copies: Optional[List[ExitCopy]],
    registers: Optional[AbstractSet[Register]] = None,
) -> Tuple[Register, ...]:
    """Registers (post-renaming names) whose values the exit must carry,
    in sorted order (the DDG's deterministic edge-insertion order).

    ``registers`` restricts the answer to those registers, in the same
    relative order as the unrestricted tuple; the repair substitution
    applies first.  None returns the whole live set, as the schedule
    certifier asks.  This decodes the exit's whole live set; the DDG
    builders go through :func:`exit_live_sets`, which needs it only
    for exits with repairs.
    """
    if exit.edge is None or liveness is None:
        return ()
    live = set(liveness.live_into_edge(exit.edge))
    for copy_exit, original, renamed in copies or ():
        if copy_exit is exit and original in live:
            live.discard(original)
            live.add(renamed)
    if registers is not None:
        live &= registers
    return tuple(sorted(live))


def defined_registers(problem: ScheduleProblem) -> Set[Register]:
    """Every register some op of the problem defines: the only ones an
    exit edge can wait on."""
    defined: Set[Register] = set()
    for sop in problem.sched_ops:
        defined.update(sop.op.dests)
    return defined


def exit_live_sets(
    problem: ScheduleProblem,
    liveness: LivenessInfo,
    copies: Optional[List[ExitCopy]],
) -> Dict[int, Tuple[Register, ...]]:
    """Per exit (keyed by ``id``): :func:`_live_at_exit` restricted to
    the registers the problem's ops define, since only those have
    producers in the region.

    An exit without repair copies reads its answer off the live-in bits
    under one mask built for the whole problem; only an exit with
    repairs decodes its live set.
    """
    defined = defined_registers(problem)
    mask = liveness.mask(defined)
    repaired = {id(exit) for exit, _, _ in copies or ()}
    live: Dict[int, Tuple[Register, ...]] = {}
    for exit in problem.exits:
        if exit.edge is None:
            live[id(exit)] = ()
        elif id(exit) in repaired:
            live[id(exit)] = _live_at_exit(exit, liveness, copies, defined)
        else:
            live[id(exit)] = liveness.live_into_edge_masked(exit.edge, mask)
    return live


def build_ddg(
    problem: ScheduleProblem,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
    copies: Optional[List[ExitCopy]] = None,
) -> DDG:
    """Build the region DDG (after renaming) and compute heights.

    ``liveness`` and the renaming ``copies`` pin down which values each
    exit must wait for; without them every exit conservatively waits for
    all path ops.
    """
    ddg = DDG(problem, machine)
    region = problem.region
    by_block = problem.by_block
    live_cache = (exit_live_sets(problem, liveness, copies)
                  if liveness is not None else None)

    blocks: List[BasicBlock] = []
    stack: List[Tuple[BasicBlock, _PathState]] = [(region.root, _PathState())]
    while stack:
        block, state = stack.pop()
        blocks.append(block)
        for sop in by_block[block.bid]:
            _add_op_edges(ddg, problem.sched_ops, sop, state, live_cache)
        children = region.children(block)
        # The first child (processed next, pushed last) adopts the parent
        # state; its siblings copy it first.
        for child in reversed(children[1:]):
            stack.append((child, state.copy()))
        if children:
            stack.append((children[0], state))

    above: Dict[int, Tuple[int, ...]] = {}
    below_ops = dict.fromkeys(by_block, 0)
    for block in reversed(blocks):
        parent = region.parent(block)
        if parent is not None:
            above[block.bid] = (parent.bid,)
            below_ops[parent.bid] += (below_ops[block.bid]
                                      + len(by_block[block.bid]))
    ddg.close(problem, blocks, above, below_ops, BRANCH_GUARDS)
    return ddg


def _add_op_edges(ddg: DDG, ops: List[SchedOp], sop: SchedOp,
                  state: _PathState,
                  live_cache: Optional[Dict[int, Tuple[Register, ...]]]) -> None:
    i = sop.index
    op = sop.op
    latency = ddg.latency
    last_def = state.last_def
    uses_since = state.uses_since
    edges: List[Tuple[int, int]] = []

    # Flow dependences (sources + guard).
    used = op.used_registers()
    if used:
        producers = ddg.producers[i]
        for reg in used:
            producer = last_def.get(reg)
            if producer is not None:
                edges.append((producer, latency[producer]))
                producers[reg] = producer
            uses_since[reg] = uses_since.get(reg, ()) + (i,)

    # Output / anti dependences.
    for reg in op.dests:
        previous = last_def.get(reg)
        if previous is not None:
            edges.append(
                (previous, max(1, latency[previous] - latency[i] + 1)))
        for user in uses_since.get(reg, ()):
            if user != i:
                edges.append((user, 0))
        last_def[reg] = i
        uses_since[reg] = ()

    # Memory ordering (loads never bypass stores; Playdoh same-cycle rule).
    opcode = op.opcode
    if opcode is Opcode.LD:
        store = state.last_store
        ddg.mem_producers[i] = store
        if store is not None:
            edges.append(
                (store, 0 if ops[store].op.opcode is Opcode.ST else 1))
        state.loads_since = state.loads_since + (i,)
    elif opcode is Opcode.ST or opcode is Opcode.CALL:
        if state.last_store is not None:
            edges.append((state.last_store, 1))
        for load in state.loads_since:
            edges.append((load, 1))
        state.last_store = i
        state.loads_since = ()

    # Exit requirements (exit ops define nothing, so none waits on itself).
    if sop.exit is not None:
        # Side effects on the path must all have issued before leaving.
        for side_op in state.side_ops:
            edges.append((side_op, 0))
        if live_cache is None:
            # No liveness: conservatively wait for every path def.
            for producer in last_def.values():
                edges.append((producer, 0))
        else:
            # live_cache values are pre-sorted tuples.
            for reg in live_cache[id(sop.exit)]:
                producer = last_def.get(reg)
                if producer is not None:
                    edges.append((producer, 0))
    elif opcode is Opcode.ST or opcode is Opcode.CALL:
        state.side_ops = state.side_ops + (i,)

    ddg.add_preds(i, edges)
