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

Op indices are assigned in tree preorder, so every edge points from a lower
to a higher index and the graph is a DAG by construction; heights are
computed in one reverse sweep.

**Storage layout.**  The grid hot path builds this graph 14k+ times per
run, so edges are kept *flat*: construction appends to three parallel int
lists (``src``/``dst``/``latency`` per placement edge, in insertion
order), deduplicated through a set of packed ints.  :meth:`DDG.finalize`
converts the flat stream into CSR form — ``pred_ptr``/``pred_src``/
``pred_lat`` index predecessor edges of op *i* as the half-open slice
``pred_ptr[i]:pred_ptr[i+1]``, and likewise ``succ_ptr``/``succ_dst``/
``succ_lat`` and the control-edge arrays — which is what
:func:`~repro.schedule.list_scheduler.list_schedule` and
:meth:`DDG.compute_heights` iterate, as do the schedule-legality lint
rules; the scheduling hot path never allocates a single per-edge tuple.
"""

from __future__ import annotations

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

#: Packed-edge encoding: ``(src << SHIFT | dst) << LAT_BITS | latency``.
#: Valid while indices fit in SHIFT bits and latency in LAT_BITS bits;
#: out-of-range edges (never seen in practice) fall back to tuples in the
#: same dedup set.
_IDX_SHIFT = 21
_IDX_LIMIT = 1 << _IDX_SHIFT
_LAT_BITS = 10
_LAT_LIMIT = 1 << _LAT_BITS


class DDG:
    """Dependence edges + heights over a :class:`ScheduleProblem`.

    Two edge populations share the graph:

    * **placement edges** (``preds``/``succs``) constrain the list
      scheduler: flow, anti, output, memory, and exit requirements;
    * **height-only control edges** (``control_succs``) reproduce the
      control dependences of the paper's DDG: every op below a branch is
      control-dependent on it.  Speculation means the scheduler is free
      to *break* these at placement time (they never constrain placement
      here), but dependence heights are computed over both populations —
      which is what makes branches and compare chains tall and therefore
      urgent under the dependence-height heuristic, exactly as in the
      paper's Figure 5 schedule where the CMPPs and branches issue as
      early as their data allows.
    """

    def __init__(self, problem: ScheduleProblem):
        self.problem = problem
        n = len(problem.sched_ops)
        self._n = n
        # Flat placement-edge stream in insertion order.
        self._edge_src: List[int] = []
        self._edge_dst: List[int] = []
        self._edge_lat: List[int] = []
        # Flat height-only control-edge stream.
        self._cedge_src: List[int] = []
        self._cedge_dst: List[int] = []
        self._edge_set = set()
        self._dirty = True
        # CSR arrays (populated by finalize()).
        self.pred_ptr: List[int] = []
        self.pred_src: List[int] = []
        self.pred_lat: List[int] = []
        self.succ_ptr: List[int] = []
        self.succ_dst: List[int] = []
        self.succ_lat: List[int] = []
        self.cpred_ptr: List[int] = []
        self.cpred_src: List[int] = []
        self.csucc_ptr: List[int] = []
        self.csucc_dst: List[int] = []
        self.in_degree: List[int] = []
        #: Per-op resource classes for the list scheduler's slot caps
        #: (memory ops, branches), indexed like ``sched_ops``.
        self.is_memory: List[bool] = []
        self.is_branch: List[bool] = []
        #: producers[i][reg] = index of the SchedOp whose def of ``reg``
        #: op ``i`` reads (register flow only); used by dominator
        #: parallelism to prove two duplicates read identical values.
        self.producers: List[Dict[Register, int]] = [{} for _ in range(n)]
        #: For loads: index of the last store/call on the op's path (None
        #: when memory is untouched above it).  Dominator parallelism may
        #: only merge two duplicated loads when these match — otherwise
        #: they observe different memory states.
        self.mem_producers: List[Optional[int]] = [None] * n
        self.heights: List[int] = [0] * n

    # ------------------------------------------------------------------
    # Construction (flat appends, packed-int dedup)

    def add_edge(self, src: int, dst: int, latency: int) -> None:
        if src == dst:
            return
        if src < _IDX_LIMIT and dst < _IDX_LIMIT and latency < _LAT_LIMIT:
            key = ((src << _IDX_SHIFT) | dst) << _LAT_BITS | latency
        else:
            key = (src, dst, latency)
        edge_set = self._edge_set
        if key in edge_set:
            return
        edge_set.add(key)
        self._edge_src.append(src)
        self._edge_dst.append(dst)
        self._edge_lat.append(latency)
        self._dirty = True

    def add_control_edge(self, src: int, dst: int) -> None:
        """A breakable (height-only) control dependence at latency 1."""
        if src != dst:
            self._cedge_src.append(src)
            self._cedge_dst.append(dst)
            self._dirty = True

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edge_src)

    @property
    def num_control_edges(self) -> int:
        return len(self._cedge_src)

    # ------------------------------------------------------------------
    # CSR finalization

    def finalize(self) -> None:
        """Build the CSR arrays from the flat edge stream, and the per-op
        resource flags (idempotent).

        Per-node edge order in CSR equals global insertion order
        restricted to the node — bit-identical to what the old per-node
        append lists held, so the scheduler sees edges in the same order
        as before the flat rewrite.  The flags are built here, once per
        graph, because every list schedule over the graph (each machine
        and priority order of a group) reads them.
        """
        sched_ops = self.problem.sched_ops
        n = len(sched_ops)
        if not self._dirty and n == self._n:
            return
        if len(self.heights) < n:
            # Ops were appended after construction (copy insertion).
            self.heights.extend([0] * (n - len(self.heights)))
        self._n = n
        self.is_memory = [sop.op.is_memory for sop in sched_ops]
        self.is_branch = [sop.op.is_branch for sop in sched_ops]

        src_list, dst_list, lat_list = \
            self._edge_src, self._edge_dst, self._edge_lat
        pred_ptr = [0] * (n + 1)
        succ_ptr = [0] * (n + 1)
        for dst in dst_list:
            pred_ptr[dst + 1] += 1
        for src in src_list:
            succ_ptr[src + 1] += 1
        for i in range(n):
            pred_ptr[i + 1] += pred_ptr[i]
            succ_ptr[i + 1] += succ_ptr[i]
        m = len(src_list)
        pred_src = [0] * m
        pred_lat = [0] * m
        succ_dst = [0] * m
        succ_lat = [0] * m
        pred_fill = pred_ptr[:n]
        succ_fill = succ_ptr[:n]
        for e in range(m):
            src = src_list[e]
            dst = dst_list[e]
            lat = lat_list[e]
            slot = pred_fill[dst]
            pred_src[slot] = src
            pred_lat[slot] = lat
            pred_fill[dst] = slot + 1
            slot = succ_fill[src]
            succ_dst[slot] = dst
            succ_lat[slot] = lat
            succ_fill[src] = slot + 1
        self.pred_ptr, self.pred_src, self.pred_lat = \
            pred_ptr, pred_src, pred_lat
        self.succ_ptr, self.succ_dst, self.succ_lat = \
            succ_ptr, succ_dst, succ_lat
        self.in_degree = [pred_ptr[i + 1] - pred_ptr[i] for i in range(n)]

        csrc, cdst = self._cedge_src, self._cedge_dst
        cpred_ptr = [0] * (n + 1)
        csucc_ptr = [0] * (n + 1)
        for dst in cdst:
            cpred_ptr[dst + 1] += 1
        for src in csrc:
            csucc_ptr[src + 1] += 1
        for i in range(n):
            cpred_ptr[i + 1] += cpred_ptr[i]
            csucc_ptr[i + 1] += csucc_ptr[i]
        cm = len(csrc)
        cpred_src = [0] * cm
        csucc_dst = [0] * cm
        cpred_fill = cpred_ptr[:n]
        csucc_fill = csucc_ptr[:n]
        for e in range(cm):
            src = csrc[e]
            dst = cdst[e]
            slot = cpred_fill[dst]
            cpred_src[slot] = src
            cpred_fill[dst] = slot + 1
            slot = csucc_fill[src]
            csucc_dst[slot] = dst
            csucc_fill[src] = slot + 1
        self.cpred_ptr, self.cpred_src = cpred_ptr, cpred_src
        self.csucc_ptr, self.csucc_dst = csucc_ptr, csucc_dst
        self._dirty = False

    # ------------------------------------------------------------------

    def compute_heights(self, machine: MachineModel) -> None:
        """Longest path to any sink over placement + control edges.

        Computed in reverse topological (Kahn) order over the CSR arrays
        so late insertions — the scheduled-copies ablation adds COPY ops
        that *precede* the exit branches created before them — are
        handled regardless of index order.
        """
        self.finalize()
        n = self._n
        ops = self.problem.sched_ops
        heights = self.heights
        latency = machine.latency
        pred_ptr, pred_src = self.pred_ptr, self.pred_src
        succ_ptr, succ_dst, succ_lat = \
            self.succ_ptr, self.succ_dst, self.succ_lat
        cpred_ptr, cpred_src = self.cpred_ptr, self.cpred_src
        csucc_ptr, csucc_dst = self.csucc_ptr, self.csucc_dst

        unresolved = [
            succ_ptr[i + 1] - succ_ptr[i] + csucc_ptr[i + 1] - csucc_ptr[i]
            for i in range(n)
        ]
        ready = [i for i in range(n) if unresolved[i] == 0]
        resolved = 0
        while ready:
            i = ready.pop()
            resolved += 1
            best = latency(ops[i].op)
            for e in range(succ_ptr[i], succ_ptr[i + 1]):
                candidate = succ_lat[e] + heights[succ_dst[e]]
                if candidate > best:
                    best = candidate
            for e in range(csucc_ptr[i], csucc_ptr[i + 1]):
                candidate = 1 + heights[csucc_dst[e]]
                if candidate > best:
                    best = candidate
            heights[i] = best
            for e in range(pred_ptr[i], pred_ptr[i + 1]):
                j = pred_src[e]
                unresolved[j] -= 1
                if unresolved[j] == 0:
                    ready.append(j)
            for e in range(cpred_ptr[i], cpred_ptr[i + 1]):
                j = cpred_src[e]
                unresolved[j] -= 1
                if unresolved[j] == 0:
                    ready.append(j)
        if resolved != n:
            raise AssertionError("DDG has a cycle; heights undefined")


class _PathState:
    """Per-path dependence state carried down the tree walk.

    Forking is copy-on-write: a fork shares the parent's maps and copies
    them only on the child's first write (:meth:`own`).  The old eager
    fork deep-copied every dict and list once *per tree child*, which is
    quadratic on bushy treegions (a 40-way switch fans a full path state
    out 40 times at every level).  Sequence-valued state (``uses_since``
    values, ``loads_since``, ``side_ops``) is stored as tuples, so shared
    references are immutable and "appending" simply rebinds a fresh tuple
    on one state without touching its siblings.
    """

    __slots__ = ("last_def", "uses_since", "last_store", "loads_since",
                 "side_ops", "_owned")

    def __init__(self):
        self.last_def: Dict[Register, int] = {}
        self.uses_since: Dict[Register, Tuple[int, ...]] = {}
        self.last_store: Optional[int] = None   # last ST or CALL
        self.loads_since: Tuple[int, ...] = ()
        self.side_ops: Tuple[int, ...] = ()     # stores/calls on the path
        self._owned = True

    def fork(self) -> "_PathState":
        child = _PathState.__new__(_PathState)
        child.last_def = self.last_def
        child.uses_since = self.uses_since
        child.last_store = self.last_store
        child.loads_since = self.loads_since
        child.side_ops = self.side_ops
        child._owned = False
        # The parent now shares its dicts with the child: it must copy
        # before writing too (only relevant if it keeps processing ops).
        self._owned = False
        return child

    def own(self) -> None:
        """Make the dict-valued state private before the first write.

        Shallow copies suffice — the values (op indices / index tuples)
        are immutable — and dict order is preserved, so edge insertion
        order is bit-identical to the eager-copy implementation.
        """
        if not self._owned:
            self.last_def = dict(self.last_def)
            self.uses_since = dict(self.uses_since)
            self._owned = True


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
    ddg = DDG(problem)
    region = problem.region
    live_cache = (exit_live_sets(problem, liveness, copies)
                  if liveness is not None else None)

    stack: List[Tuple[BasicBlock, _PathState]] = [(region.root, _PathState())]
    while stack:
        block, state = stack.pop()
        for sop in problem.by_block[block.bid]:
            _add_op_edges(ddg, machine, sop, state, live_cache)
        children = region.children(block)
        # The first child (processed next, pushed last) adopts the parent
        # state outright — the parent is done with it — so linear chains
        # never copy path state at all; siblings fork copy-on-write.
        for child in reversed(children[1:]):
            stack.append((child, state.fork()))
        if children:
            stack.append((children[0], state))

    _add_control_height_edges(ddg)
    ddg.compute_heights(machine)
    return ddg


def _add_control_height_edges(ddg: DDG) -> None:
    """Height-only control dependences: branch-role ops (exit branches,
    returns, and the guard predicate ops standing in for internal
    branches) control everything homed strictly below their block."""
    problem = ddg.problem
    region = problem.region
    guard_opcodes = (Opcode.CMPP, Opcode.PAND, Opcode.PANDCN, Opcode.NINSET)

    subtree_ops: Dict[int, List[int]] = {}
    # Reverse preorder = children before parents.
    for block in reversed(list(_preorder(region))):
        own = [sop.index for sop in problem.by_block[block.bid]]
        below: List[int] = []
        for child in region.children(block):
            below.extend(subtree_ops[child.bid])
        subtree_ops[block.bid] = own + below
        if not below:
            continue
        for sop in problem.by_block[block.bid]:
            is_branch_role = sop.exit is not None or (
                sop.source is None and sop.op.opcode in guard_opcodes
            )
            if is_branch_role:
                for target in below:
                    ddg.add_control_edge(sop.index, target)


def _preorder(region) -> List[BasicBlock]:
    order: List[BasicBlock] = []
    stack = [region.root]
    while stack:
        block = stack.pop()
        order.append(block)
        stack.extend(reversed(region.children(block)))
    return order


def _add_op_edges(ddg: DDG, machine: MachineModel, sop: SchedOp,
                  state: _PathState,
                  live_cache: Optional[Dict[int, Tuple[Register, ...]]]) -> None:
    i = sop.index
    op = sop.op
    ops = ddg.problem.sched_ops

    # Flow dependences (sources + guard).
    used = op.used_registers()
    if used:
        state.own()
        for reg in used:
            producer = state.last_def.get(reg)
            if producer is not None:
                ddg.add_edge(producer, i, machine.latency(ops[producer].op))
                ddg.producers[i][reg] = producer
            state.uses_since[reg] = state.uses_since.get(reg, ()) + (i,)

    # Output / anti dependences.
    defined = op.defined_registers()
    if defined:
        state.own()
        for reg in defined:
            previous = state.last_def.get(reg)
            if previous is not None:
                spacing = max(
                    1,
                    machine.latency(ops[previous].op) - machine.latency(op) + 1,
                )
                ddg.add_edge(previous, i, spacing)
            for user in state.uses_since.get(reg, ()):
                ddg.add_edge(user, i, 0)
            state.last_def[reg] = i
            state.uses_since[reg] = ()

    # Memory ordering (loads never bypass stores; Playdoh same-cycle rule).
    if op.opcode is Opcode.LD:
        ddg.mem_producers[i] = state.last_store
        if state.last_store is not None:
            producer = ops[state.last_store].op
            latency = 0 if producer.opcode is Opcode.ST else 1
            ddg.add_edge(state.last_store, i, latency)
        state.loads_since = state.loads_since + (i,)
    elif op.opcode is Opcode.ST or op.opcode is Opcode.CALL:
        if state.last_store is not None:
            ddg.add_edge(state.last_store, i, 1)
        for load in state.loads_since:
            ddg.add_edge(load, i, 1)
        state.last_store = i
        state.loads_since = ()

    # Track side-effecting ops; record exit requirements.
    if sop.exit is not None:
        # Side effects on the path must all have issued before leaving.
        for side_op in state.side_ops:
            ddg.add_edge(side_op, i, 0)
        if live_cache is None:
            # No liveness: conservatively wait for every path def.
            for producer in state.last_def.values():
                ddg.add_edge(producer, i, 0)
        else:
            # live_cache values are pre-sorted tuples.
            for reg in live_cache[id(sop.exit)]:
                producer = state.last_def.get(reg)
                if producer is not None:
                    ddg.add_edge(producer, i, 0)
    elif op.opcode is Opcode.ST or op.opcode is Opcode.CALL:
        state.side_ops = state.side_ops + (i,)
