"""Schedule data structures.

A :class:`SchedOp` is the scheduler's private view of one operation: the
underlying (possibly synthesized) :class:`~repro.ir.operation.Operation`
is cloned on entry, so scheduling never mutates the program IR.

A scheduler decides a :class:`ScheduleRecord`: each op's cycle, the
order ops were placed in, the dominator-parallelism merges, and the
figures the paper's estimate needs (exit retire cycles, length, copy,
merge and speculation counts).  The evaluation grid reads only those
figures.  A :class:`RegionSchedule` is the full form, built from a
record by :meth:`RegionSchedule.materialize` where placements are read:
MultiOps (one list of SchedOps per cycle), per-exit retire records, and
the same bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.cfg import BasicBlock
from repro.ir.operation import Operation
from repro.ir.registers import Register
from repro.regions.region import Region, RegionExit


class SchedOp:
    """One schedulable operation inside a region scheduling problem."""

    __slots__ = (
        "index",
        "op",
        "home",
        "exit",
        "source",
        "cycle",
        "slot",
        "merged_into",
    )

    def __init__(
        self,
        index: int,
        op: Operation,
        home: BasicBlock,
        exit: Optional[RegionExit] = None,
        source: Optional[Operation] = None,
    ):
        #: Dense index; DDG adjacency and priority vectors are keyed on it.
        self.index = index
        #: The operation as scheduled (a private clone; mutation is safe).
        self.op = op
        #: The block this op belongs to in the region tree (its position
        #: *before* any speculation) — priorities read weight/exit counts
        #: from here.
        self.home = home
        #: For exit branch / RET ops: the region exit this op retires.
        self.exit = exit
        #: The original program op this was derived from (None for
        #: synthesized guards/PBRs/exit branches).
        self.source = source
        #: Assigned issue cycle (1-based) and slot, once scheduled.
        self.cycle: Optional[int] = None
        self.slot: Optional[int] = None
        #: Set when dominator parallelism eliminated this op in favour of
        #: an already-scheduled duplicate.
        self.merged_into: Optional["SchedOp"] = None

    @property
    def is_exit(self) -> bool:
        return self.exit is not None

    @property
    def scheduled(self) -> bool:
        return self.cycle is not None or self.merged_into is not None

    @property
    def effective_cycle(self) -> Optional[int]:
        """The cycle whose results this op's consumers see."""
        if self.merged_into is not None:
            return self.merged_into.effective_cycle
        return self.cycle

    def __repr__(self) -> str:
        from repro.ir.printer import format_operation

        tag = f"c{self.cycle}" if self.cycle is not None else "unsched"
        return f"<sop{self.index} [{tag}] {format_operation(self.op)}>"


class ExitRecord:
    """A region exit with its retire cycle (1-based) after scheduling."""

    __slots__ = ("exit", "cycle")

    def __init__(self, exit: RegionExit, cycle: int):
        self.exit = exit
        self.cycle = cycle

    @property
    def weight(self) -> float:
        return self.exit.weight

    @property
    def weighted_cycles(self) -> float:
        return self.exit.weight * self.cycle

    def __repr__(self) -> str:
        return f"<exit {self.exit!r} retires @ cycle {self.cycle}>"


class ScheduleRecord:
    """One region's schedule as plain figures, built from the arrays the
    scheduler keeps; building it writes to no SchedOp or Operation.

    ``cycle_of[i]`` is op ``i``'s effective issue cycle (a merged op's
    is its survivor's), ``order`` the placed ops' indices in placement
    order (so slots follow it), ``merges`` the ``(index, survivor
    index)`` pairs dominator parallelism eliminated and ``rewired`` the
    ``(srcs, guard)`` its merges gave each consumer they rewired, by
    op index (None when there are none).  The exit cycles
    are read through ``problem.exit_ops`` in exit order, and a placed op
    is speculated when it issues no later than the op defining its home
    block's guard (``problem.speculation_pairs``).
    """

    __slots__ = ("cycle_of", "order", "merges", "rewired", "exit_cycles",
                 "length", "copies", "speculated")

    def __init__(self, problem, cycle_of: List[int], order: List[int],
                 merges: List[Tuple[int, int]], length: int,
                 copies: List[Tuple[RegionExit, Register, Register]],
                 rewired: Optional[Dict[int, Tuple[List, Optional[Register]]]]
                 = None):
        self.cycle_of = cycle_of
        self.order = order
        self.merges = merges
        self.rewired = rewired
        exit_ops = problem.exit_ops
        self.exit_cycles = tuple([cycle_of[exit_ops[id(exit)].index]
                                  for exit in problem.exits])
        self.length = length
        self.copies = copies
        pairs = problem.speculation_pairs
        if merges:
            merged = {index for index, _ in merges}
            pairs = [pair for pair in pairs if pair[0] not in merged]
        #: Indices of the speculated ops.
        self.speculated = [index for index, guard in pairs
                           if cycle_of[index] <= cycle_of[guard]]

    @property
    def copy_count(self) -> int:
        return len(self.copies)

    @property
    def merged_count(self) -> int:
        return len(self.merges)

    @property
    def speculated_count(self) -> int:
        return len(self.speculated)


class RegionSchedule:
    """The scheduled form of one region."""

    def __init__(self, region: Region):
        self.region = region
        #: cycles[c] = the MultiOp issued at cycle c+1 (list of SchedOps).
        self.cycles: List[List[SchedOp]] = []
        #: Exit retire records, in region exit order.
        self.exits: List[ExitRecord] = []
        #: Copy ops recorded by renaming: (exit, dest original register,
        #: renamed source register).  Recorded but not scheduled, matching
        #: the paper's accounting ("Copy Ops added due to renaming were
        #: not used in computing speedup").
        self.copies: List[Tuple[RegionExit, Register, Register]] = []
        #: SchedOps eliminated by dominator parallelism.
        self.merged: List[SchedOp] = []
        #: Count of ops that issued above their home guard (speculated).
        self.speculated_count = 0

    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Schedule height in cycles."""
        return len(self.cycles)

    @property
    def op_count(self) -> int:
        return sum(len(multiop) for multiop in self.cycles)

    def place(self, sop: SchedOp, cycle: int) -> None:
        """Record ``sop`` issuing at ``cycle`` (1-based)."""
        while len(self.cycles) < cycle:
            self.cycles.append([])
        multiop = self.cycles[cycle - 1]
        sop.cycle = cycle
        sop.slot = len(multiop)
        multiop.append(sop)

    @classmethod
    def materialize(cls, problem, record: ScheduleRecord) -> "RegionSchedule":
        """The full schedule of ``problem`` that ``record`` describes.

        Ops are placed in the record's placement order, so every slot is
        the one the scheduler's resource table gave it.  Every op's
        ``cycle``/``slot``/``merged_into``/``speculative`` is set, so a
        problem that held an earlier placement is overwritten whole.
        Dominator parallelism's rewired operands are written into their
        ops, which no later record can undo: a problem materializes at
        most one record that rewired (its callers prepare it fresh).
        """
        schedule = cls(problem.region)
        sched_ops = problem.sched_ops
        for sop in sched_ops:
            sop.cycle = sop.slot = sop.merged_into = None
            sop.op.speculative = False
        cycle_of = record.cycle_of
        for index in record.order:
            schedule.place(sched_ops[index], cycle_of[index])
        if record.rewired:
            for index, (srcs, guard) in record.rewired.items():
                op = sched_ops[index].op
                op.srcs[:] = srcs
                op.guard = guard
        for index, survivor in record.merges:
            sop = sched_ops[index]
            sop.merged_into = sched_ops[survivor]
            schedule.merged.append(sop)
        schedule.exits = [ExitRecord(exit, cycle) for exit, cycle
                          in zip(problem.exits, record.exit_cycles)]
        for index in record.speculated:
            sched_ops[index].op.speculative = True
        schedule.speculated_count = record.speculated_count
        schedule.copies = list(record.copies)
        return schedule

    def all_ops(self) -> List[SchedOp]:
        return [sop for multiop in self.cycles for sop in multiop]

    # ------------------------------------------------------------------
    # Stable public views.  The simulator, ``dot --schedule``, and the
    # lint certifier all read the schedule through these three accessors,
    # so they cannot drift apart on indexing conventions (1-based cycles,
    # merged ops resolving to their survivor's placement).

    def iter_bundles(self) -> Iterator[Tuple[int, List[SchedOp]]]:
        """``(cycle, MultiOp)`` pairs in issue order, cycles 1-based."""
        return enumerate(self.cycles, start=1)

    def placement(self, sop: SchedOp) -> Optional[Tuple[int, int]]:
        """The op's ``(cycle, slot)``, following dominator-parallelism
        merges to the surviving duplicate; None while unscheduled."""
        while sop.merged_into is not None:
            sop = sop.merged_into
        if sop.cycle is None or sop.slot is None:
            return None
        return (sop.cycle, sop.slot)

    def last_issue_by_block(self) -> Dict[int, int]:
        """Latest effective issue cycle per home block (bid-keyed).

        The quantity ``dot --schedule`` annotates blocks with; merged ops
        count at their survivor's cycle, like every other consumer-visible
        view of the schedule.
        """
        last: Dict[int, int] = {}
        for multiop in self.cycles:
            for sop in multiop:
                placed = self.placement(sop)
                assert placed is not None
                bid = sop.home.bid
                if placed[0] > last.get(bid, 0):
                    last[bid] = placed[0]
        for sop in self.merged:
            placed = self.placement(sop)
            if placed is None:
                continue
            bid = sop.home.bid
            if placed[0] > last.get(bid, 0):
                last[bid] = placed[0]
        return last

    def exit_cycle(self, exit: RegionExit) -> int:
        for record in self.exits:
            if record.exit is exit:
                return record.cycle
        raise KeyError(f"{exit!r} not in schedule")

    @property
    def weighted_time(self) -> float:
        """Profile-weighted execution time of this region:
        ``sum(exit weight * exit retire cycle)`` — the paper's estimate."""
        return sum(record.weighted_cycles for record in self.exits)

    @property
    def copy_count(self) -> int:
        """Renaming repair copies recorded for this region's exits."""
        return len(self.copies)

    @property
    def merged_count(self) -> int:
        """Ops eliminated by dominator parallelism."""
        return len(self.merged)

    # ------------------------------------------------------------------

    def format(self) -> str:
        """Human-readable MultiOp table (like the paper's Figures 4/5)."""
        from repro.ir.printer import format_operation

        lines = [f"schedule for {self.region!r} ({self.length} cycles)"]
        for c, multiop in enumerate(self.cycles, start=1):
            cells = " | ".join(format_operation(sop.op) for sop in multiop)
            lines.append(f"  {c:3}: {cells}")
        for record in self.exits:
            lines.append(f"  {record!r}")
        if self.copies:
            lines.append(f"  rename copies: {len(self.copies)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<schedule {self.region.kind} len={self.length} "
            f"ops={self.op_count} exits={len(self.exits)}>"
        )
