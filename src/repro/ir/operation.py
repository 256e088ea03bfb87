"""IR operations (the paper's "Ops").

An :class:`Operation` is one machine operation: at most a few destination
registers, a list of source operands (registers or immediates), an optional
guard predicate (Playdoh-style predicated execution), and opcode-specific
payload (compare condition, branch target, callee name).

Two bookkeeping fields support the paper's algorithms:

* ``uid`` — unique within the function; DDG nodes and schedules refer to ops
  by identity, and uids make dumps stable.
* ``origin`` — the uid of the op this one was cloned from by tail
  duplication (or its own uid if original).  Dominator parallelism
  (Section 4 of the paper) eliminates a duplicated op when another op with
  the same origin is already scheduled in a dominating position, so clones
  must remember their family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.ir.types import CompareCond, Immediate, Opcode
from repro.ir.registers import Register

Operand = Union[Register, Immediate]


class Operation:
    """A single IR operation.

    Mutable by design: renaming, predication, and tail duplication all
    rewrite operands in place.  Identity (not value) equality is used
    throughout so the same textual op appearing twice stays two nodes.
    """

    __slots__ = (
        "uid",
        "opcode",
        "dests",
        "srcs",
        "guard",
        "cond",
        "target",
        "callee",
        "origin",
        "speculative",
    )

    def __init__(
        self,
        uid: int,
        opcode: Opcode,
        dests: Sequence[Register] = (),
        srcs: Sequence[Operand] = (),
        guard: Optional[Register] = None,
        cond: Optional[CompareCond] = None,
        target: Optional[int] = None,
        callee: Optional[str] = None,
        origin: Optional[int] = None,
    ):
        self.uid = uid
        self.opcode = opcode
        self.dests: List[Register] = list(dests)
        self.srcs: List[Operand] = list(srcs)
        self.guard = guard
        self.cond = cond
        self.target = target  # destination block id for branches / PBR
        self.callee = callee
        self.origin = uid if origin is None else origin
        # Set by the scheduler when the op is hoisted above a branch it was
        # control-dependent on.  Purely informational outside scheduling.
        self.speculative = False

    # ------------------------------------------------------------------
    # Operand accessors

    @property
    def dest(self) -> Register:
        """The single destination (raises if there is not exactly one)."""
        if len(self.dests) != 1:
            raise ValueError(f"op {self} has {len(self.dests)} dests")
        return self.dests[0]

    def defined_registers(self) -> List[Register]:
        """Registers written by this op."""
        return list(self.dests)

    def used_registers(self) -> List[Register]:
        """Registers read by this op, including the guard predicate."""
        used = [src for src in self.srcs if isinstance(src, Register)]
        if self.guard is not None:
            used.append(self.guard)
        return used

    def source_registers(self) -> List[Register]:
        """Registers read as data sources (guard excluded)."""
        return [src for src in self.srcs if isinstance(src, Register)]

    def replace_uses(self, old: Register, new: Register) -> int:
        """Rewrite reads of ``old`` (sources and guard) to ``new``.

        Returns the number of operands rewritten.
        """
        count = 0
        for i, src in enumerate(self.srcs):
            if src == old:
                self.srcs[i] = new
                count += 1
        if self.guard == old:
            self.guard = new
            count += 1
        return count

    def replace_defs(self, old: Register, new: Register) -> int:
        """Rewrite writes of ``old`` to ``new``; returns rewrite count."""
        count = 0
        for i, dst in enumerate(self.dests):
            if dst == old:
                self.dests[i] = new
                count += 1
        return count

    # ------------------------------------------------------------------
    # Classification helpers

    @property
    def is_branch(self) -> bool:
        return self.opcode.is_branch

    @property
    def is_terminator(self) -> bool:
        return self.opcode.is_terminator

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.ST

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LD

    @property
    def can_speculate(self) -> bool:
        """True if the op may execute before its guarding branch resolves.

        Stores, calls, and control ops may not; everything else may, with
        register renaming repairing any live-out violations (Section 3).
        """
        return not self.opcode.has_side_effects

    def same_computation(self, other: "Operation", srcs=None,
                         other_srcs=None) -> bool:
        """True if both ops compute the same value from the same operands.

        Used by dominator parallelism: two tail-duplication clones may only
        be merged when, *after renaming*, they still read identical operands
        (otherwise the clones genuinely compute different values).
        ``srcs``/``other_srcs`` stand in for the ops' own sources when the
        scheduler has rewired them.
        """
        return (
            self.opcode is other.opcode
            and self.cond is other.cond
            and (self.srcs if srcs is None else srcs)
            == (other.srcs if other_srcs is None else other_srcs)
            and self.target == other.target
            and self.callee == other.callee
        )

    # ------------------------------------------------------------------
    # Cloning

    def clone(self, uid: int) -> "Operation":
        """Copy this op under a new uid, preserving ``origin``.

        Tail duplication uses this; the clone's ``origin`` points back at
        the family root so dominator parallelism can recognize siblings.
        """
        op = Operation(
            uid,
            self.opcode,
            dests=list(self.dests),
            srcs=list(self.srcs),
            guard=self.guard,
            cond=self.cond,
            target=self.target,
            callee=self.callee,
            origin=self.origin,
        )
        return op

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        from repro.ir.printer import format_operation

        return f"<op{self.uid} {format_operation(self)}>"
