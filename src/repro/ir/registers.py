"""Virtual registers.

The IR uses an unbounded supply of virtual registers in three classes
(general, predicate, branch-target).  Register pressure and allocation are
outside the paper's scope — its machine models assume enough registers, and
compile-time renaming freely mints new names — so a register is just an
immutable (class, index) pair.

**Layout.**  A :class:`Register` is an ``int`` whose value is
``rank << INDEX_BITS | index``, with ranks b=1, p=2, r=3.  Renaming, the
DDG and the fingerprint key dicts and sets by register millions of times
per evaluation grid; as an ``int`` a register hashes, compares and sorts
in C.  The ranks follow the class prefixes' alphabetical order, so
integer order is (class prefix, index) order: ``sorted()`` over
registers gives the deterministic order liveness bit ids and the
fingerprint's live sets rely on.  No register is 0 (every register is
truthy), and no register equals an ``int`` below ``2**INDEX_BITS``.
"""

from __future__ import annotations

from repro.ir.types import RegClass
from repro.util.errors import IRValidationError

#: Bits of a register's value that hold its index; the class rank sits
#: above them.
INDEX_BITS = 32
#: Exclusive upper bound of a register index.
INDEX_LIMIT = 1 << INDEX_BITS
_INDEX_MASK = INDEX_LIMIT - 1

#: Class -> rank, the value's bits above the index.
RANKS = {RegClass.BTR: 1, RegClass.PRED: 2, RegClass.GPR: 3}
#: Rank -> class (index 0 is no class: no register has rank 0).
CLASSES = (None, RegClass.BTR, RegClass.PRED, RegClass.GPR)
#: Rank -> printed prefix.
PREFIXES = (None, "b", "p", "r")


class Register(int):
    """A virtual register, e.g. ``r3``, ``p1``, ``b2``.

    An ``int`` (see the module docstring for the layout), so registers
    key dicts and sets with C-level hashing and equality, and order by
    class, then index.
    """

    __slots__ = ()

    def __new__(cls, rclass: RegClass, index: int) -> "Register":
        if not 0 <= index < INDEX_LIMIT:
            raise ValueError(
                f"register index {index} is outside 0..{INDEX_LIMIT - 1}")
        return int.__new__(cls, RANKS[rclass] << INDEX_BITS | index)

    @property
    def rclass(self) -> RegClass:
        return CLASSES[self >> INDEX_BITS]

    @property
    def index(self) -> int:
        return self & _INDEX_MASK

    def __reduce__(self):
        return (Register, (self.rclass, self.index))

    def __str__(self) -> str:
        return f"{PREFIXES[self >> INDEX_BITS]}{self & _INDEX_MASK}"

    def __repr__(self) -> str:
        return f"Register({self})"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)


class RegisterFactory:
    """Allocates fresh virtual registers for one function.

    Renaming during scheduling and guard synthesis both need names that are
    guaranteed not to collide with anything in the function, so the factory
    lives on :class:`~repro.ir.function.Function` and is threaded through
    every pass that creates registers.
    """

    def __init__(self):
        self._next = {rclass: 0 for rclass in RegClass}

    def fresh(self, rclass: RegClass) -> Register:
        """Return a never-before-seen register of the given class.

        Raises :class:`IRValidationError` when the function already
        uses the class's largest index, so no fresh name is left.
        """
        index = self._next[rclass]
        try:
            register = Register(rclass, index)
        except ValueError:
            raise IRValidationError(
                f"no fresh {rclass.prefix} register: every index below "
                f"2**{INDEX_BITS} is taken or reserved") from None
        self._next[rclass] = index + 1
        return register

    def fresh_gpr(self) -> Register:
        return self.fresh(RegClass.GPR)

    def fresh_pred(self) -> Register:
        return self.fresh(RegClass.PRED)

    def fresh_btr(self) -> Register:
        return self.fresh(RegClass.BTR)

    def reserve(self, register: Register) -> None:
        """Record an externally-created register so ``fresh`` avoids it."""
        nxt = self._next[register.rclass]
        if register.index >= nxt:
            self._next[register.rclass] = register.index + 1

    def reserve_bounds(self, bounds) -> None:
        """Reserve every index below precomputed per-class bounds.

        Takes a ``{RegClass: next_free_index}`` map (see
        :func:`repro.ir.analysis_cache.register_bounds_of`) so callers that
        already know the function-wide maxima skip the per-register walk.
        """
        for rclass, nxt in bounds.items():
            if nxt > self._next[rclass]:
                self._next[rclass] = nxt

    def next_index(self, rclass: RegClass) -> int:
        """The index the next ``fresh`` call would use (for tests)."""
        return self._next[rclass]
