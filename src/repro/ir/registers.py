"""Virtual registers.

The IR uses an unbounded supply of virtual registers in three classes
(general, predicate, branch-target).  Register pressure and allocation are
outside the paper's scope — its machine models assume enough registers, and
compile-time renaming freely mints new names — so registers here are simple
immutable (class, index) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.types import RegClass


@dataclass(frozen=True, order=True)
class Register:
    """A virtual register, e.g. ``r3``, ``p1``, ``b2``.

    Frozen so registers can key dicts and sets; ordering (by class then
    index) makes sorted dumps deterministic.
    """

    rclass: RegClass
    index: int

    def __post_init__(self):
        # Registers key the DDG's producer maps and the renamer's live
        # sets millions of times per evaluation grid; the generated hash
        # re-hashes the enum member on every probe, so precompute once.
        object.__setattr__(self, "_hash", hash((self.rclass, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled register recomputes
        # ``_hash`` under the receiving interpreter's hash seed.
        return (Register, (self.rclass, self.index))

    def __str__(self) -> str:
        return f"{self.rclass.prefix}{self.index}"

    def __repr__(self) -> str:
        return f"Register({self})"


def register_key(register: Register):
    """Sort key ordering registers as ``Register``'s own comparison
    does (class, then index), without a generated ``__lt__`` call per
    comparison; hot paths sort live sets with it."""
    return (register.rclass.value, register.index)


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
        """Return a never-before-seen register of the given class."""
        index = self._next[rclass]
        self._next[rclass] = index + 1
        return Register(rclass, index)

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
