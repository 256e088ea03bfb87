"""Live-variable analysis.

The treegion scheduler needs to know, for a register defined inside a
region, whether it is live-out along a given exit: speculating a def above a
branch is only a *live-out violation* (requiring renaming) when the original
value is still needed on the other arm (Section 3; the paper's ``r6 = 5``
example is exactly the non-live-out case where no repair is needed).

This is the textbook backward may-analysis over virtual registers, computed
per function.  Guards count as uses.

**Dense register ids.**  Every register the CFG's ops mention gets a
dense id, assigned once in sorted register order (a register is an
``int``, see :mod:`repro.ir.registers`), so bit ``i`` of a set stands
for the ``i``-th register in sorted order and ascending bit order is
sorted register order.  Per-block use, def, live-in and live-out sets
are Python ``int`` bitsets and the fixpoint runs over ints: a union is
one ``|``, a difference one ``& ~``, an equality test one ``!=``.  The
hot pipeline questions are bit operations and never build a whole set:
is this register live into any of these exits (its
:meth:`LivenessInfo.bit` against :meth:`LivenessInfo.live_into_edges`),
and which of these registers are live into that exit
(:meth:`LivenessInfo.live_into_edge_masked`, under a
:meth:`LivenessInfo.mask` that renaming, the DDG builders and the
region fingerprint build once per region).  Callers that want the
whole set (dead code elimination, the synthetic generator, the
schedule certifier, the DDG's repair path) get it from
:meth:`LivenessInfo.live_in` / :meth:`LivenessInfo.live_out`, decoded
once per block and cached.
"""

from __future__ import annotations

from itertools import repeat
from typing import AbstractSet, Dict, FrozenSet, List, Tuple

from repro.ir.cfg import CFG, BasicBlock
from repro.ir.registers import Register


class LivenessInfo:
    """Per-block live-in/live-out register bitsets for one CFG.

    ``registers`` lists the CFG's registers in sorted order; bit ``i``
    of every set stands for ``registers[i]``, whose single-bit mask
    ``bits`` maps it to.  A register outside that numbering (minted
    after the analysis ran) is never live.
    """

    __slots__ = ("_registers", "_bits", "_live_in", "_live_out",
                 "_decoded_in", "_decoded_out")

    def __init__(self, registers: Tuple[Register, ...],
                 bits: Dict[Register, int],
                 live_in: Dict[int, int], live_out: Dict[int, int]):
        self._registers = registers
        self._bits = bits
        self._live_in = live_in
        self._live_out = live_out
        self._decoded_in: Dict[int, FrozenSet[Register]] = {}
        self._decoded_out: Dict[int, FrozenSet[Register]] = {}

    # -- bits ----------------------------------------------------------

    def mask(self, registers: AbstractSet[Register]) -> int:
        """The bitset of a set of registers (unnumbered ones contribute
        no bit)."""
        return sum(map(self._bits.get, registers, repeat(0)))

    def _decode(self, bits: int) -> Tuple[Register, ...]:
        """The registers of a bitset, in sorted order.  Costs one step
        per set bit."""
        registers = self._registers
        out: List[Register] = []
        while bits:
            low = bits & -bits
            out.append(registers[low.bit_length() - 1])
            bits ^= low
        return tuple(out)

    # -- sets ----------------------------------------------------------

    def live_in(self, block: BasicBlock) -> FrozenSet[Register]:
        return self._decoded(self._decoded_in, self._live_in, block.bid)

    def live_out(self, block: BasicBlock) -> FrozenSet[Register]:
        return self._decoded(self._decoded_out, self._live_out, block.bid)

    def _decoded(self, cache: Dict[int, FrozenSet[Register]],
                 table: Dict[int, int], bid: int) -> FrozenSet[Register]:
        decoded = cache.get(bid)
        if decoded is None:
            decoded = cache[bid] = frozenset(self._decode(table.get(bid, 0)))
        return decoded

    # -- edges ---------------------------------------------------------

    def live_into_edge(self, edge) -> FrozenSet[Register]:
        """Registers live on entry to the edge's destination.

        Edge-granular liveness (live-out restricted to one successor) is
        what the renaming pass actually asks about; with a may-analysis the
        destination's live-in is the precise answer.
        """
        return self.live_in(edge.dst)

    def bit(self, register: Register) -> int:
        """The register's single-bit mask (0 when it is unnumbered)."""
        return self._bits.get(register, 0)

    def live_into_edges(self, edges) -> int:
        """The union of the edges' live-in bitsets: a register is live
        into one of them when its :meth:`bit` is in the union."""
        live_in = self._live_in
        union = 0
        for edge in edges:
            union |= live_in.get(edge.dst.bid, 0)
        return union

    def live_into_edge_within(
        self, edge, registers: AbstractSet[Register]
    ) -> Tuple[Register, ...]:
        """The registers of ``registers`` live into the edge, sorted.

        Equal to the sorted live-in set filtered to ``registers``, in
        the same order, but it costs in proportion to ``registers`` and
        the result: a region's exits carry the whole function's live set
        (about a hundred registers on the built-in workloads), of which
        the region touches a handful.
        """
        return self.live_into_edge_masked(edge, self.mask(registers))

    def live_into_edge_masked(self, edge, mask: int) -> Tuple[Register, ...]:
        """``live_into_edge_within`` for registers already turned into a
        :meth:`mask`: a caller asking about several exits builds the
        mask once."""
        return self._decode(self._live_in.get(edge.dst.bid, 0) & mask)


def compute_liveness(cfg: CFG) -> LivenessInfo:
    """Number the CFG's registers, then run the backward fixed point
    over bitsets."""
    # Both walks read operands in place (guards count as uses): no
    # per-op lists, which in a large process mean garbage collections.
    blocks = cfg.reverse_postorder()
    registers = set()
    for block in blocks:
        for op in block.ops:
            registers.update(op.dests)
            for src in op.srcs:
                if isinstance(src, Register):
                    registers.add(src)
            if op.guard is not None:
                registers.add(op.guard)
    numbered = tuple(sorted(registers))
    bits = {register: 1 << index for index, register in enumerate(numbered)}

    # Per block: upward-exposed uses, and the complement of the defs.
    use: List[int] = []
    keep: List[int] = []
    for block in blocks:
        uses = defs = 0
        for op in block.ops:
            for src in op.srcs:
                if isinstance(src, Register):
                    uses |= bits[src] & ~defs
            if op.guard is not None:
                uses |= bits[op.guard] & ~defs
            for register in op.dests:
                defs |= bits[register]
        use.append(uses)
        keep.append(~defs)

    position = {block.bid: index for index, block in enumerate(blocks)}
    successors = [[position[edge.dst.bid] for edge in block.out_edges]
                  for block in blocks]
    # Every live-in holds its block's uses, so starting there (not at
    # the empty set) reaches the same least fixed point; live-in then
    # changes only when live-out does.
    live_in = list(use)
    live_out = [0] * len(blocks)

    # Iterate blocks in reverse RPO for fast convergence.
    order = range(len(blocks) - 1, -1, -1)
    changed = True
    while changed:
        changed = False
        for index in order:
            out = 0
            for succ in successors[index]:
                out |= live_in[succ]
            if out != live_out[index]:
                live_out[index] = out
                live_in[index] = use[index] | (out & keep[index])
                changed = True

    return LivenessInfo(
        numbered, bits,
        {block.bid: live_in[index] for index, block in enumerate(blocks)},
        {block.bid: live_out[index] for index, block in enumerate(blocks)},
    )
