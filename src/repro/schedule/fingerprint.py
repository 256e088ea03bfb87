"""Canonical content fingerprints for regions and machines.

Treegion scheduling is per-region and single-pass: the schedule a region
receives is a pure function of (region content, machine model, heuristic,
flags).  That makes per-region results memoizable the same way
content-addressed whole-program results already are in :mod:`repro.serve`
— provided the key captures *exactly* the inputs the pipeline reads.
This module computes that key: a SHA-256 digest of a canonical
serialization of everything prep, renaming, the DDG builder, and the
list scheduler can observe about a region.

**What is in the key** (see ``DESIGN.md`` for the derivation):

* the block tree: every member in ``region.blocks`` order (which fixes
  the tree shape, the children order, *and* the ``region.exits()``
  order) with its parent's position;
* the op stream of every block, opcodes/conditions/callees verbatim and
  operands renumbered: virtual registers get dense per-class
  first-appearance ids, branch-target labels get in-region positions or
  dense external ids, tail-duplication ``origin`` uids get dense
  equivalence-class ids (dominator parallelism groups merge candidates
  by origin);
* block and edge profile weights, quantized with the serve layer's
  ``%g`` convention (the same precision the textual IR round-trips);
* every out-edge of every member (kind, case value, weight, and whether
  it leaves the region — the exit structure);
* per exit edge, the registers live into the exit **restricted to
  registers appearing in the region's ops**, emitted in sorted original
  order as normalized ids.  Liveness reaches the scheduling pipeline
  only through these per-exit sets; registers that never appear in the
  region produce no edges, no renames, and no copies, so they are
  excluded — but the *relative sorted order* of the appearing ones is
  preserved, because renaming and the DDG iterate live sets in sorted
  order.  The mask of the appearing registers is built once per region
  from the liveness's dense register ids; each exit's set is its
  live-in bits under that mask, whose bit order is that sorted order.

**What is not in the key**: op uids (identity bookkeeping), absolute
register indices and block ids (alpha-renamed regions hash equal), the
surrounding function (fresh registers minted during scheduling always
sort after every function register, whatever the function-wide bounds
are), and full-precision float weights beyond ``%g`` (the accepted
hazard shared with :func:`repro.serve.store.cell_key`, whose program
text also carries ``%g`` weights).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.ir.liveness import LivenessInfo
from repro.ir.registers import INDEX_BITS, PREFIXES, Register
from repro.machine.model import MachineModel
from repro.regions.region import Region

#: Revision of the fingerprint serialization.  Bump when the canonical
#: form changes; memoized entries then key differently and age out.
FINGERPRINT_FORMAT = 1

#: Attribute used to cache the digest on the region object, keyed by the
#: owning CFG's version so any structural edit invalidates it.
_CACHE_ATTR = "_content_fingerprint"


def machine_fingerprint(machine: MachineModel) -> str:
    """A stable textual fingerprint of everything that shapes schedules.

    This is the canonical definition; :mod:`repro.serve.store` re-exports
    it so cell keys and region keys agree on what "the same machine"
    means.
    """
    from repro.ir.types import Opcode

    latencies = ",".join(
        f"{opcode.value}={machine.latency_of(opcode)}"
        for opcode in sorted(Opcode, key=lambda o: o.value)
    )
    return (
        f"{machine.name}:w{machine.issue_width}:lat[{latencies}]"
        f":dl{machine.default_latency}:btr{int(machine.use_btr)}"
        f":mem{machine.max_memory_per_cycle}"
        f":br{machine.max_branches_per_cycle}"
    )


def latency_fingerprint(machine: MachineModel) -> str:
    """Fingerprint of only what shapes DDGs and priority keys.

    The DDG builder and the height/priority computations read the machine
    exclusively through ``machine.latency`` (issue width and per-cycle
    caps matter only to slot *placement*, which happens later in the list
    scheduler), and the prepared problem they run over depends on
    ``use_btr``.  Machines equal under this fingerprint — like the
    paper's 4U and 8U — can therefore share one DDG and one set of
    priority keys per region.
    """
    from repro.ir.types import Opcode

    latencies = ",".join(
        f"{opcode.value}={machine.latency_of(opcode)}"
        for opcode in sorted(Opcode, key=lambda o: o.value)
    )
    return (f"lat[{latencies}]:dl{machine.default_latency}"
            f":btr{int(machine.use_btr)}")


class _Canonicalizer:
    """First-appearance renumbering maps for one region serialization."""

    __slots__ = ("regs", "class_counts", "labels", "origins", "block_pos",
                 "parts")

    def __init__(self, region: Region):
        #: Register -> dense per-class id ("r0", "p1", ...), assigned in
        #: op-stream appearance order.
        self.regs: Dict[Register, str] = {}
        #: Per register class rank: how many ids ``regs`` has handed out.
        self.class_counts: List[int] = [0] * len(PREFIXES)
        #: External branch-target bid -> dense id ("x0", ...).
        self.labels: Dict[int, str] = {}
        #: Tail-duplication origin uid -> dense id ("o0", ...).
        self.origins: Dict[int, str] = {}
        #: Member bid -> position in region.blocks (in-region labels).
        self.block_pos: Dict[int, int] = {
            block.bid: position for position, block in enumerate(region.blocks)
        }
        self.parts: List[str] = []

    # -- operand renumbering -------------------------------------------

    def reg(self, register: Register) -> str:
        return self.regs.get(register) or self.new_reg(register)

    def new_reg(self, register: Register) -> str:
        """Name a register on its first appearance: its class prefix and
        the count of its class named before it."""
        rank = register >> INDEX_BITS
        count = self.class_counts[rank]
        self.class_counts[rank] = count + 1
        name = self.regs[register] = f"{PREFIXES[rank]}{count}"
        return name

    def label(self, bid: Optional[int]) -> str:
        if bid is None:
            return "-"
        position = self.block_pos.get(bid)
        if position is not None:
            return f"b{position}"
        name = self.labels.get(bid)
        if name is None:
            name = f"x{len(self.labels)}"
            self.labels[bid] = name
        return name

    def origin(self, uid: int) -> str:
        name = self.origins.get(uid)
        if name is None:
            name = f"o{len(self.origins)}"
            self.origins[uid] = name
        return name

    # -- op serialization ----------------------------------------------

    def op(self, operation) -> str:
        # Each register operand is one dict probe; only a first
        # appearance calls ``new_reg``.  Immediates print their repr,
        # which distinguishes 1 from 1.0 exactly as the interpreter and
        # scheduler do.  Dests, then sources, then the guard: the order
        # first appearances are numbered in.
        get = self.regs.get
        new_reg = self.new_reg
        dests = ",".join([get(dest) or new_reg(dest)
                          for dest in operation.dests])
        srcs = ",".join([(get(src) or new_reg(src))
                         if isinstance(src, Register) else f"#{src.value!r}"
                         for src in operation.srcs])
        guard = operation.guard
        cond = operation.cond
        callee = operation.callee
        return "|".join((
            operation.opcode.value,
            cond.value if cond is not None else "-",
            dests,
            srcs,
            (get(guard) or new_reg(guard)) if guard is not None else "-",
            self.label(operation.target),
            callee if callee is not None else "-",
            self.origin(operation.origin),
        ))


def region_fingerprint(region: Region,
                       liveness: Optional[LivenessInfo] = None) -> str:
    """SHA-256 hex digest of the region's canonical content.

    Two regions with equal fingerprints are scheduled bit-identically
    for any (machine, heuristic, flags): same cycle count, same per-exit
    retire cycles, same copy/merge/speculation counts, same pipeline
    counters.  ``liveness`` must be the CFG's liveness info whenever the
    caller schedules with liveness (the engine always does); passing
    None keys the conservative no-liveness pipeline instead.

    The parts are NUL-terminated and hashed in one ``sha256`` call.  The
    digest is cached on the region keyed by ``cfg.version``, so repeated
    calls across the heuristic/machine sweep of a grid row are one dict
    probe.
    """
    cfg = region.root.cfg
    version = cfg.version if cfg is not None else -1
    cached = getattr(region, _CACHE_ATTR, None)
    if cached is not None and cached[0] == version:
        return cached[1]

    canon = _Canonicalizer(region)
    parts = canon.parts
    parts.append(f"region-fp-{FINGERPRINT_FORMAT}")
    parts.append(region.kind)

    appearing = set()
    for block in region.blocks:
        for op in block.ops:
            appearing.update(op.dests)
            for src in op.srcs:
                if isinstance(src, Register):
                    appearing.add(src)
            if op.guard is not None:
                appearing.add(op.guard)
    mask = liveness.mask(appearing) if liveness is not None else 0

    for position, block in enumerate(region.blocks):
        parent = region.parent(block)
        parts.append(
            f"B{position}"
            f":p{canon.block_pos[parent.bid] if parent is not None else -1}"
            f":w{block.weight:g}"
        )
        for op in block.ops:
            parts.append(canon.op(op))
        for edge in block.out_edges:
            in_region = edge.dst in region and edge.dst is not region.root
            case = edge.case_value if edge.case_value is not None else "-"
            parts.append(
                f"E:{edge.kind.value}:{case}:w{edge.weight:g}"
                f":{canon.label(edge.dst.bid)}"
                f":{'in' if in_region else 'exit'}"
            )
            if not in_region:
                if liveness is None:
                    live = "?"
                else:
                    live = ",".join(map(canon.reg, liveness
                                        .live_into_edge_masked(edge, mask)))
                parts.append(f"L:{live}")

    parts.append("")  # NUL-terminates the last part
    fingerprint = hashlib.sha256(
        "\x00".join(parts).encode("utf-8")).hexdigest()
    try:
        setattr(region, _CACHE_ATTR, (version, fingerprint))
    except AttributeError:
        pass  # a slotted Region subclass: recompute per call
    return fingerprint
