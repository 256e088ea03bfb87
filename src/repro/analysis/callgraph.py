"""Whole-program call graph with profile-weighted call-site ranking.

Call sites are syntactic (``CALL`` ops name their callee directly — the
IR has no indirect calls), so graph construction is one walk over every
function.  Each site carries the profile weight of its enclosing block;
ranking sites by that weight is exactly the order a demand-driven
inliner wants to consider them in (Way & Pollock: inline the hottest
call sites first, under a region-size budget), which is the ROADMAP
item this graph is the landing point for.

The graph is a value object: build once, query cheaply.  It is cached
program-wide in :mod:`repro.ir.analysis_cache`, keyed on the tuple of
every member CFG's version counter.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set

from repro.ir.cfg import BasicBlock
from repro.ir.function import Program
from repro.ir.operation import Operation
from repro.ir.types import Opcode


class CallSite(NamedTuple):
    """One static call: where it sits and how hot the profile says it is."""

    caller: str
    callee: str
    block: BasicBlock
    op: Operation
    weight: float


class CallGraph:
    """Static call graph of one program."""

    def __init__(self, program: Program):
        self.program = program
        #: Every call site, in (function, block, op) discovery order.
        self.sites: List[CallSite] = []
        #: caller name -> set of callee names (resolved or not).
        self.callees: Dict[str, Set[str]] = {}
        #: callee name -> set of caller names.
        self.callers: Dict[str, Set[str]] = {}
        #: Callee names with no matching function in the program.
        self.external: Set[str] = set()

        for function in program.functions():
            self.callees.setdefault(function.name, set())
            for block in function.cfg.blocks():
                for op in block.ops:
                    if op.opcode is not Opcode.CALL or not op.callee:
                        continue
                    site = CallSite(function.name, op.callee, block, op,
                                    block.weight)
                    self.sites.append(site)
                    self.callees[function.name].add(op.callee)
                    self.callers.setdefault(op.callee, set()).add(
                        function.name
                    )
                    if not program.has_function(op.callee):
                        self.external.add(op.callee)

    # ------------------------------------------------------------------

    def ranked_sites(self, limit: Optional[int] = None) -> List[CallSite]:
        """Call sites hottest-first (ties broken by discovery order)."""
        order = sorted(
            range(len(self.sites)),
            key=lambda i: (-self.sites[i].weight, i),
        )
        if limit is not None:
            order = order[:limit]
        return [self.sites[i] for i in order]

    def is_leaf(self, name: str) -> bool:
        """True when ``name`` calls nothing (an inliner's best target)."""
        return not self.callees.get(name)

    def recursive_functions(self) -> Set[str]:
        """Functions on a call cycle (self-recursion included).

        Iterative DFS per SCC-free shortcut: a function is recursive iff
        it can reach itself through the callee relation.
        """
        recursive: Set[str] = set()
        for name in self.callees:
            stack = list(self.callees.get(name, ()))
            seen: Set[str] = set()
            while stack:
                current = stack.pop()
                if current == name:
                    recursive.add(name)
                    break
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(self.callees.get(current, ()))
        return recursive

    def to_json(self) -> Dict[str, object]:
        return {
            "functions": sorted(self.callees),
            "external": sorted(self.external),
            "recursive": sorted(self.recursive_functions()),
            "edges": [
                {
                    "caller": site.caller,
                    "callee": site.callee,
                    "block": site.block.bid,
                    "weight": site.weight,
                    "resolved": site.callee not in self.external,
                }
                for site in self.ranked_sites()
            ],
        }

    def __repr__(self) -> str:
        return (f"<callgraph functions={len(self.callees)} "
                f"sites={len(self.sites)}>")
