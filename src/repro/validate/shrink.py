"""Delta-debugging minimizer for oracle failures.

When the oracle flags a program, the raw reproducer is usually dozens of
blocks of machine-generated noise.  This module shrinks it while the
*same* failure keeps reproducing — same check category on the same grid
cell with the same inputs — using three reduction passes iterated to a
fixpoint:

* **branch folding** — rewrite a conditional/switch terminator into an
  unconditional jump to one successor, then garbage-collect whatever
  became unreachable (the big structural wins);
* **op deletion** — greedy chunked ddmin over every non-terminator op
  (halving chunk sizes, classic delta debugging);
* **function deletion** — drop non-entry functions no remaining call
  references.

Every candidate is validated structurally first and then re-judged by
the oracle predicate; a candidate that changes the failure (or fixes it,
or crashes differently) is simply rejected, which is what lets the
passes be aggressive about strictness — deleting a def whose uses remain
turns into an ``interp-crash`` mismatch, a *different* category, so the
candidate is discarded.  The result is wrapped in a structured
:class:`FailureReport` (JSON-ready) carrying the minimized IR text, the
failing cell, and the first divergence point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.clone import clone_program
from repro.ir.function import Program
from repro.ir.printer import format_program
from repro.ir.types import Opcode
from repro.ir.verify import verify_program
from repro.util.errors import IRValidationError
from repro.validate.generator import GeneratedProgram
from repro.validate.oracle import (
    ROUTES,
    Cell,
    Mismatch,
    OracleReport,
    check_ir,
    check_routes,
    default_grid,
)


def total_ops(program: Program) -> int:
    return sum(f.cfg.total_ops for f in program.functions())


@dataclass
class FailureReport:
    """One minimized oracle failure, ready for ``json.dumps``."""

    seed: int
    name: str
    origin: str
    check: str
    cell: Optional[str]
    inputs: Optional[List[object]]
    detail: str
    original_ops: int
    minimized_ops: int
    trials: int
    program_text: str
    source: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "name": self.name,
            "origin": self.origin,
            "check": self.check,
            "cell": self.cell,
            "inputs": self.inputs,
            "detail": self.detail,
            "original_ops": self.original_ops,
            "minimized_ops": self.minimized_ops,
            "trials": self.trials,
            "program_text": self.program_text,
            "source": self.source,
        }


# ----------------------------------------------------------------------
# The shrinker


Predicate = Callable[[Program], bool]


class Shrinker:
    """Iterates reduction passes while ``predicate`` keeps holding."""

    def __init__(self, program: Program, predicate: Predicate,
                 max_trials: int = 3000):
        self.best = program
        self.predicate = predicate
        self.max_trials = max_trials
        self.trials = 0

    # -- candidate plumbing ------------------------------------------

    def _exhausted(self) -> bool:
        return self.trials >= self.max_trials

    def _accept(self, candidate: Program) -> bool:
        """True (and adopt) if the candidate still shows the failure."""
        if self._exhausted():
            return False
        try:
            verify_program(candidate)
        except IRValidationError:
            return False
        self.trials += 1
        if self.predicate(candidate):
            self.best = candidate
            return True
        return False

    # -- passes -------------------------------------------------------

    def _fold_branches(self) -> bool:
        """Try turning every multi-way terminator into a plain jump."""
        progress = False
        retry = True
        while retry and not self._exhausted():
            retry = False
            for function in self.best.functions():
                for block in function.cfg.blocks():
                    if len(block.out_edges) < 2:
                        continue
                    targets = [e.dst.bid for e in block.out_edges]
                    for target in targets:
                        candidate = clone_program(self.best)
                        _fold_to_jump(candidate, function.name,
                                      block.bid, target)
                        if self._accept(candidate):
                            progress = retry = True
                            break
                    if retry:
                        break
                if retry:
                    break
        return progress

    def _drop_ops(self) -> bool:
        """Greedy chunked ddmin over all non-terminator ops."""
        progress = False
        sites = _removable_sites(self.best)
        chunk = max(1, len(sites) // 2)
        while chunk >= 1 and not self._exhausted():
            index = 0
            removed = False
            while index < len(sites):
                batch = sites[index:index + chunk]
                candidate = clone_program(self.best)
                _delete_ops(candidate, batch)
                if self._accept(candidate):
                    sites = sites[:index] + sites[index + chunk:]
                    progress = removed = True
                else:
                    index += chunk
                if self._exhausted():
                    break
            if chunk == 1 and not removed:
                break
            chunk = chunk // 2 if chunk > 1 else (1 if removed else 0)
        return progress

    def _drop_functions(self) -> bool:
        progress = True
        any_progress = False
        while progress and not self._exhausted():
            progress = False
            called = _called_functions(self.best)
            for function in self.best.functions():
                if function.name == self.best.entry_name:
                    continue
                if function.name in called:
                    continue
                candidate = clone_program(self.best)
                candidate._functions.pop(function.name)
                if self._accept(candidate):
                    progress = any_progress = True
                    break
        return any_progress

    # -- driver -------------------------------------------------------

    def run(self, max_rounds: int = 8) -> Program:
        for _ in range(max_rounds):
            round_progress = False
            round_progress |= self._fold_branches()
            round_progress |= self._drop_ops()
            round_progress |= self._drop_functions()
            if not round_progress or self._exhausted():
                break
        return self.best


def _fold_to_jump(program: Program, function_name: str, bid: int,
                  target_bid: int) -> None:
    function = program.function(function_name)
    cfg = function.cfg
    block = next(b for b in cfg.blocks() if b.bid == bid)
    target = next(b for b in cfg.blocks() if b.bid == target_bid)
    term = block.terminator
    if term is not None:
        block.ops.remove(term)
    for edge in list(block.out_edges):
        cfg.remove_edge(edge)
    cfg.make_jump(block, target)
    _collect_unreachable(cfg)


def _collect_unreachable(cfg) -> None:
    reachable = set()
    stack = [cfg.entry]
    while stack:
        block = stack.pop()
        if block.bid in reachable:
            continue
        reachable.add(block.bid)
        stack.extend(e.dst for e in block.out_edges)
    for block in list(cfg.blocks()):
        if block.bid not in reachable:
            for edge in list(block.out_edges):
                cfg.remove_edge(edge)
            for edge in list(block.in_edges):
                cfg.remove_edge(edge)
            cfg.remove_block(block)


def _removable_sites(program: Program) -> List[Tuple[str, int, int]]:
    """(function, bid, uid) of every non-terminator op."""
    sites: List[Tuple[str, int, int]] = []
    for function in program.functions():
        for block in function.cfg.blocks():
            for op in block.ops:
                if not op.is_terminator:
                    sites.append((function.name, block.bid, op.uid))
    return sites


def _delete_ops(program: Program,
                sites: Sequence[Tuple[str, int, int]]) -> None:
    doomed: Dict[Tuple[str, int], set] = {}
    for name, bid, uid in sites:
        doomed.setdefault((name, bid), set()).add(uid)
    for (name, bid), uids in doomed.items():
        function = program.function(name)
        for block in function.cfg.blocks():
            if block.bid == bid:
                block.ops = [
                    op for op in block.ops
                    if op.is_terminator or op.uid not in uids
                ]
                function.cfg.version += 1
                break


def _called_functions(program: Program) -> set:
    called = set()
    for function in program.functions():
        for block in function.cfg.blocks():
            for op in block.ops:
                if op.opcode is Opcode.CALL and op.callee:
                    called.add(op.callee)
    return called


# ----------------------------------------------------------------------
# Failure-driven entry point


def _reproducer(
    mismatch: Mismatch, name: str, grid: Sequence[Cell],
) -> Callable[[Program], Optional[Mismatch]]:
    """Re-check a program for ``mismatch``'s failure category.

    Per-cell categories re-run the mismatch's cell on its inputs; any
    other category re-runs only the named route row or certification,
    on the mismatch's cell when it has one.
    """
    category = mismatch.check
    if mismatch.inputs is None:
        cells = [mismatch.cell] if mismatch.cell is not None else list(grid)

        def found(program: Program) -> List[Mismatch]:
            return check_routes(program, name, cells, jobs=1, only=category)
    else:
        # ``interp-crash`` carries no cell: interpreting is the check.
        cells = [mismatch.cell] if mismatch.cell is not None else []

        def found(program: Program) -> List[Mismatch]:
            report = OracleReport(name=name, seed=0, origin="shrink")
            return check_ir(program, [mismatch.inputs], cells,
                            report).mismatches

    def reproduce(program: Program) -> Optional[Mismatch]:
        return next((m for m in found(program) if m.check == category),
                    None)

    return reproduce


def minimize_failure(
    generated: GeneratedProgram,
    mismatch: Mismatch,
    max_trials: int = 3000,
    max_rounds: int = 8,
    grid: Optional[Sequence[Cell]] = None,
) -> FailureReport:
    """Shrink a generated program around one oracle mismatch.

    ``grid`` is the grid the mismatch was found on (default:
    :func:`default_grid`); route mismatches without a cell re-check it.
    A mismatch of a pooled route is reported unminimized: campaign
    workers cannot start the pool it needs.
    """
    original = total_ops(generated.program)
    reproduce = _reproducer(mismatch, generated.name,
                            default_grid() if grid is None else grid)
    if any(route.pool and route.name == mismatch.check for route in ROUTES):
        max_trials = 0
    shrinker = Shrinker(generated.program,
                        lambda program: reproduce(program) is not None,
                        max_trials=max_trials)
    minimized = shrinker.run(max_rounds=max_rounds)
    # Re-derive the failure detail on the minimized program so the report
    # describes what it actually contains.
    rechecked = reproduce(minimized)
    detail = (rechecked.detail if rechecked is not None else "") \
        or mismatch.detail
    return FailureReport(
        seed=generated.seed,
        name=generated.name,
        origin=generated.origin,
        check=mismatch.check,
        cell=str(mismatch.cell) if mismatch.cell is not None else None,
        inputs=list(mismatch.inputs) if mismatch.inputs is not None else None,
        detail=detail,
        original_ops=original,
        minimized_ops=total_ops(minimized),
        trials=shrinker.trials,
        program_text=format_program(minimized),
        source=generated.source,
    )
