"""IR-family lint rules: the structural checks of ``repro.ir.verify``
re-expressed as diagnostics, plus the extensions the raising verifier
never had (duplicate labels, dominating guard definitions, liveness of
uses).

Unlike the verifier shim, every rule collects *all* of its violations:
a broken CFG produces one diagnostic per problem, each anchored to the
offending block/op, instead of one exception for the first.

The drivers at the bottom (:func:`lint_cfg`, :func:`lint_function`,
:func:`lint_program_ir`) are what ``repro.ir.verify`` and
``repro.lint.run`` call; they only import IR leaf modules, so the
verifier can reach them lazily without an import cycle through the
scheduling packages.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set

from repro.ir.cfg import CFG, BasicBlock
from repro.ir.function import Function, Program
from repro.ir.registers import Register
from repro.ir.types import EdgeKind, Opcode, RegClass
from repro.lint.diagnostics import LintReport, Severity
from repro.lint.registry import (
    ir_rule,
    make_emitter,
    rules_for,
)

#: Opcodes that write predicate registers; a guard must be defined by one
#: of these on every path to its use (Playdoh predication model).
PREDICATE_WRITERS = frozenset({
    Opcode.CMPP, Opcode.PAND, Opcode.PANDCN, Opcode.POR, Opcode.NINSET,
    Opcode.MOV, Opcode.COPY,
})

#: Labels in the parser's namespace — they resolve branch targets when a
#: textual program is read back, so they must be unique per function.
_PARSER_LABEL = re.compile(r"bb\d+")


# ----------------------------------------------------------------------
# CFG-scope rules


@ir_rule("ir.entry", scope="cfg", severity=Severity.ERROR,
         summary="CFG has an entry block",
         invariant="regions/schedules are rooted at a unique entry")
def _check_entry(cfg: CFG, emit) -> None:
    if cfg.entry is None:
        emit("CFG has no entry block",
             hint="call cfg.set_entry() after building the blocks")


@ir_rule("ir.terminator", scope="cfg", severity=Severity.ERROR,
         summary="terminators are last; edge kinds match the terminator",
         invariant="region formation reads control flow from edge kinds")
def _check_terminators(cfg: CFG, emit) -> None:
    for block in cfg.blocks():
        term = block.terminator
        kinds = [e.kind for e in block.out_edges]

        for op in block.ops[:-1]:
            if op.is_terminator:
                emit(f"terminator {op.opcode.value} is not the last op",
                     block=block.bid, op=op.uid)

        if term is None:
            if kinds != [EdgeKind.FALLTHROUGH]:
                emit("block without a terminator requires exactly one "
                     f"fallthrough edge, got {[k.value for k in kinds]}",
                     block=block.bid)
            continue

        if term.opcode is Opcode.RET:
            if block.out_edges:
                emit("RET block has out-edges", block=block.bid,
                     op=term.uid)
        elif term.opcode is Opcode.BRU:
            if kinds != [EdgeKind.TAKEN]:
                emit("BRU requires exactly one taken edge, got "
                     f"{[k.value for k in kinds]}",
                     block=block.bid, op=term.uid)
        elif term.opcode in (Opcode.BRCT, Opcode.BRCF):
            if sorted(k.value for k in kinds) != ["fallthrough", "taken"]:
                emit("conditional branch requires taken + fallthrough, "
                     f"got {[k.value for k in kinds]}",
                     block=block.bid, op=term.uid)
            pred_srcs = term.source_registers()
            if not pred_srcs or pred_srcs[0].rclass is not RegClass.PRED:
                emit("conditional branch must read a predicate",
                     block=block.bid, op=term.uid)
        elif term.opcode is Opcode.SWITCH:
            cases = [e for e in block.out_edges if e.kind is EdgeKind.CASE]
            defaults = [e for e in block.out_edges
                        if e.kind is EdgeKind.DEFAULT]
            others = [e for e in block.out_edges
                      if e.kind not in (EdgeKind.CASE, EdgeKind.DEFAULT)]
            if others or len(defaults) != 1 or not cases:
                emit("SWITCH requires case edges plus exactly one default",
                     block=block.bid, op=term.uid)
            values = [e.case_value for e in cases]
            if len(set(values)) != len(values):
                emit(f"duplicate switch case values {values}",
                     block=block.bid, op=term.uid)


@ir_rule("ir.branch-target", scope="cfg", severity=Severity.ERROR,
         summary="branch op targets agree with the taken edge",
         invariant="the simulator transfers control along edges, the "
                   "printer along op targets; they must agree")
def _check_branch_targets(cfg: CFG, emit) -> None:
    for block in cfg.blocks():
        term = block.terminator
        if term is None or term.opcode not in (Opcode.BRU, Opcode.BRCT,
                                               Opcode.BRCF):
            continue
        taken = block.taken_edge
        if taken is None or term.target != taken.dst.bid:
            emit(f"branch target bb{term.target} does not match the "
                 "taken edge", block=block.bid, op=term.uid)


@ir_rule("ir.edge-symmetry", scope="cfg", severity=Severity.ERROR,
         summary="edge lists are symmetric between blocks",
         invariant="every CFG walk (liveness, dominators, formation) "
                   "assumes in/out lists mirror each other")
def _check_edge_symmetry(cfg: CFG, emit) -> None:
    for block in cfg.blocks():
        for edge in block.out_edges:
            if edge.src is not block:
                emit(f"edge {edge!r} is in the wrong out list",
                     block=block.bid)
            elif edge not in edge.dst.in_edges:
                emit(f"edge to bb{edge.dst.bid} missing from the "
                     "destination's in list", block=block.bid)
        for edge in block.in_edges:
            if edge.dst is not block:
                emit(f"edge {edge!r} is in the wrong in list",
                     block=block.bid)
            elif edge not in edge.src.out_edges:
                emit(f"edge from bb{edge.src.bid} missing from the "
                     "source's out list", block=block.bid)


@ir_rule("ir.op-shape", scope="cfg", severity=Severity.ERROR,
         summary="op operand shapes and register classes are sane",
         invariant="Playdoh op forms: CMPP writes 1-2 predicates, PBR one "
                   "BTR, LD/ST fixed operand counts, guards are predicates")
def _check_op_shapes(cfg: CFG, emit) -> None:
    for block in cfg.blocks():
        for op in block.ops:
            if op.guard is not None and op.guard.rclass is not RegClass.PRED:
                emit(f"guard {op.guard} is not a predicate",
                     block=block.bid, op=op.uid)
            if op.opcode is Opcode.CMPP:
                if not (1 <= len(op.dests) <= 2):
                    emit(f"CMPP needs 1 or 2 dests, has {len(op.dests)}",
                         block=block.bid, op=op.uid)
                for dest in op.dests:
                    if dest.rclass is not RegClass.PRED:
                        emit(f"CMPP dest {dest} is not a predicate",
                             block=block.bid, op=op.uid)
                if op.cond is None:
                    emit("CMPP without a condition",
                         block=block.bid, op=op.uid)
            elif op.opcode is Opcode.PBR:
                if len(op.dests) != 1 or op.dests[0].rclass is not RegClass.BTR:
                    emit("PBR must write exactly one BTR",
                         block=block.bid, op=op.uid)
                if op.target is None:
                    emit("PBR without a target", block=block.bid, op=op.uid)
            elif op.opcode is Opcode.LD:
                if len(op.dests) != 1 or op.dests[0].rclass is not RegClass.GPR:
                    emit("LD must write exactly one GPR",
                         block=block.bid, op=op.uid)
                if len(op.srcs) != 2:
                    emit(f"LD needs base and offset, has {len(op.srcs)} "
                         "sources", block=block.bid, op=op.uid)
            elif op.opcode is Opcode.ST:
                if op.dests:
                    emit("ST has no destination", block=block.bid, op=op.uid)
                if len(op.srcs) != 3:
                    emit(f"ST needs base, offset, value, has {len(op.srcs)} "
                         "sources", block=block.bid, op=op.uid)
            elif op.opcode is Opcode.CALL:
                if op.callee is None:
                    emit("CALL without a callee", block=block.bid, op=op.uid)


@ir_rule("ir.unique-uid", scope="cfg", severity=Severity.ERROR,
         summary="op uids are unique within the function",
         invariant="DDG nodes and schedules refer to ops by uid; dumps "
                   "must be stable")
def _check_unique_uids(cfg: CFG, emit) -> None:
    seen: Dict[int, int] = {}
    for block in cfg.blocks():
        for op in block.ops:
            if op.uid in seen:
                emit(f"op uid {op.uid} already used in bb{seen[op.uid]}",
                     block=block.bid, op=op.uid)
            else:
                seen[op.uid] = block.bid


@ir_rule("ir.duplicate-label", scope="cfg", severity=Severity.ERROR,
         summary="identity-bearing block labels are unique",
         invariant="labels that encode identity — parser labels (bbN) and "
                   "tail-duplication clone names (*.dup) — must name one "
                   "block each; two clones sharing a label are "
                   "indistinguishable in dumps and dot output")
def _check_duplicate_labels(cfg: CFG, emit) -> None:
    # Purely decorative names (builder-chosen 'header'/'then'/...) may
    # repeat: blocks are keyed by bid everywhere.  Only labels that stand
    # in for identity must be unique.
    seen: Dict[str, int] = {}
    for block in cfg.blocks():
        name = block.name
        if not name or not (_PARSER_LABEL.fullmatch(name) or ".dup" in name):
            continue
        if name in seen:
            emit(f"label {name!r} already names bb{seen[name]}",
                 block=block.bid,
                 hint="tail-duplication clones must mint fresh names")
        else:
            seen[name] = block.bid


@ir_rule("ir.guard-def", scope="cfg", severity=Severity.ERROR,
         summary="guard predicates are defined by a dominating "
                 "predicate-writing op",
         invariant="a guarded op's predicate must be computed before any "
                   "path reaches the op (Playdoh predicated execution)")
def _check_guard_defs(cfg: CFG, emit) -> None:
    guarded = [(block, op) for block in cfg.blocks() for op in block.ops
               if op.guard is not None]
    if not guarded or cfg.entry is None:
        return
    from repro.ir.analysis_cache import dominators_of

    dominators = dominators_of(cfg)
    defs_by_block: Dict[int, Set[Register]] = {}
    for block in cfg.blocks():
        defined: Set[Register] = set()
        for op in block.ops:
            defined.update(op.dests)
        defs_by_block[block.bid] = defined
    for block, op in guarded:
        guard = op.guard
        earlier = False
        for candidate in block.ops:
            if candidate is op:
                break
            if guard in candidate.dests:
                earlier = True
        if earlier:
            continue
        dominated = any(
            guard in defs_by_block[other.bid]
            and dominators.strictly_dominates(other, block)
            for other in cfg.blocks()
        )
        if not dominated:
            emit(f"guard {guard} of {op.opcode.value} has no dominating "
                 "definition", block=block.bid, op=op.uid,
                 hint="define the predicate with a CMPP that dominates "
                      "every guarded use")


# ----------------------------------------------------------------------
# Function-scope rules


@ir_rule("ir.return", scope="function", severity=Severity.ERROR,
         summary="every function has a RET block",
         invariant="region exits include the function return; a function "
                   "that cannot return has no complete exit set")
def _check_return(function: Function, emit) -> None:
    for block in function.cfg.blocks():
        term = block.terminator
        if term is not None and term.opcode is Opcode.RET:
            return
    emit(f"function {function.name} has no return block")


#: Per-function cap on individually-anchored diagnostics for the
#: flow-sensitive rules; the remainder is folded into one summary line so
#: a degenerate function cannot flood a corpus report.
_FLOW_RULE_CAP = 10


@ir_rule("ir.uninit-use", scope="function", severity=Severity.WARNING,
         summary="no register is read before a definition reaches it "
                 "(must-uninit paths are errors, may-paths warnings)",
         invariant="renaming and exit copies reason about live values; a "
                   "use that UNINIT reaches reads an undefined register")
def _check_uninit_use(function: Function, emit) -> None:
    # Reaching definitions classify every read, and must-uninit reads
    # carry one offending entry-to-use path in the hint.
    cfg = function.cfg
    if cfg.entry is None:
        return
    from repro.ir.analysis_cache import reaching_definitions_of

    reaching = reaching_definitions_of(function)
    uses = reaching.uninit_uses()
    overflow = {"must": 0, "may": 0}
    shown = 0
    for use in uses:
        if shown >= _FLOW_RULE_CAP:
            overflow[use.kind] += 1
            continue
        shown += 1
        path = reaching.def_free_path(use.reg, use.block)
        route = " -> ".join(path)
        if use.kind == "must":
            emit(f"{use.reg} is read by {use.op.opcode.value} but no "
                 "definition reaches it on any path",
                 block=use.block.bid, op=use.op.uid,
                 severity=Severity.ERROR,
                 hint=(f"every path avoids a definition; e.g. {route}"
                       if route else "define the register before use"))
        else:
            emit(f"{use.reg} may be read by {use.op.opcode.value} before "
                 "it is defined",
                 block=use.block.bid, op=use.op.uid,
                 severity=Severity.WARNING,
                 hint=(f"uninitialized along {route}" if route
                       else "some path avoids every definition"))
    if overflow["must"] or overflow["may"]:
        worst = (Severity.ERROR if overflow["must"]
                 else Severity.WARNING)
        emit(f"... {overflow['must']} more must-uninitialized and "
             f"{overflow['may']} more may-uninitialized read(s) "
             f"(first {_FLOW_RULE_CAP} shown)",
             block=cfg.entry.bid, severity=worst)


@ir_rule("ir.dead-store", scope="function", severity=Severity.WARNING,
         summary="no op computes a value nothing ever reads",
         invariant="a side-effect-free op whose destinations are all dead "
                   "wastes an issue slot in every schedule containing it")
def _check_dead_store(function: Function, emit) -> None:
    from repro.ir.analysis_cache import live_ranges_of

    ranges = live_ranges_of(function.cfg)
    stores = ranges.dead_stores()
    for dead in stores[:_FLOW_RULE_CAP]:
        dests = ", ".join(str(reg) for reg in dead.op.dests)
        emit(f"{dests} = {dead.op.opcode.value} is never read",
             block=dead.block.bid, op=dead.op.uid,
             hint="delete the op or use its result")
    if len(stores) > _FLOW_RULE_CAP:
        emit(f"... {len(stores) - _FLOW_RULE_CAP} more dead store(s) "
             f"(first {_FLOW_RULE_CAP} shown)",
             block=stores[_FLOW_RULE_CAP].block.bid)


@ir_rule("ir.unreachable-block", scope="cfg", severity=Severity.WARNING,
         summary="every block is reachable along some executable path",
         invariant="unreachable blocks inflate code-expansion accounting "
                   "and schedule dead regions")
def _check_unreachable(cfg: CFG, emit) -> None:
    if cfg.entry is None:
        return
    from repro.ir.analysis_cache import reachability_of

    reach = reachability_of(cfg)
    dead = reach.unreachable_blocks()
    for block in dead[:_FLOW_RULE_CAP]:
        emit(f"bb{block.bid} is unreachable from the entry",
             block=block.bid,
             hint="no executable path reaches it (constant branches "
                  "considered); remove it or fix the branch")
    if len(dead) > _FLOW_RULE_CAP:
        emit(f"... {len(dead) - _FLOW_RULE_CAP} more unreachable "
             f"block(s) (first {_FLOW_RULE_CAP} shown)",
             block=dead[_FLOW_RULE_CAP].bid)


@ir_rule("ir.const-branch", scope="cfg", severity=Severity.WARNING,
         summary="no branch's outcome is decided at compile time",
         invariant="a constant branch is control flow the optimizer "
                   "should have folded; its dead arm pollutes region "
                   "formation")
def _check_const_branch(cfg: CFG, emit) -> None:
    if cfg.entry is None:
        return
    from repro.ir.analysis_cache import reachability_of

    reach = reachability_of(cfg)
    for decided in reach.const_branches:
        dead_targets = ", ".join(
            f"bb{edge.dst.bid}" for edge in decided.dead_edges
        )
        emit(f"{decided.op.opcode.value} in bb{decided.block.bid} is "
             f"{decided.decision}",
             block=decided.block.bid, op=decided.op.uid,
             hint=f"the arm(s) toward {dead_targets} never execute")


# ----------------------------------------------------------------------
# Program-scope rules


@ir_rule("ir.program-entry", scope="program", severity=Severity.ERROR,
         summary="the program's entry function is defined",
         invariant="execution (interpreter and simulator) starts at the "
                   "declared entry")
def _check_program_entry(program: Program, emit) -> None:
    if not program.has_function(program.entry_name):
        emit(f"program entry '{program.entry_name}' is not defined")


@ir_rule("ir.call-target", scope="program", severity=Severity.ERROR,
         summary="every CALL names a defined function with matching arity",
         invariant="calls are scheduled as atomic ops and executed "
                   "recursively on the callee's own schedules")
def _check_call_targets(program: Program, emit) -> None:
    for function in program.functions():
        for block in function.cfg.blocks():
            for op in block.ops:
                if op.opcode is not Opcode.CALL:
                    continue
                callee = op.callee or ""
                if not program.has_function(callee):
                    emit(f"{function.name}: call to undefined function "
                         f"'{op.callee}'", block=block.bid, op=op.uid)
                    continue
                want = len(program.function(callee).params)
                got = len(op.srcs)
                if want != got:
                    emit(f"{function.name}: call to '{callee}' passes "
                         f"{got} argument(s), callee takes {want}",
                         block=block.bid, op=op.uid)


# ----------------------------------------------------------------------
# Drivers


def lint_cfg(cfg: CFG, report: LintReport,
             function_name: Optional[str] = None) -> LintReport:
    """Run every CFG-scope IR rule over ``cfg``."""
    for rule in rules_for("ir", scope="cfg"):
        rule.check(cfg, make_emitter(rule, report, function_name))
    return report


def lint_function(function: Function, report: LintReport) -> LintReport:
    """Run CFG- and function-scope IR rules over one function."""
    lint_cfg(function.cfg, report, function_name=function.name)
    for rule in rules_for("ir", scope="function"):
        rule.check(function, make_emitter(rule, report, function.name))
    return report


def lint_program_ir(program: Program,
                    report: Optional[LintReport] = None) -> LintReport:
    """Run the whole IR rule family over a program."""
    report = report if report is not None else LintReport()
    for function in program.functions():
        lint_function(function, report)
    for rule in rules_for("ir", scope="program"):
        rule.check(program, make_emitter(rule, report, None))
    return report
