"""Schedule-family lint rules: the static legality certifier.

Each rule certifies one invariant the paper's correctness argument rests
on, checked against the machine model and the *pre-scheduling* DDG — the
same inputs the scheduler consumed, re-examined independently after the
fact.  Where possible a rule re-derives its requirement from first
principles instead of trusting scheduler bookkeeping (``sched.exit-retire``
walks the region tree itself rather than replaying DDG exit edges), so a
bug in the shared machinery cannot hide from its own certifier.

All rules take a :class:`ScheduleContext` (the scheduling problem, DDG,
resulting schedule, machine, and liveness) and an emitter; they are
registered in :mod:`repro.lint.registry` under the ``schedule`` family and
driven by :func:`check_schedule`, which the scheduler's opt-in certifier
hook and the lint runner both call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.liveness import LivenessInfo
from repro.ir.registers import Register
from repro.ir.types import Opcode
from repro.machine.model import MachineModel
from repro.regions.region import RegionExit
from repro.schedule.ddg import DDG, _live_at_exit
from repro.schedule.prep import ScheduleProblem
from repro.schedule.renaming import _DEFINES_WHEN_SQUASHED
from repro.schedule.schedule import RegionSchedule, SchedOp
from repro.lint.collect import current_function
from repro.lint.diagnostics import LintReport, Severity
from repro.lint.registry import make_emitter, rules_for, schedule_rule


class ScheduleContext:
    """Everything the schedule rules need to certify one region schedule."""

    def __init__(
        self,
        problem: ScheduleProblem,
        ddg: DDG,
        schedule: RegionSchedule,
        machine: Optional[MachineModel] = None,
        liveness: Optional[LivenessInfo] = None,
    ):
        self.problem = problem
        self.ddg = ddg
        self.schedule = schedule
        self.machine = machine if machine is not None else problem.machine
        self.liveness = liveness
        self.region = problem.region
        #: Retire cycle per region exit (by identity), from the schedule's
        #: exit records.  Exits with no (or several) records are flagged by
        #: ``sched.exit-retire``; other rules simply skip them.
        self.exit_cycles: Dict[int, int] = {}
        for record in schedule.exits:
            self.exit_cycles.setdefault(id(record.exit), record.cycle)
        self._live_cache: Dict[int, Tuple[Register, ...]] = {}
        self._path_defs_cache: Dict[int, Dict[Register, SchedOp]] = {}

    # ------------------------------------------------------------------

    def eff(self, sop: SchedOp) -> Optional[int]:
        """The op's effective issue cycle (following merges)."""
        return sop.effective_cycle

    def live_at_exit(self, exit: RegionExit) -> Tuple[Register, ...]:
        """Post-renaming registers the exit must publish (cached)."""
        key = id(exit)
        if key not in self._live_cache:
            self._live_cache[key] = _live_at_exit(
                exit, self.liveness, self.schedule.copies
            )
        return self._live_cache[key]

    def exit_cycle(self, exit: RegionExit) -> Optional[int]:
        return self.exit_cycles.get(id(exit))

    def survivor_dests(self, sop: SchedOp) -> List[Register]:
        """The registers whose writes stand in for ``sop``'s.

        A merged op never executes; its consumers were rewired to the
        surviving duplicate's destinations, so for dataflow purposes the
        merge contributes the survivor's names at the survivor's cycle.
        """
        if sop.merged_into is None:
            return list(sop.op.dests)
        return list(sop.merged_into.op.dests)

    def path_producers(self, exit: RegionExit) -> Dict[Register, SchedOp]:
        """Last writer of each register along root -> ``exit.source``.

        The op that executes on the exit's behalf: a merged path op maps
        to its surviving duplicate (and to the survivor's destination
        names) — dominator parallelism makes the survivor the value's
        producer for every path its duplicate sat on.
        """
        key = id(exit)
        cached = self._path_defs_cache.get(key)
        if cached is not None:
            return cached
        producers: Dict[Register, SchedOp] = {}
        for block in self.region.path_to(exit.source):
            for sop in self.problem.by_block[block.bid]:
                if sop.is_exit:
                    continue
                provider = sop.merged_into if sop.merged_into is not None \
                    else sop
                for reg in self.survivor_dests(sop):
                    producers[reg] = provider
        self._path_defs_cache[key] = producers
        return producers


# ----------------------------------------------------------------------
# Machine resource rules


@schedule_rule("sched.issue-width", severity=Severity.ERROR,
               summary="no MultiOp exceeds the machine's issue width",
               invariant="a K-wide Playdoh machine issues at most K ops "
                         "per cycle (paper Section 5 machine models)")
def _check_issue_width(ctx: ScheduleContext, emit) -> None:
    width = ctx.machine.issue_width
    for cycle, multiop in ctx.schedule.iter_bundles():
        if len(multiop) > width:
            emit(f"cycle {cycle} issues {len(multiop)} ops on a "
                 f"{width}-wide machine",
                 block=ctx.region.root.bid,
                 hint="the list scheduler's resource table was bypassed")


@schedule_rule("sched.resource", severity=Severity.ERROR,
               summary="per-cycle memory/branch class caps are respected",
               invariant="restricted machine models cap memory ports and "
                         "branch units per cycle")
def _check_resources(ctx: ScheduleContext, emit) -> None:
    mem_cap = ctx.machine.max_memory_per_cycle
    br_cap = ctx.machine.max_branches_per_cycle
    if mem_cap is None and br_cap is None:
        return
    for cycle, multiop in ctx.schedule.iter_bundles():
        memory = sum(1 for sop in multiop if sop.op.is_memory)
        branches = sum(1 for sop in multiop if sop.op.is_branch)
        if mem_cap is not None and memory > mem_cap:
            emit(f"cycle {cycle} issues {memory} memory ops "
                 f"(cap {mem_cap})", block=ctx.region.root.bid)
        if br_cap is not None and branches > br_cap:
            emit(f"cycle {cycle} issues {branches} branch ops "
                 f"(cap {br_cap})", block=ctx.region.root.bid)


@schedule_rule("sched.pressure-exceeds-class", severity=Severity.WARNING,
               summary="estimated register pressure fits the machine's "
                       "per-class register files",
               invariant="pressure is a clique in the interference graph: "
                         "a region whose peak simultaneously-live count "
                         "exceeds the file size cannot be allocated "
                         "without spills the schedule does not model")
def _check_pressure(ctx: ScheduleContext, emit) -> None:
    caps = ctx.machine.registers_per_class
    if not caps or ctx.liveness is None:
        return  # paper presets: unbounded files, rule disarmed
    from repro.analysis.liveranges import block_peak_pressure

    for block in ctx.region:
        peak = block_peak_pressure(block, ctx.liveness.live_out(block))
        for rclass, cap in caps.items():
            count = peak.get(rclass, 0)
            if count > cap:
                emit(f"bb{block.bid} keeps {count} {rclass.value} "
                     f"registers simultaneously live "
                     f"(file holds {cap})",
                     block=block.bid,
                     hint="any allocation of this region spills; "
                          "pressure is pre-renaming, so the scheduled "
                          "demand is at least this high")


# ----------------------------------------------------------------------
# Dependence rules


@schedule_rule("sched.latency", severity=Severity.ERROR,
               summary="every DDG edge's latency is respected",
               invariant="a consumer may not issue before its producer's "
                         "result is available (flow/anti/output/memory/"
                         "exit dependences)")
def _check_latency(ctx: ScheduleContext, emit) -> None:
    ops = ctx.problem.sched_ops
    ddg = ctx.ddg
    for src_index, src in enumerate(ops):
        if src.merged_into is not None:
            continue  # eliminated: anti/output edges on it are moot
        src_cycle = src.cycle
        if src_cycle is None:
            continue  # sched.placement reports unplaced ops
        for edge in range(ddg.succ_ptr[src_index],
                          ddg.succ_ptr[src_index + 1]):
            latency = ddg.succ_lat[edge]
            dst = ops[ddg.succ_dst[edge]]
            if dst.merged_into is not None or dst.cycle is None:
                continue
            if src_cycle + latency > dst.cycle:
                emit(f"op at cycle {dst.cycle} depends on op at cycle "
                     f"{src_cycle} with latency {latency}",
                     block=dst.home.bid, op=dst.op.uid,
                     hint=f"earliest legal cycle is {src_cycle + latency}")


# ----------------------------------------------------------------------
# Speculation safety


@schedule_rule("sched.speculation", severity=Severity.ERROR,
               summary="only dismissible ops run unguarded off-path",
               invariant="speculated ops must be dismissible; stores, "
                         "calls, and branches may never execute on paths "
                         "where their home block is not reached (Section 3)")
def _check_speculation(ctx: ScheduleContext, emit) -> None:
    for sop in ctx.problem.sched_ops:
        if sop.is_exit or sop.merged_into is not None:
            continue
        guard = ctx.problem.guards.get(sop.home.bid)
        if guard is None:
            continue  # control provably reaches the home block
        if sop.op.guard is None and not sop.op.can_speculate:
            emit(f"{sop.op.opcode.value} from guarded block "
                 f"bb{sop.home.bid} runs unguarded",
                 block=sop.home.bid, op=sop.op.uid,
                 hint=f"guard it with {guard} or keep it out of the "
                      "speculative set")


# ----------------------------------------------------------------------
# Renaming correctness


@schedule_rule("sched.rename-clobber", severity=Severity.ERROR,
               summary="no committed write clobbers a value live on a "
                       "foreign tree path",
               invariant="renaming must prevent live-out violations: a "
                         "speculated def may not overwrite data used on "
                         "another exit from the branch (Section 3)")
def _check_rename_clobber(ctx: ScheduleContext, emit) -> None:
    root = ctx.region.root
    subtree_cache: Dict[int, Set[int]] = {}
    for sop in ctx.problem.sched_ops:
        if sop.is_exit or sop.merged_into is not None:
            continue
        if sop.home is root:
            continue  # root writes are original program semantics
        committing = (sop.op.guard is None
                      or sop.op.opcode in _DEFINES_WHEN_SQUASHED)
        if not committing or not sop.op.dests:
            continue
        cycle = ctx.eff(sop)
        if cycle is None:
            continue
        home_bid = sop.home.bid
        if home_bid not in subtree_cache:
            subtree_cache[home_bid] = {
                b.bid for b in ctx.region.subtree(sop.home)
            }
        subtree = subtree_cache[home_bid]
        for exit in ctx.problem.exits:
            if exit.source.bid in subtree:
                continue  # exits below the home observe the write legally
            exit_cycle = ctx.exit_cycle(exit)
            if exit_cycle is None or cycle > exit_cycle:
                continue  # the exit retires before this write commits
            live = ctx.live_at_exit(exit)
            for reg in sop.op.dests:
                if reg not in live:
                    continue
                if ctx.path_producers(exit).get(reg) is sop:
                    # This op IS the exit's producer of the value — it
                    # survived a dominator-parallelism merge with a
                    # duplicate on the exit's path, so the "foreign"
                    # write is exactly the write the exit wants.
                    continue
                emit(f"write of {reg} at cycle {cycle} clobbers a "
                     f"value live into the exit from bb{exit.source.bid} "
                     f"(retires cycle {exit_cycle})",
                     block=home_bid, op=sop.op.uid,
                     hint="renaming should have minted a fresh "
                          "destination for this def")


@schedule_rule("sched.exit-copy", severity=Severity.ERROR,
               summary="exit copies publish values that exist by the "
                       "exit's retire cycle",
               invariant="at each exit the renamed value is copied back to "
                         "its original name; the source must have been "
                         "computed on that path (Section 3 live-out repair)")
def _check_exit_copies(ctx: ScheduleContext, emit) -> None:
    for exit, original, renamed in ctx.schedule.copies:
        exit_cycle = ctx.exit_cycle(exit)
        if exit_cycle is None:
            continue  # sched.exit-retire reports the missing record
        defined = False
        for sop in ctx.problem.sched_ops:
            if sop.merged_into is not None:
                continue
            if renamed in sop.op.dests:
                cycle = sop.cycle
                if cycle is not None and cycle <= exit_cycle:
                    defined = True
                    break
        if not defined:
            emit(f"copy {original} <- {renamed} at the exit from "
                 f"bb{exit.source.bid} reads a register never defined "
                 f"by cycle {exit_cycle}",
                 block=exit.source.bid)


# ----------------------------------------------------------------------
# Exit retirement


@schedule_rule("sched.exit-retire", severity=Severity.ERROR,
               summary="each exit retires once, after everything its path "
                       "needs has issued",
               invariant="control may not leave the region before the "
                         "path's side effects and live-out values exist "
                         "(the paper's r6=5 boundary case: issuing *in* "
                         "the exit cycle is legal)")
def _check_exit_retire(ctx: ScheduleContext, emit) -> None:
    records: Dict[int, List[int]] = {}
    for record in ctx.schedule.exits:
        records.setdefault(id(record.exit), []).append(record.cycle)

    for exit in ctx.problem.exits:
        cycles = records.get(id(exit), [])
        if len(cycles) != 1:
            emit(f"exit from bb{exit.source.bid} has {len(cycles)} retire "
                 "records (expected exactly 1)", block=exit.source.bid)
            continue
        exit_cycle = cycles[0]
        exit_sop = ctx.problem.exit_op_for(exit)
        if exit_sop.cycle != exit_cycle:
            emit(f"exit record says cycle {exit_cycle} but the exit op "
                 f"issued at cycle {exit_sop.cycle}",
                 block=exit.source.bid, op=exit_sop.op.uid)
            continue

        # Re-derive the exit's requirements from the region tree itself
        # (independent of the DDG's exit edges): every side effect on the
        # root -> source path, and the last (survivor-mapped) write of
        # every live-out register, must issue by the retire cycle.
        for block in ctx.region.path_to(exit.source):
            for sop in ctx.problem.by_block[block.bid]:
                if sop.is_exit or sop.op.opcode not in (Opcode.ST,
                                                        Opcode.CALL):
                    continue
                cycle = ctx.eff(sop)
                if cycle is None or cycle > exit_cycle:
                    emit(f"{sop.op.opcode.value} on the exit path "
                         f"issues at cycle {cycle}, after the exit "
                         f"retires at cycle {exit_cycle}",
                         block=block.bid, op=sop.op.uid)
        producers = ctx.path_producers(exit)
        for reg in ctx.live_at_exit(exit):
            provider = producers.get(reg)
            cycle = None if provider is None else ctx.eff(provider)
            if cycle is not None and cycle > exit_cycle:
                emit(f"{reg} is live into the exit from "
                     f"bb{exit.source.bid} but its last write issues at "
                     f"cycle {cycle}, after the exit retires at cycle "
                     f"{exit_cycle}", block=exit.source.bid)


# ----------------------------------------------------------------------
# Region shape


@schedule_rule("sched.tree-shape", severity=Severity.ERROR,
               summary="the region is a single-entry tree with no side "
                       "entries",
               invariant="a treegion is a single-entry region whose blocks "
                         "form a tree in the CFG (Section 2 definition)")
def _check_tree_shape(ctx: ScheduleContext, emit) -> None:
    region = ctx.region
    if region.kind == "hyperblock":
        return  # hyperblocks are DAG regions; the tree invariant is N/A
    blocks = list(region)
    if not blocks:
        emit("region has no blocks")
        return
    if blocks[0] is not region.root:
        emit("region root is not the first member",
             block=region.root.bid)
    seen: Set[int] = set()
    for block in blocks:
        if block.bid in seen:
            emit(f"bb{block.bid} appears twice in the region",
                 block=block.bid)
        seen.add(block.bid)
    for block in blocks:
        if block is region.root:
            continue
        parent = region.parent(block)
        if parent is None or parent not in region:
            emit(f"bb{block.bid} has no tree parent inside the region",
                 block=block.bid)
            continue
        if not any(e.dst is block for e in parent.out_edges):
            emit(f"tree edge bb{parent.bid} -> bb{block.bid} has no "
                 "matching CFG edge", block=block.bid)
        for edge in block.in_edges:
            if edge.src is not parent:
                where = ("side entry" if edge.src not in region
                         else "second in-region entry")
                emit(f"bb{block.bid} has a {where} from bb{edge.src.bid}",
                     block=block.bid,
                     hint="region formation must stop at merge points")


# ----------------------------------------------------------------------
# Dominator parallelism


@schedule_rule("sched.merge", severity=Severity.ERROR,
               summary="dominator-parallelism merges eliminated only "
                       "provably redundant duplicates",
               invariant="a tail-duplicated op may be eliminated only when "
                         "a duplicate computing the same values is already "
                         "scheduled (Section 4)")
def _check_merges(ctx: ScheduleContext, emit) -> None:
    for sop in ctx.schedule.merged:
        survivor = sop.merged_into
        if survivor is None:
            emit("op recorded as merged has no survivor",
                 block=sop.home.bid, op=sop.op.uid)
            continue
        if survivor.cycle is None or survivor.merged_into is not None:
            emit("merge survivor is not itself placed",
                 block=sop.home.bid, op=sop.op.uid)
            continue
        if survivor.op.guard is not None or not survivor.op.can_speculate:
            emit("merge survivor is guarded or non-dismissible, so it "
                 "does not execute on every path",
                 block=survivor.home.bid, op=survivor.op.uid)
        if survivor.home is sop.home:
            emit("merged op and survivor share a home block (that is "
                 "CSE, not dominator parallelism)",
                 block=sop.home.bid, op=sop.op.uid)
        if (sop.source is None or survivor.source is None
                or sop.source.origin != survivor.source.origin):
            emit("merged op and survivor are not tail-duplication "
                 "clones of the same original op",
                 block=sop.home.bid, op=sop.op.uid)
        elif not survivor.op.same_computation(sop.op):
            emit("merged op and survivor compute different values",
                 block=sop.home.bid, op=sop.op.uid)
        if len(survivor.op.dests) != len(sop.op.dests):
            emit("merged op and survivor write different numbers of "
                 "registers", block=sop.home.bid, op=sop.op.uid)
            continue
        producers = ctx.ddg.producers
        for src in sop.op.srcs:
            if isinstance(src, Register):
                if (producers[sop.index].get(src)
                        != producers[survivor.index].get(src)):
                    emit(f"merged op reads {src} from a different "
                         "producer than the survivor",
                         block=sop.home.bid, op=sop.op.uid)
        if sop.op.is_load or survivor.op.is_load:
            if (ctx.ddg.mem_producers[sop.index]
                    != ctx.ddg.mem_producers[survivor.index]):
                emit("merged load observes a different memory state "
                     "than the survivor",
                     block=sop.home.bid, op=sop.op.uid)
        # The rewiring must be complete: nothing placed may still read
        # the eliminated op's old destinations.
        replacements = dict(zip(sop.op.dests, survivor.op.dests))
        stale = {old for old, new in replacements.items() if old != new}
        if not stale:
            continue
        succ_ptr = ctx.ddg.succ_ptr
        for edge in range(succ_ptr[sop.index], succ_ptr[sop.index + 1]):
            consumer = ctx.problem.sched_ops[ctx.ddg.succ_dst[edge]]
            if consumer.merged_into is not None:
                continue
            for reg in stale:
                if reg in consumer.op.used_registers():
                    emit(f"consumer still reads {reg}, which the merge "
                         "eliminated", block=consumer.home.bid,
                         op=consumer.op.uid)
        for _exit, _original, renamed in ctx.schedule.copies:
            if renamed in stale:
                emit(f"exit copy still reads {renamed}, which the merge "
                     "eliminated", block=sop.home.bid, op=sop.op.uid)


# ----------------------------------------------------------------------
# Placement accounting


@schedule_rule("sched.placement", severity=Severity.ERROR,
               summary="every op is placed exactly once (or merged), and "
                       "bundle positions agree with op records",
               invariant="the MultiOp table and per-op (cycle, slot) "
                         "records are two views of one schedule")
def _check_placement(ctx: ScheduleContext, emit) -> None:
    in_bundles: Dict[int, Tuple[int, int]] = {}
    for cycle, multiop in ctx.schedule.iter_bundles():
        for slot, sop in enumerate(multiop):
            if sop.index in in_bundles:
                emit(f"op appears in two bundles (cycles "
                     f"{in_bundles[sop.index][0]} and {cycle})",
                     block=sop.home.bid, op=sop.op.uid)
                continue
            in_bundles[sop.index] = (cycle, slot)
            if sop.cycle != cycle or sop.slot != slot:
                emit(f"bundle says (cycle {cycle}, slot {slot}) but the "
                     f"op records (cycle {sop.cycle}, slot {sop.slot})",
                     block=sop.home.bid, op=sop.op.uid)

    merged_set = {sop.index for sop in ctx.schedule.merged}
    for sop in ctx.problem.sched_ops:
        if sop.merged_into is not None:
            if sop.index in in_bundles:
                emit("merged op still occupies a bundle slot",
                     block=sop.home.bid, op=sop.op.uid)
            if sop.index not in merged_set:
                emit("op is marked merged but missing from the "
                     "schedule's merge list",
                     block=sop.home.bid, op=sop.op.uid)
        elif sop.index not in in_bundles:
            emit("op was never placed in any bundle",
                 block=sop.home.bid, op=sop.op.uid)


# ----------------------------------------------------------------------
# Driver


def check_schedule(
    problem: ScheduleProblem,
    ddg: DDG,
    schedule: RegionSchedule,
    machine: Optional[MachineModel] = None,
    liveness: Optional[LivenessInfo] = None,
    function_name: Optional[str] = None,
    report: Optional[LintReport] = None,
) -> LintReport:
    """Run every schedule rule over one region schedule.

    ``function_name`` defaults to the active lint scope's function (set by
    ``lint_schedules`` around each function's scheduling), since regions
    do not know which function they came from.
    """
    if report is None:
        report = LintReport()
    if function_name is None:
        function_name = current_function()
    ctx = ScheduleContext(problem, ddg, schedule,
                          machine=machine, liveness=liveness)
    for rule in rules_for("schedule"):
        rule.check(ctx, make_emitter(rule, report, function_name))
    return report
