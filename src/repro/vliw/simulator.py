"""Cycle-accurate execution of region schedules.

Execution model (per region visit):

1. Cycles execute in order.  At the top of each cycle, register writes
   whose latency has elapsed commit (NUAL semantics: a consumer scheduled
   too early would read the *old* value — the DDG guarantees this never
   matters, and the co-simulation tests prove it).
2. Within a cycle, stores execute first — the Playdoh rule that "a store
   and any dependent memory operation can be scheduled in the same cycle".
3. Remaining ops execute: guarded ops whose predicate is false are
   squashed; everything else executes speculatively (dismissible
   semantics: a speculated divide-by-zero yields 0 rather than trapping,
   like Play-Doh's dismissible loads).
4. Exit branches whose predicate is true fire.  Exactly one exit fires
   per region visit (guard predicates are disjoint by construction; the
   simulator asserts this).  At the exit, in-flight writes drain, the
   exit's renaming copies apply (restoring original register names for
   the next region), and control transfers to the region owning the
   target block.

Cycle accounting: a region visit costs the cycle index at which its exit
fired — the same quantity the static estimator weights by profile counts.
Calls are executed recursively on the callee's own schedules; their cycles
are accounted to the callee (region-level scheduling treats calls as
atomic ops, as the paper's compiler does).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.errors import InterpreterError, SchedulingError
from repro.ir.function import Function, Program
from repro.ir.registers import Register
from repro.ir.types import Immediate, Opcode
from repro.interp.ops import PURE_OPCODES, evaluate
from repro.interp.state import MachineState
from repro.machine.model import MachineModel
from repro.regions.region import RegionPartition
from repro.schedule.schedule import RegionSchedule, SchedOp
from repro.schedule.scheduler import ScheduleOptions
from repro.evaluation.engine import evaluate_program
from repro.evaluation.schemes import Scheme


class ScheduledFunction:
    """One function's regions and their schedules."""

    def __init__(self, function: Function, partition: RegionPartition,
                 schedules: List[RegionSchedule]):
        self.function = function
        self.partition = partition
        self.by_root: Dict[int, RegionSchedule] = {
            sched.region.root.bid: sched for sched in schedules
        }

    def schedule_for_block(self, bid: int) -> RegionSchedule:
        """The schedule of the region rooted at block ``bid``.

        Control only ever enters a region at its root (single-entry), so
        lookups by root id suffice.
        """
        try:
            return self.by_root[bid]
        except KeyError:
            raise SchedulingError(
                f"bb{bid} is not a region root in {self.function.name}"
            ) from None


class ScheduledProgram:
    """A fully scheduled program ready for simulation."""

    def __init__(self, program: Program, machine: MachineModel,
                 scheme_name: str):
        self.program = program
        self.machine = machine
        self.scheme_name = scheme_name
        self.functions: Dict[str, ScheduledFunction] = {}

    def add(self, scheduled: ScheduledFunction) -> None:
        self.functions[scheduled.function.name] = scheduled


def schedule_program(
    program: Program,
    scheme: Scheme,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
) -> ScheduledProgram:
    """Form regions and schedule every function; input program untouched.

    :func:`~repro.evaluation.engine.evaluate_program` (the route the grid
    measures) reduced to executable schedules, split per function.
    """
    evaluated = evaluate_program(program, scheme, machine, options)
    result = ScheduledProgram(evaluated.program, machine, scheme.name)
    schedules = iter(evaluated.schedules)
    for function, partition in zip(evaluated.program.functions(),
                                   evaluated.partitions):
        result.add(ScheduledFunction(
            function, partition, list(islice(schedules, len(partition)))))
    return result


class VLIWSimulator:
    """Executes a :class:`ScheduledProgram`."""

    def __init__(self, scheduled: ScheduledProgram,
                 max_region_visits: int = 2_000_000):
        self.scheduled = scheduled
        self.program = scheduled.program
        self.machine = scheduled.machine
        self.max_region_visits = max_region_visits
        self.memory: Dict[int, object] = MachineState.initial_memory(
            self.program
        )
        #: Total cycles spent, per the region-exit accounting above.
        self.cycles = 0
        self.region_visits = 0
        #: Speculated/guarded ops whose guard was false at execute time.
        self.squashes = 0
        #: In-flight long-latency writes applied at a region boundary.
        self.drained_writes = 0

    def record_metrics(self, metrics) -> None:
        """Count this run's totals into a metrics registry (gauges:
        simulator state is per-run and process-local, so these sit
        outside the serial/parallel determinism contract)."""
        metrics.gauge("sim.cycles", self.cycles)
        metrics.gauge("sim.region_visits", self.region_visits)
        metrics.gauge("sim.squashes", self.squashes)
        metrics.gauge("sim.drained_writes", self.drained_writes)

    # ------------------------------------------------------------------

    def run(self, args: Sequence[object] = ()):
        return self.call(self.program.entry_name, list(args))

    def call(self, name: str, args: Sequence[object]):
        scheduled = self.scheduled.functions[name]
        function = scheduled.function
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{name} expects {len(function.params)} args, got {len(args)}"
            )
        state = MachineState(memory=self.memory, strict=False)
        for param, value in zip(function.params, args):
            state.write(param, value)

        block_id = function.cfg.entry.bid
        while True:
            self.region_visits += 1
            if self.region_visits > self.max_region_visits:
                raise InterpreterError("region visit budget exhausted")
            schedule = scheduled.schedule_for_block(block_id)
            outcome = self._run_region(schedule, state)
            if outcome.returned:
                return outcome.value
            block_id = outcome.target_bid

    # ------------------------------------------------------------------

    def _run_region(self, schedule: RegionSchedule,
                    state: MachineState) -> "_RegionOutcome":
        pending: List[Tuple[int, Register, object]] = []
        fired: Optional[Tuple[SchedOp, object]] = None

        for cycle_index, multiop in schedule.iter_bundles():
            # 1. Commit writes whose latency elapsed.
            still_pending = []
            for ready, register, value in pending:
                if ready <= cycle_index:
                    state.write(register, value)
                else:
                    still_pending.append((ready, register, value))
            pending = still_pending

            # 2. Stores first (Playdoh same-cycle forwarding).
            for sop in multiop:
                if sop.op.opcode is Opcode.ST:
                    self._execute_store(sop, state)

            # 3. Everything else.
            for sop in multiop:
                op = sop.op
                if op.opcode is Opcode.ST:
                    continue
                if sop.exit is not None:
                    result = self._try_exit(sop, state)
                    if result is not None:
                        if fired is not None:
                            raise SchedulingError(
                                f"two exits fired in one region visit: "
                                f"{fired[0]!r} and {sop!r}"
                            )
                        fired = (sop, result[0])
                    continue
                self._execute_compute(sop, state, pending, cycle_index)

            if fired is not None:
                self.cycles += cycle_index
                break
        else:
            if fired is None:
                raise SchedulingError(
                    f"region {schedule.region!r} finished with no exit fired"
                )

        # Drain in-flight writes at the boundary (stall-equivalent).
        self.drained_writes += len(pending)
        for _ready, register, value in pending:
            state.write(register, value)

        exit_sop, ret_value = fired
        # Apply the exit's renaming copies (original <- renamed).
        for exit, original, renamed in schedule.copies:
            if exit is exit_sop.exit:
                state.write(original, state.read(renamed))

        if exit_sop.exit.is_return:
            return _RegionOutcome(returned=True, value=ret_value)
        return _RegionOutcome(target_bid=exit_sop.exit.edge.dst.bid)

    # ------------------------------------------------------------------

    def _value(self, state: MachineState, operand):
        if isinstance(operand, Immediate):
            return operand.value
        return state.read(operand)

    def _guard_holds(self, state: MachineState, sop: SchedOp) -> bool:
        if sop.op.guard is None:
            return True
        return bool(state.read(sop.op.guard))

    def _execute_store(self, sop: SchedOp, state: MachineState) -> None:
        if not self._guard_holds(state, sop):
            self.squashes += 1
            return
        op = sop.op
        base = self._value(state, op.srcs[0])
        offset = self._value(state, op.srcs[1])
        value = self._value(state, op.srcs[2])
        state.store(base + offset, value)

    def _try_exit(self, sop: SchedOp, state: MachineState):
        """Returns (value,) when the exit fires, else None."""
        op = sop.op
        if op.opcode is Opcode.RET:
            if not self._guard_holds(state, sop):
                return None
            value = self._value(state, op.srcs[0]) if op.srcs else None
            return (value,)
        if op.opcode is Opcode.BRU:
            if not self._guard_holds(state, sop):
                return None
            return (None,)
        # Predicated exit branch.
        predicate = bool(self._value(state, op.srcs[0]))
        if op.opcode is Opcode.BRCT and predicate:
            return (None,)
        if op.opcode is Opcode.BRCF and not predicate:
            return (None,)
        return None

    def _execute_compute(self, sop: SchedOp, state: MachineState,
                         pending: List[Tuple[int, Register, object]],
                         cycle_index: int) -> None:
        op = sop.op
        opcode = op.opcode
        latency = self.machine.latency(op)

        def write(register: Register, value) -> None:
            if latency <= 1:
                state.write(register, value)
            else:
                pending.append((cycle_index + latency, register, value))

        if not self._guard_holds(state, sop):
            self.squashes += 1
            # Guarded op squashed; CMPPs still clear their dests so the
            # guard chain stays well-defined along not-taken paths.
            if opcode in (Opcode.CMPP, Opcode.NINSET, Opcode.PAND,
                          Opcode.PANDCN, Opcode.POR):
                for dest in op.dests:
                    write(dest, False)
            return

        if opcode in PURE_OPCODES:
            values = [self._value(state, s) for s in op.srcs]
            write(op.dest, evaluate(opcode, values, dismissible=True))
        elif opcode is Opcode.LD:
            base = self._value(state, op.srcs[0])
            offset = self._value(state, op.srcs[1])
            try:
                address = int(base) + int(offset)
            except (TypeError, ValueError):
                address = 0  # dismissible: garbage speculative address
            write(op.dest, state.load(address))
        elif opcode is Opcode.CMPP:
            lhs = self._value(state, op.srcs[0])
            rhs = self._value(state, op.srcs[1])
            try:
                result = bool(op.cond.evaluate(lhs, rhs))
            except TypeError:
                result = False  # speculative compare on junk
            write(op.dests[0], result)
            if len(op.dests) > 1:
                write(op.dests[1], not result)
        elif opcode is Opcode.PAND:
            values = [bool(self._value(state, s)) for s in op.srcs]
            write(op.dest, all(values))
        elif opcode is Opcode.PANDCN:
            values = [bool(self._value(state, s)) for s in op.srcs]
            rest = all(values[1:]) if len(values) > 1 else True
            write(op.dest, (not values[0]) and rest)
        elif opcode is Opcode.POR:
            values = [bool(self._value(state, s)) for s in op.srcs]
            write(op.dest, any(values))
        elif opcode is Opcode.NINSET:
            selector = self._value(state, op.srcs[0])
            members = {self._value(state, s) for s in op.srcs[1:]}
            write(op.dest, selector not in members)
        elif opcode is Opcode.PBR:
            write(op.dest, op.target)
        elif opcode is Opcode.CALL:
            values = [self._value(state, s) for s in op.srcs]
            result = self.call(op.callee, values)
            if op.dests:
                write(op.dest, result)
        elif opcode is Opcode.NOP:
            pass
        else:
            raise SchedulingError(
                f"simulator cannot execute opcode {opcode.value}"
            )


class _RegionOutcome:
    __slots__ = ("returned", "value", "target_bid")

    def __init__(self, returned: bool = False, value=None,
                 target_bid: Optional[int] = None):
        self.returned = returned
        self.value = value
        self.target_bid = target_bid


def simulate(
    program: Program,
    scheme: Scheme,
    machine: MachineModel,
    args: Sequence[object] = (),
    options: Optional[ScheduleOptions] = None,
):
    """Schedule and execute; returns (result, simulator).

    The simulator object exposes final memory and the dynamic cycle count.
    """
    scheduled = schedule_program(program, scheme, machine, options)
    simulator = VLIWSimulator(scheduled)
    result = simulator.run(args)
    return result, simulator
