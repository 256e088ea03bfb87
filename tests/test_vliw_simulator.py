"""Focused tests for the VLIW schedule simulator's execution model."""

import pytest

from repro.interp import Interpreter, profile_program
from repro.lang import compile_source
from repro.machine import MachineModel, VLIW_4U, VLIW_8U
from repro.schedule import ScheduleOptions
from repro.evaluation import bb_scheme, treegion_scheme
from repro.evaluation.engine import (
    GridCell, build_scheme, evaluate_cell, machine_by_name,
)
from repro.workloads.specint import build_benchmark
from repro.vliw import VLIWSimulator, schedule_program, simulate
from repro.util.errors import InterpreterError


def _prog(src, inputs):
    program = compile_source(src)
    profile_program(program, inputs=[list(i) for i in inputs])
    return program


class TestLatencySemantics:
    def test_load_latency_respected_in_results(self):
        """A 2-cycle load feeding an add must still produce the right
        value — the DDG spacing and the pending-write queue must agree."""
        src = """
        var g = 41;
        func main(a) { return g + a; }
        """
        program = _prog(src, [[1]])
        result, simulator = simulate(program, treegion_scheme(), VLIW_4U,
                                     [1])
        assert result == 42

    def test_fdiv_latency_chain(self):
        src = "func main(a) { return (a * 3 - a) / 2; }"
        program = _prog(src, [[10]])
        result, _ = simulate(program, treegion_scheme(), VLIW_8U, [10])
        assert result == 10

    def test_in_flight_writes_drain_at_region_exit(self):
        """A load issued in the exit cycle completes across the region
        boundary; the next region must see its value."""
        src = """
        var g = 7;
        func main(a) {
            var x = g;          // load lands near the region exit
            if (a > 0) { x = x + 1; }
            return x;
        }
        """
        program = _prog(src, [[1], [0]])
        for args, expected in ([1], 8), ([0], 7):
            result, _ = simulate(program, treegion_scheme(), VLIW_4U, args)
            assert result == expected


class TestPredicationSemantics:
    def test_guarded_stores_squash(self):
        src = """
        array buf[2];
        func main(a) {
            if (a > 0) { buf[0] = 1; } else { buf[1] = 1; }
            return buf[0] * 10 + buf[1];
        }
        """
        program = _prog(src, [[1], [-1]])
        assert simulate(program, treegion_scheme(), VLIW_4U, [1])[0] == 10
        assert simulate(program, treegion_scheme(), VLIW_4U, [-1])[0] == 1

    def test_speculative_division_is_dismissible(self):
        """The cold arm divides by a; speculated with a=0 it must not
        trap (Play-Doh dismissible semantics) and must not affect the
        committed result."""
        src = """
        func main(a) {
            var r = 0;
            if (a == 0) { r = 5; }
            else { r = 100 / a; }
            return r;
        }
        """
        program = _prog(src, [[0], [4]])
        assert simulate(program, treegion_scheme(), VLIW_8U, [0])[0] == 5
        assert simulate(program, treegion_scheme(), VLIW_8U, [4])[0] == 25

    def test_exactly_one_exit_fires_per_visit(self):
        src = """
        func main(a) {
            var x = 0;
            if (a > 2) { x = 1; } else { x = 2; }
            return x;
        }
        """
        program = _prog(src, [[5], [0]])
        scheduled = schedule_program(program, treegion_scheme(), VLIW_4U,
                                     ScheduleOptions())
        simulator = VLIWSimulator(scheduled)
        assert simulator.run([5]) == 1  # would raise on 0 or 2 exits


class TestAccounting:
    def test_cycles_accumulate_over_regions(self):
        src = """
        func main(n) {
            var acc = 0;
            for (var i = 0; i < n; i = i + 1) { acc = acc + i; }
            return acc;
        }
        """
        program = _prog(src, [[4]])
        _res, short = simulate(program, treegion_scheme(), VLIW_4U, [2])
        _res, longer = simulate(program, treegion_scheme(), VLIW_4U, [9])
        assert longer.cycles > short.cycles
        assert longer.region_visits > short.region_visits

    def test_region_visit_budget(self):
        src = """
        func main(n) {
            var i = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        """
        program = _prog(src, [[5]])
        scheduled = schedule_program(program, bb_scheme(), VLIW_4U,
                                     ScheduleOptions())
        simulator = VLIWSimulator(scheduled, max_region_visits=3)
        with pytest.raises(InterpreterError, match="budget"):
            simulator.run([1000])

    def test_argument_count_checked(self):
        program = _prog("func main(a, b) { return a + b; }", [[1, 2]])
        scheduled = schedule_program(program, bb_scheme(), VLIW_4U,
                                     ScheduleOptions())
        with pytest.raises(InterpreterError, match="expects"):
            VLIWSimulator(scheduled).run([1])

    def test_memory_matches_interpreter_including_arrays(self):
        src = """
        array out[6];
        func main(n) {
            for (var i = 0; i < n; i = i + 1) { out[i] = i * i; }
            return n;
        }
        """
        program = _prog(src, [[6]])
        reference = Interpreter(program)
        reference.run([6])
        _res, simulator = simulate(program, treegion_scheme(), VLIW_4U, [6])
        assert simulator.memory == reference.memory


class TestGridRoute:
    def test_schedule_program_is_what_the_grid_measures(self):
        """The simulator runs the engine's route: for a mutating scheme,
        its region lengths (function, then region order) and weighted
        time are the grid cell's."""
        cell = GridCell("compress", "treegion-td:2.0", "4U", "dep_height")
        program = build_benchmark(cell.benchmark)
        expected = evaluate_cell(cell, program=program)
        scheduled = schedule_program(program, build_scheme(cell.scheme),
                                     machine_by_name(cell.machine),
                                     cell.options())
        assert scheduled.program is not program
        functions = list(scheduled.functions.values())
        lengths = tuple(schedule.length for function in functions
                        for schedule in function.by_root.values())
        assert lengths == expected.schedule_lengths
        time = 0.0
        for function in functions:
            time += sum(schedule.weighted_time
                        for schedule in function.by_root.values())
        assert time == expected.time


class TestNarrowMachines:
    def test_one_wide_machine_executes_correctly(self):
        src = """
        func main(a, b) {
            var m = a;
            if (b > m) { m = b; }
            return m * 2;
        }
        """
        program = _prog(src, [[3, 9], [9, 3]])
        one_wide = MachineModel(name="1w", issue_width=1)
        for args, expected in ([3, 9], 18), ([9, 3], 18), ([0, 0], 0):
            result, _simulator = simulate(program, treegion_scheme(),
                                          one_wide, args)
            assert result == expected
