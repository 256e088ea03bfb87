"""The parallel evaluation engine: equivalence with the serial runner.

The engine's contract is bit-identical results — not "close", identical:
``time`` (float equality, same accumulation order), ``code_expansion``,
and every region's schedule length must match per-cell serial evaluation
for every cell, on both the shared-work serial path and the
multiprocessing path.
"""

import gc
import os

import pytest

from repro.evaluation import evaluate_program
from repro.evaluation.engine import (
    GridCell,
    build_scheme,
    default_grid,
    evaluate_cell,
    evaluate_grid,
    machine_by_name,
)
from repro.schedule.priorities import HEURISTICS
from repro.schedule.scheduler import ScheduleOptions
from repro.obs import Span, SpanWriter, Tracer, merge_traces, trace_file
from repro.workloads.specint import build_benchmark

# A small but representative slice of the paper's grid: one mutating and
# one non-mutating scheme, both machines, two heuristics.
GRID = [
    GridCell(bench, scheme, machine, heuristic)
    for bench in ("compress", "li")
    for scheme in ("bb", "treegion", "treegion-td:2.0")
    for machine in ("4U", "8U")
    for heuristic in ("dep_height", "global_weight")
]


def _signature(result):
    return (result.time, result.code_expansion, result.schedule_lengths)


@pytest.fixture(scope="module")
def reference():
    """Per-cell serial evaluation through the plain runner."""
    refs = []
    for cell in GRID:
        program = build_benchmark(cell.benchmark)
        result = evaluate_program(
            program,
            build_scheme(cell.scheme),
            machine_by_name(cell.machine),
            ScheduleOptions(heuristic=cell.heuristic),
        )
        refs.append((result.time, result.code_expansion,
                     tuple(s.length for s in result.schedules)))
    return refs


STAGES = ("prep", "renaming", "ddg", "priorities", "list_schedule")


TRACED_CELLS = [GridCell("compress", scheme, machine, "global_weight")
                for scheme in ("bb", "treegion")
                for machine in ("4U", "8U")]


def _traced_grid(jobs, directory=None):
    """Trace a small direct-pipeline grid.

    Returns the tracer, its self times and the grid's results; with a
    ``directory``, spans also stream to per-process files there.  With
    the region memo on, a warm process may legitimately skip every
    stage, so it is pinned off here.
    """
    writers = (SpanWriter(trace_file(str(directory))),) \
        if directory is not None else ()
    tracer = Tracer(writers=writers)
    results = evaluate_grid(TRACED_CELLS, jobs=jobs, tracer=tracer,
                            region_memo=False)
    tracer.close()
    return tracer, tracer.self_times(), results


def _live_spans():
    gc.collect()
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, Span)}


def _untraced_signatures(jobs):
    return [_signature(result) for result in
            evaluate_grid(TRACED_CELLS, jobs=jobs, region_memo=False)]


def _stage_counts(times):
    return {stage: times[stage]["count"] for stage in STAGES}


class TestEquivalence:
    def test_evaluate_cell_matches_runner(self, reference):
        for cell, ref in zip(GRID, reference):
            assert _signature(evaluate_cell(cell)) == ref, cell

    def test_serial_grid_matches_runner(self, reference):
        results = evaluate_grid(GRID, jobs=1)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell

    def test_parallel_grid_matches_runner(self, reference):
        results = evaluate_grid(GRID, jobs=2)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell

    def test_results_in_input_order(self):
        results = evaluate_grid(GRID, jobs=2)
        assert [r.cell for r in results] == GRID

    def test_custom_programs_evaluated_locally(self, reference):
        programs = {"compress": build_benchmark("compress")}
        results = evaluate_grid(GRID, programs=programs, jobs=2)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell


class TestDominatorParallelismCells:
    def test_dp_cells_match_runner(self):
        cells = [
            GridCell("compress", "treegion-td:2.0", "4U", "global_weight",
                     dominator_parallelism=True),
            GridCell("compress", "treegion-td:2.0", "4U", "global_weight"),
        ]
        serial = evaluate_grid(cells, jobs=1)
        program = build_benchmark("compress")
        for cell, result in zip(cells, serial):
            ref = evaluate_program(
                program, build_scheme(cell.scheme),
                machine_by_name(cell.machine),
                ScheduleOptions(
                    heuristic=cell.heuristic,
                    dominator_parallelism=cell.dominator_parallelism,
                ),
            )
            assert result.time == ref.time
            assert result.total_merged == ref.total_merged


class TestGridHelpers:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 8 * 3 * 2 * 4
        assert len(set(grid)) == len(grid)

    def test_build_scheme_specs(self):
        assert build_scheme("bb").name == "bb"
        assert build_scheme("treegion").name == "treegion"
        assert build_scheme("treegion-td:1.5").name == "treegion-td(1.5)"
        assert build_scheme("treegion-td(1.5)").name == "treegion-td(1.5)"
        assert build_scheme("treegion-td").mutates
        assert build_scheme("hyperblock").name == "hyperblock"
        with pytest.raises(ValueError):
            build_scheme("nonsense")

    def test_machine_by_name(self):
        assert machine_by_name("4U").issue_width == 4
        assert machine_by_name("1U").issue_width == 1
        assert machine_by_name("16U").issue_width == 16
        with pytest.raises(ValueError):
            machine_by_name("fast")

    def test_jobs_zero_uses_cpu_count(self):
        cells = GRID[:2]
        results = evaluate_grid(cells, jobs=0)
        assert len(results) == 2

    def test_timer_collects_stages(self, tmp_path):
        tracer, times, results = _traced_grid(jobs=1, directory=tmp_path)
        # Observability never changes the answer.
        assert [_signature(r) for r in results] == _untraced_signatures(1)
        for stage in ("formation", "prep", "renaming", "ddg",
                      "list_schedule", "estimate"):
            assert stage in times, stage
        assert _stage_counts(times) == {stage: 100 for stage in STAGES}
        merged = merge_traces(str(tmp_path))
        roots = merged.roots()
        assert [span.name for span in roots] == ["evaluate_grid"]
        assert len(merged) == sum(s["count"] for s in times.values())
        # Serial spans nest, so self times add up to the wall.
        total = sum(stage["seconds"] for stage in times.values())
        assert abs(total - roots[0].duration) < 1e-9

    def test_worker_timers_merged(self, tmp_path):
        tracer, times, results = _traced_grid(jobs=2, directory=tmp_path)
        assert [_signature(r) for r in results] == _untraced_signatures(2)
        merged = merge_traces(str(tmp_path))
        roots = [span for span in merged.roots() if not span.instant]
        assert [span.name for span in roots] == ["evaluate_grid"]
        (pool,) = merged.find(name="pool")
        tasks = merged.find(name="task")
        assert tasks and all(s.parent_id == pool.span_id for s in tasks)
        assert len(merged.find(name="task_done")) == len(tasks)
        # Each task streams from the worker process that ran it, so it
        # sits on that worker's own track.
        assert all(s.service == "worker" and s.pid != os.getpid()
                   for s in tasks)
        # Worker totals count every stage the serial path runs.
        assert _stage_counts(times) == _stage_counts(_traced_grid(jobs=1)[1])
        assert _stage_counts(times) == {stage: 100 for stage in STAGES}
        assert times["ddg"]["seconds"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tracer_keeps_no_spans(self, jobs):
        before = _live_spans()
        tracer, times, _ = _traced_grid(jobs=jobs)
        assert times["ddg"]["count"] == 100
        assert _live_spans() <= before

    def test_cell_result_as_dict(self):
        result = evaluate_grid(GRID[:1], jobs=1)[0]
        snapshot = result.as_dict()
        assert snapshot["benchmark"] == GRID[0].benchmark
        assert snapshot["time"] == result.time


class TestHeuristicSweepSharing:
    """Shared priority keys must not leak between heuristics."""

    def test_all_heuristics_distinct_results_possible(self):
        cells = [
            GridCell("gcc", "treegion", "8U", heuristic)
            for heuristic in HEURISTICS
        ]
        shared = evaluate_grid(cells, jobs=1)
        for cell, result in zip(cells, shared):
            assert _signature(result) == _signature(evaluate_cell(cell)), (
                cell.heuristic
            )
