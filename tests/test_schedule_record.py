"""Schedule records, their materialization, and the evaluation GC scope.

The list scheduler and the exact backend return a
:class:`~repro.schedule.schedule.ScheduleRecord`: cycles, placement
order, merges and the five figures the estimate reads.
:meth:`~repro.schedule.schedule.RegionSchedule.materialize` builds the
full schedule from it where placements are read.  These tests check
that

* a record's figures equal the ones read off its materialized schedule's
  ops, on every route (4U/8U, every heuristic, dominator parallelism and
  materialized copies on and off, the exact backend), over the corpus,
  the examples and generated programs;
* ``repro schedule`` and ``dot --schedule`` print what they printed when
  the list scheduler built the schedule itself (golden digests);
* a memo-on grid builds no :class:`RegionSchedule` at all;
* :func:`~repro.util.gc_policy.evaluation_gc` restores the caller's
  thresholds after every call, nested and threaded use included.
"""

import contextlib
import gc
import glob
import hashlib
import io
import os
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import form_treegions
from repro.evaluation import engine
from repro.evaluation.engine import GridCell, default_grid, evaluate_grid
from repro.evaluation.schemes import SchemeSpec, form_program
from repro.interp.profiler import profile_program
from repro.ir.analysis_cache import liveness_of
from repro.lang import compile_source
from repro.machine import VLIW_4U, VLIW_8U
from repro.machine.presets import universal_machine
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import HEURISTICS
from repro.schedule.schedule import RegionSchedule
from repro.schedule.scheduler import (
    ScheduleOptions,
    dependences,
    prepare,
    schedule_prepared,
    schedule_region,
)
from repro.util.gc_policy import GEN0_THRESHOLD, evaluation_gc
from repro.validate.generator import generate
from repro.workloads.minic_programs import (
    build_minic_program,
    minic_program_names,
)
from repro.workloads.paper_example import build_paper_example
from repro.workloads.pathological import (
    build_biased_treegion,
    build_linearized_treegion,
    build_wide_shallow_treegion,
)
from repro.workloads.specint import build_benchmark

#: The exact backend runs on regions up to this many ops.
EXACT_MAX_OPS = 24

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _reference_figures(problem, schedule):
    """The five figures read off a materialized schedule's ops, the way
    the list scheduler's post-passes used to compute them."""
    placed = schedule.all_ops()
    speculated = 0
    for sop in placed:
        if sop.source is None or sop.exit is not None:
            continue
        guard = problem.guards.get(sop.home.bid)
        definer = problem.guard_def.get(guard) if guard is not None else None
        if definer is not None and sop.cycle <= definer.effective_cycle:
            speculated += 1
    assert sum(sop.op.speculative for sop in problem.sched_ops) == speculated
    assert schedule.length == max((sop.cycle for sop in placed), default=0)
    return (tuple(problem.exit_op_for(exit).cycle for exit in problem.exits),
            schedule.length, len(schedule.copies), len(schedule.merged),
            speculated)


def _assert_figures_match(problem, record):
    schedule = RegionSchedule.materialize(problem, record)
    figures = (record.exit_cycles, record.length, record.copy_count,
               record.merged_count, record.speculated_count)
    assert figures == _reference_figures(problem, schedule)
    assert tuple(r.cycle for r in schedule.exits) == record.exit_cycles
    assert schedule.speculated_count == record.speculated_count
    # Slots follow the recorded placement order.
    assert [sop.index for sop in sorted(schedule.all_ops(),
                                        key=lambda s: (s.cycle, s.slot))] \
        == sorted(record.order, key=lambda i: record.cycle_of[i])


def _check_region(region, liveness, exact: bool = True) -> int:
    """Every route over one region; returns the merges seen."""
    merges = 0
    for machine in (VLIW_4U, VLIW_8U):
        for sc in (False, True):
            # Without dominator parallelism the problem is shared by
            # every heuristic (and the exact backend), as in the memo:
            # a record's materialization must not leak into the next.
            problem, copies = prepare(region, machine, liveness, sc)
            ddg = dependences(problem, machine, liveness, copies)
            for heuristic in HEURISTICS:
                record, _ = schedule_prepared(
                    problem, ddg, copies, machine,
                    ScheduleOptions(heuristic=heuristic, schedule_copies=sc))
                _assert_figures_match(problem, record)
            if exact and not sc and len(problem.sched_ops) <= EXACT_MAX_OPS:
                record, _ = schedule_prepared(
                    problem, ddg, copies, machine,
                    ScheduleOptions(backend="exact", exact_budget=500))
                _assert_figures_match(problem, record)
            for heuristic in HEURISTICS:
                options = ScheduleOptions(heuristic=heuristic,
                                          dominator_parallelism=True,
                                          schedule_copies=sc)
                problem, copies = prepare(region, machine, liveness, sc)
                ddg = dependences(problem, machine, liveness, copies)
                record, _ = schedule_prepared(problem, ddg, copies, machine,
                                              options)
                merges += record.merged_count
                _assert_figures_match(problem, record)
    return merges


def _check_program(program, schemes=("treegion", "treegion-td:2.0"),
                   exact: bool = True) -> int:
    merges = 0
    for spec in schemes:
        _, functions = form_program(program, SchemeSpec.parse(spec).build())
        for formed in functions:
            regions = list(formed.partition)
            if not regions:
                continue
            liveness = liveness_of(regions[0].root.cfg)
            for region in regions:
                merges += _check_region(region, liveness, exact)
    return merges


def _corpus():
    yield build_paper_example()
    yield build_biased_treegion()
    yield build_wide_shallow_treegion()
    yield build_linearized_treegion()
    for name in minic_program_names():
        program, canonical_args = build_minic_program(name)
        profile_program(program, inputs=[canonical_args])
        yield program


class TestRecordMatchesMaterialized:
    def test_corpus(self):
        merges = sum(_check_program(program) for program in _corpus())
        assert merges > 0  # dominator parallelism merged something

    @pytest.mark.parametrize("name", ["compress", "li"])
    def test_specint(self, name):
        _check_program(build_benchmark(name), schemes=("treegion-td:2.0",),
                       exact=False)

    @pytest.mark.parametrize("name", ["branchy.mc", "dotprod.mc"])
    def test_examples(self, name):
        with open(os.path.join(EXAMPLES, name)) as handle:
            program = compile_source(handle.read())
        profile_program(program, inputs=[[10]])
        _check_program(program)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated(self, seed):
        subject = generate(seed)
        profile_program(subject.program,
                        inputs=[list(args) for args in subject.inputs])
        _check_program(subject.program)

    def test_exact_improved_and_budget_exceeded(self):
        # A 17-op m88ksim region where the search beats every heuristic
        # on a 2-wide machine; a tiny budget returns the best
        # heuristic's own record instead.
        machine = universal_machine(2, name="2U")
        fn = next(f for f in build_benchmark("m88ksim").functions()
                  if f.name == "m88ksim")
        liveness = liveness_of(fn.cfg)
        region = next(r for r in form_treegions(fn.cfg) if r.root.bid == 31)
        problem, copies = prepare(region, machine, liveness)
        ddg = dependences(problem, machine, liveness, copies)
        for budget, proven, improved in ((3000, 1, 1), (10, 0, 0)):
            record, counts = schedule_prepared(
                problem, ddg, copies, machine,
                ScheduleOptions(backend="exact", exact_budget=budget))
            assert (counts.exact_proven, counts.exact_improved) == (
                proven, improved)
            _assert_figures_match(problem, record)

    def test_list_schedule_writes_nothing(self):
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        for region in form_treegions(fn.cfg):
            problem, copies = prepare(region, VLIW_8U, liveness)
            ddg = dependences(problem, VLIW_8U, liveness, copies)
            before = [(sop.cycle, sop.slot, sop.merged_into,
                       sop.op.speculative, list(sop.op.srcs))
                      for sop in problem.sched_ops]
            for heuristic in HEURISTICS:
                schedule_prepared(problem, ddg, copies, VLIW_8U,
                                  ScheduleOptions(heuristic=heuristic))
            assert [(sop.cycle, sop.slot, sop.merged_into,
                     sop.op.speculative, list(sop.op.srcs))
                    for sop in problem.sched_ops] == before


# ----------------------------------------------------------------------
# Golden output: what the CLI printed when the list scheduler placed
# SchedOps itself.  Each digest is the SHA-256 of one example's
# ``repro schedule`` (or ``dot --schedule``) output over the sweep below.

SCHEDULE_SWEEP = [
    (scheme, machine, heuristic)
    for scheme in ("bb", "treegion", "treegion-td", "superblock",
                   "hyperblock")
    for machine in ("4U", "8U")
    for heuristic in HEURISTICS
]
DOT_SWEEP = [
    (regions, machine, heuristic)
    for regions in ("treegion", "hyperblock")
    for machine in ("4U", "8U")
    for heuristic in HEURISTICS
]
GOLDEN = {
    ("branchy.mc", "schedule"):
        "6b6f6eedceea1750b1a66de518f79c30e8ccfafe30784ea9d50f094e6c7d5f1a",
    ("branchy.mc", "dot"):
        "47c959221695c2bb9004c745de3123f24fd4ebf272d9d2475254f034f3d49147",
    ("dotprod.mc", "schedule"):
        "6b68e2517dc667a05280a5df7019d94f698d6ba3c554ac36e811ce079a42f10d",
    ("dotprod.mc", "dot"):
        "00183fa8e7f3bc4dcdd728209c815680d725f9fca8a345a809b97633c27e846b",
}


_REGION_ID = re.compile(r"(region #|[a-z]+ #(?=\d+ \()|cluster_r)\d+")


def test_golden_covers_every_example():
    assert sorted({name for name, _ in GOLDEN}) == sorted(
        os.path.basename(path)
        for path in glob.glob(os.path.join(EXAMPLES, "*.mc")))


def _cli_digest(name: str, command: str) -> str:
    path = os.path.join(EXAMPLES, name)
    digest = hashlib.sha256()
    if command == "schedule":
        argvs = [["schedule", path, "--args", "10", "--scheme", scheme,
                  "--machine", machine, "--heuristic", heuristic]
                 for scheme, machine, heuristic in SCHEDULE_SWEEP]
    else:
        argvs = [["dot", path, "--regions", regions, "--schedule",
                  "--machine", machine, "--heuristic", heuristic]
                 for regions, machine, heuristic in DOT_SWEEP]
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        # The digests were recorded with region ids masked, so the
        # mask stays: it keeps them comparable across id schemes.
        digest.update(_REGION_ID.sub(r"\1N", out.getvalue()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_cli_output_is_golden(name, command):
    assert _cli_digest(name, command) == GOLDEN[name, command]


# ----------------------------------------------------------------------


def test_memo_grid_builds_no_region_schedule(monkeypatch):
    built = []
    original = RegionSchedule.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RegionSchedule, "__init__", counting)
    results = evaluate_grid(default_grid(), jobs=1, region_memo=RegionMemo())
    assert len(results) == 192
    assert built == []
    # The spy sees the direct route's schedules.
    fn = build_paper_example().entry_function
    schedule_region(next(iter(form_treegions(fn.cfg))), VLIW_4U)
    assert built == [1]


class TestEvaluationGC:
    CALLER = (777, 13, 17)
    INSIDE = (GEN0_THRESHOLD, 13, 17)
    CELLS = [GridCell("compress", "treegion", "4U", "dep_height")]

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        yield
        gc.set_threshold(*saved)

    def _spy_group(self, monkeypatch):
        seen = []
        original = engine._evaluate_group

        def spy(*args, **kwargs):
            seen.append(gc.get_threshold())
            return original(*args, **kwargs)
        monkeypatch.setattr(engine, "_evaluate_group", spy)
        return seen

    def test_evaluate_grid_restores(self, monkeypatch):
        seen = self._spy_group(monkeypatch)
        evaluate_grid(self.CELLS, jobs=1, region_memo=RegionMemo())
        assert seen == [self.INSIDE]
        assert gc.get_threshold() == self.CALLER

    def test_run_task_restores(self, monkeypatch):
        seen = self._spy_group(monkeypatch)
        task = ("compress", "treegion", ((0, self.CELLS[0]),), 0, None,
                None, None, None)
        out, *_ = engine._run_task(task)
        assert [index for index, _ in out] == [0]
        assert seen == [self.INSIDE]
        assert gc.get_threshold() == self.CALLER

    def test_raising_cell_restores(self):
        bad = GridCell("compress", "treegion", "4U", "dependence_height")
        with pytest.raises(ValueError, match="unknown heuristic"):
            evaluate_grid([bad], jobs=1, region_memo=RegionMemo())
        assert gc.get_threshold() == self.CALLER
        with pytest.raises(ValueError, match="unknown heuristic"):
            engine._run_task(("compress", "treegion", ((0, bad),), 0, None,
                              None, None, None))
        assert gc.get_threshold() == self.CALLER

    def test_nested_use_restores_at_the_outermost_exit(self):
        with evaluation_gc():
            assert gc.get_threshold() == self.INSIDE
            with evaluation_gc():
                assert gc.get_threshold() == self.INSIDE
            assert gc.get_threshold() == self.INSIDE
        assert gc.get_threshold() == self.CALLER

    def test_two_threads_restore_at_the_last_exit(self):
        entered, first_left, seen = (threading.Event(), threading.Event(),
                                     [])

        def first():
            with evaluation_gc():
                entered.set()
                second_inside.wait()
            first_left.set()

        def second():
            entered.wait()
            with evaluation_gc():
                second_inside.set()
                first_left.wait()
                seen.append(gc.get_threshold())

        second_inside = threading.Event()
        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == [self.INSIDE]
        assert gc.get_threshold() == self.CALLER

    def test_a_higher_or_disabled_threshold_is_kept(self):
        for caller in ((100_000, 13, 17), (0, 13, 17)):
            gc.set_threshold(*caller)
            with evaluation_gc():
                assert gc.get_threshold() == caller
            assert gc.get_threshold() == caller
