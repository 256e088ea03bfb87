"""A serve worker keeps its formed groups across requests.

:func:`repro.evaluation.engine._run_task` forms a (program, scheme)
group once and, given a :class:`~repro.serve.service.KeptGroups`, keeps
the formed functions and their region-memo tier-1 state for the next
request of the same group.  Reuse must be invisible: results stay
byte-identical to in-process :func:`evaluate_grid`, deterministic
counters do not depend on whether a group was formed or kept, a task
that raises leaves nothing behind, and the grid's own pool still forms
every task.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.evaluation import engine
from repro.evaluation.engine import (
    GridCell, _form_group, _run_task, build_scheme, evaluate_grid,
)
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.machine import VLIW_4U
from repro.obs import MetricsRegistry
from repro.schedule import memo as memo_module
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import HEURISTICS
from repro.schedule.scheduler import ScheduleOptions
from repro.serve import JobRequest, result_to_payload
from repro.serve import service
from repro.serve.jobs import JobHandle
from repro.serve.service import KeptGroups, WorkerPool
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function
from tests.test_region_memo import _regions

TEXTS = {name: format_program(build_benchmark(name))
         for name in ("compress", "li")}


def _cells(name="p", scheme="treegion"):
    """Every cell of one group: both paper machines x four heuristics."""
    return [GridCell(name, scheme, machine, heuristic)
            for machine in ("4U", "8U") for heuristic in HEURISTICS]


def _reference(cells, text):
    """The direct route (memo off) over the same text."""
    name = cells[0].benchmark
    return evaluate_grid(cells, program_texts={name: text},
                         region_memo=False)


def _serve_one_at_a_time(requests):
    """Submit ``(cell, text)`` requests to one single-worker pool, each
    after the previous one settled; returns the results and the pool's
    merged worker counters."""
    metrics = MetricsRegistry()
    pool = WorkerPool(jobs=1, metrics=metrics)
    try:
        results = []
        for index, (cell, text) in enumerate(requests):
            handle = JobHandle(key=str(index),
                               request=JobRequest(cell, program_text=text))
            pool.submit(handle)
            results.append(handle.result(timeout=120))
    finally:
        pool.close()
    return results, metrics.counters


def _assert_identical(served, reference):
    assert served == reference
    for mine, theirs in zip(served, reference):
        assert result_to_payload("k", mine) == result_to_payload("k", theirs)


class TestServedGroups:
    def test_cells_one_at_a_time_match_evaluate_grid(self):
        cells = _cells()
        served, counters = _serve_one_at_a_time(
            [(cell, TEXTS["compress"]) for cell in cells])
        _assert_identical(served, _reference(cells, TEXTS["compress"]))
        assert counters["serve.groups.formed"] == 1
        assert counters["serve.groups.reused"] == len(cells) - 1

    def test_evicting_bound_matches_evaluate_grid(self, monkeypatch):
        # A bound that holds one of two groups at a time: alternating
        # between them evicts on every request.
        program = parse_program(TEXTS["compress"])
        sizes = [_form_group(program, build_scheme(scheme)).ops
                 for scheme in ("bb", "treegion")]
        monkeypatch.setattr(service, "_kept_groups",
                            KeptGroups(max_ops=max(sizes)))
        bb, treegion = _cells(scheme="bb"), _cells(scheme="treegion")
        interleaved = [cell for pair in zip(bb, treegion) for cell in pair]
        served, counters = _serve_one_at_a_time(
            [(cell, TEXTS["compress"]) for cell in interleaved])
        _assert_identical(served,
                          _reference(interleaved, TEXTS["compress"]))
        assert counters["serve.groups.formed"] == len(interleaved)
        assert "serve.groups.reused" not in counters

    def test_two_texts_under_one_name_interleaved(self):
        cells = _cells()
        requests = [(cell, TEXTS[name]) for cell in cells
                    for name in ("compress", "li")]
        served, _ = _serve_one_at_a_time(requests)
        for name in ("compress", "li"):
            mine = [result for result, (_, text) in zip(served, requests)
                    if text == TEXTS[name]]
            _assert_identical(mine, _reference(cells, TEXTS[name]))


def _task(cell, memo_spec=(None, 0.0)):
    return (cell.benchmark, cell.scheme, ((0, cell),), None, memo_spec,
            None)


def _pipeline_counters(snapshot):
    """The deterministic part of a task's metrics, minus ``serve.*``
    (store I/O and group reuse differ by route by design)."""
    counters = MetricsRegistry.from_snapshot(snapshot) \
        .deterministic_snapshot()
    counters["counters"] = {
        name: value for name, value in counters["counters"].items()
        if not name.startswith("serve.")}
    return counters


class TestTaskCounters:
    @pytest.mark.parametrize("scheme", ["treegion", "treegion-td:2.0",
                                        "superblock"])
    def test_formed_and_kept_snapshots_are_equal(self, scheme,
                                                 monkeypatch):
        # A fresh memo per task: only the kept group carries over.
        monkeypatch.setattr(memo_module, "global_memo", RegionMemo)
        first, second = _cells("compress", scheme)[:2]
        formed = _run_task(_task(second), KeptGroups())
        groups = KeptGroups()
        _run_task(_task(first), groups)
        kept = _run_task(_task(second), groups)
        assert kept[0] == formed[0]
        assert _pipeline_counters(kept[2]) == _pipeline_counters(formed[2])
        assert _pipeline_counters(kept[2])["counters"]["formation.regions"]
        assert formed[2]["counters"]["serve.groups.formed"] == 1
        assert kept[2]["counters"]["serve.groups.reused"] == 1

    def test_raising_task_leaves_no_entry(self):
        good = GridCell("compress", "treegion", "4U", "global_weight")
        bad = GridCell("compress", "treegion", "4U", "dependence_height")
        groups = KeptGroups()
        with pytest.raises(ValueError, match="unknown heuristic"):
            _run_task(_task(bad), groups)
        assert len(groups) == 0 and groups.ops == 0
        # A kept group whose later task raises goes too.
        _run_task(_task(good), groups)
        assert len(groups) == 1
        with pytest.raises(ValueError, match="unknown heuristic"):
            _run_task(_task(bad), groups)
        assert len(groups) == 0 and groups.ops == 0

    def test_alternating_texts_under_one_name_reuse_their_groups(self):
        """The parsed-text cache keys by the text, not the name: each
        text keeps its one program, so its kept group is found again."""
        groups = KeptGroups()
        formed = reused = 0
        for name in ("compress", "li") * 3:
            cell = GridCell("p", "treegion", "4U", "global_weight")
            task = (cell.benchmark, cell.scheme, ((0, cell),), TEXTS[name],
                    (None, 0.0), None)
            counters = _run_task(task, groups)[2]["counters"]
            formed += counters.get("serve.groups.formed", 0)
            reused += counters.get("serve.groups.reused", 0)
        assert (formed, reused) == (2, 4)
        assert len(groups) == 2

    def test_grid_route_forms_every_task(self, monkeypatch):
        calls = []
        original = engine.form_program

        def spy(*args, **kwargs):
            calls.append(args[1].name)
            return original(*args, **kwargs)
        monkeypatch.setattr(engine, "form_program", spy)
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        for _ in range(2):
            _run_task(_task(cell))
        assert calls == ["treegion", "treegion"]


class _Sized:
    def __init__(self, ops):
        self.ops = ops


class TestKeptGroups:
    def test_least_recently_used_goes_first_past_the_op_bound(self):
        groups = KeptGroups(max_ops=10)
        for key in "abc":
            groups.put(key, _Sized(4))
        assert groups.get("a") is None and groups.ops == 8
        assert groups.get("b") is not None   # now the most recent
        groups.put("d", _Sized(4))
        assert groups.get("c") is None
        assert groups.get("b") is not None and groups.get("d") is not None

    def test_a_group_over_the_bound_is_not_kept(self):
        groups = KeptGroups(max_ops=10)
        groups.put("a", _Sized(4))
        groups.put("big", _Sized(11))
        assert len(groups) == 0 and groups.ops == 0

    @pytest.mark.parametrize("leave", ["evicted", "dropped"])
    def test_a_frozen_group_that_leaves_is_freed(self, leave):
        """Freezing keeps the collector off kept groups, yet a group
        in a reference cycle is still freed once it leaves."""
        groups = KeptGroups(max_ops=10)
        group = _Sized(8)
        group.cycle = group
        freed = weakref.ref(group)
        groups.put("a", group)
        del group
        try:
            groups.freeze()
            assert gc.get_freeze_count() > 0
            gc.collect()
            assert freed() is not None
            if leave == "evicted":
                groups.put("b", _Sized(8))
            else:
                groups.drop("a")
            groups.freeze()
            assert freed() is None
        finally:
            gc.unfreeze()


class TestGroupState:
    def test_a_kept_state_put_back_is_reused(self, monkeypatch):
        regions, liveness = _regions(diamond_function())
        memo = RegionMemo()
        options = ScheduleOptions()
        state = memo.begin_group()
        first = memo.schedule(regions[0], VLIW_4U, options, liveness)
        assert memo.begin_group() is not state
        assert not memo._problems
        assert memo.begin_group(state) is state
        prepared = []
        original = memo_module.prepare
        monkeypatch.setattr(
            memo_module, "prepare",
            lambda *a, **k: prepared.append(a) or original(*a, **k))
        memo._entries.clear()   # force a tier-2 miss
        assert memo.schedule(regions[0], VLIW_4U, options,
                             liveness) == first
        assert not prepared
