"""Tests for list scheduling: resources, latencies, exits, heuristics."""

import pytest

from repro.core import TreegionLimits, form_treegions, form_treegions_td
from repro.evaluation.schemes import SchemeSpec, form_program
from repro.ir import CompareCond, Function, IRBuilder, Opcode
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function
from repro.machine import SCALAR_1U, VLIW_4U, VLIW_8U, MachineModel
from repro.regions import form_basic_block_regions
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule.priorities import (
    DEP_HEIGHT,
    EXIT_COUNT,
    GLOBAL_WEIGHT,
    HEURISTICS,
    WEIGHTED_COUNT,
)
from repro.schedule.schedule import RegionSchedule
from repro.schedule.scheduler import (
    dependences,
    prepare,
    schedule_partition,
    schedule_prepared,
)
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function, switch_function
from tests.test_regions_formation import build_figure1_like


def _top_schedule(fn, machine=VLIW_4U, **opts):
    partition = form_treegions(fn.cfg)
    region = partition.region_of(fn.cfg.entry)
    return schedule_region(region, machine, ScheduleOptions(**opts))


class TestResourceConstraints:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_issue_width_respected(self, width):
        machine = MachineModel(name=f"{width}w", issue_width=width)
        sched = _top_schedule(build_figure1_like(), machine)
        for multiop in sched.cycles:
            assert len(multiop) <= width

    def test_narrower_machine_never_faster(self):
        fn = build_figure1_like()
        t1 = _top_schedule(fn, SCALAR_1U).weighted_time
        t4 = _top_schedule(fn, VLIW_4U).weighted_time
        t8 = _top_schedule(fn, VLIW_8U).weighted_time
        assert t1 >= t4 >= t8

    def test_memory_cap(self):
        machine = MachineModel(name="m", issue_width=8, max_memory_per_cycle=1)
        sched = _top_schedule(build_figure1_like(), machine)
        for multiop in sched.cycles:
            assert sum(1 for s in multiop if s.op.is_memory) <= 1

    def test_branch_cap(self):
        machine = MachineModel(name="b", issue_width=8, max_branches_per_cycle=1)
        sched = _top_schedule(build_figure1_like(), machine)
        for multiop in sched.cycles:
            assert sum(1 for s in multiop if s.op.is_branch) <= 1

    def test_all_ops_scheduled_once(self):
        sched = _top_schedule(build_figure1_like())
        seen = set()
        for sop in sched.all_ops():
            assert sop.index not in seen
            seen.add(sop.index)


class TestDependenceTiming:
    def test_latencies_respected(self):
        fn = build_figure1_like()
        partition = form_treegions(fn.cfg)
        for region in partition:
            sched = schedule_region(region, VLIW_4U)
            by_dest = {}
            for sop in sched.all_ops():
                for dest in sop.op.defined_registers():
                    by_dest[dest] = sop
            for sop in sched.all_ops():
                for src in sop.op.source_registers():
                    producer = by_dest.get(src)
                    if producer is None or producer.cycle >= sop.cycle:
                        continue
                    latency = VLIW_4U.latency(producer.op)
                    assert sop.cycle >= producer.cycle + latency

    def test_exit_retires_no_earlier_than_live_producers(self):
        fn = build_figure1_like()
        sched = _top_schedule(fn)
        for record in sched.exits:
            assert record.cycle >= 1

    def test_single_issue_schedules_serially(self):
        fn = diamond_function()
        partition = form_basic_block_regions(fn.cfg)
        schedules = schedule_partition(partition, SCALAR_1U)
        for sched in schedules:
            for multiop in sched.cycles:
                assert len(multiop) <= 1


class TestHeuristics:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_all_heuristics_complete(self, heuristic):
        for make in (build_figure1_like, diamond_function, switch_function):
            sched = _top_schedule(make(), heuristic=heuristic)
            assert sched.length > 0
            assert len(sched.exits) > 0

    def test_deterministic(self):
        for heuristic in HEURISTICS:
            a = _top_schedule(build_figure1_like(), heuristic=heuristic)
            b = _top_schedule(build_figure1_like(), heuristic=heuristic)
            assert [len(c) for c in a.cycles] == [len(c) for c in b.cycles]
            assert [r.cycle for r in a.exits] == [r.cycle for r in b.exits]

    def test_global_weight_prioritizes_hot_exit(self):
        """In a biased region, global weight retires the hot exit no later
        than dependence height does."""
        from repro.workloads.pathological import build_biased_treegion

        program = build_biased_treegion(depth=4)
        fn = program.entry_function
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        gw = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=GLOBAL_WEIGHT))
        dh = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=DEP_HEIGHT))
        assert gw.weighted_time <= dh.weighted_time

    def test_exit_count_delays_hot_case_in_wide_treegion(self):
        """Figure 9's failure mode: with exit count, the hot (low exit
        count) switch destination retires later than under global weight."""
        from repro.workloads.pathological import build_wide_shallow_treegion

        program = build_wide_shallow_treegion(fanout=8, hot_case=5)
        fn = program.entry_function
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        ec = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=EXIT_COUNT))
        gw = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=GLOBAL_WEIGHT))
        assert gw.weighted_time < ec.weighted_time

    def test_weighted_count_fails_on_linearized_treegion(self):
        """Figure 10: under equal weights, weighted count degenerates to
        exit count and delays the bottom (only taken) exit; global weight
        does not."""
        from repro.workloads.pathological import build_linearized_treegion

        program = build_linearized_treegion(length=6)
        fn = program.entry_function
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        wc = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=WEIGHTED_COUNT))
        gw = schedule_region(region, VLIW_4U,
                             ScheduleOptions(heuristic=GLOBAL_WEIGHT))
        assert gw.weighted_time <= wc.weighted_time


class TestSpeculationAccounting:
    def test_speculation_happens_and_is_counted(self):
        sched = _top_schedule(build_figure1_like(), machine=VLIW_8U)
        assert sched.speculated_count > 0
        flagged = [s for s in sched.all_ops() if s.op.speculative]
        assert len(flagged) == sched.speculated_count

    def test_stores_never_speculative(self):
        fn = Function("sts")
        b = IRBuilder(fn)
        e, t, f_bb = b.block(), b.block(), b.block()
        b.at(e)
        p = b.cmpp(CompareCond.GT, b.mov(1), 0)
        b.br_true(p, t, f_bb)
        b.at(t)
        b.st(0, 0, 5)
        b.ret()
        b.at(f_bb)
        b.st(0, 0, 9)
        b.ret()
        sched = _top_schedule(fn, VLIW_8U)
        for sop in sched.all_ops():
            if sop.op.opcode is Opcode.ST:
                assert not sop.op.speculative


class TestDominatorParallelism:
    def _tail_dup_region(self):
        program_fn = clone_function(build_figure1_like())
        partition = form_treegions_td(
            program_fn.cfg, TreegionLimits(code_expansion=3.0)
        )
        return partition.region_of(program_fn.cfg.entry)

    def test_duplicates_merged(self):
        region = self._tail_dup_region()
        with_dp = schedule_region(
            region, VLIW_8U,
            ScheduleOptions(heuristic=GLOBAL_WEIGHT, dominator_parallelism=True),
        )
        without = schedule_region(
            region, VLIW_8U,
            ScheduleOptions(heuristic=GLOBAL_WEIGHT, dominator_parallelism=False),
        )
        # bb5 was duplicated; its 'mov #0' clones share an origin and
        # identical operands, so at least one merge must happen.
        assert len(with_dp.merged) > 0
        assert len(without.merged) == 0
        assert with_dp.op_count < without.op_count

    def test_merge_never_lengthens_schedule(self):
        region = self._tail_dup_region()
        for heuristic in HEURISTICS:
            with_dp = schedule_region(
                region, VLIW_4U,
                ScheduleOptions(heuristic=heuristic, dominator_parallelism=True),
            )
            without = schedule_region(
                region, VLIW_4U,
                ScheduleOptions(heuristic=heuristic, dominator_parallelism=False),
            )
            assert with_dp.weighted_time <= without.weighted_time

    def test_merge_sees_earlier_rewiring(self):
        """A merge rewires its consumers, and later merge tests read the
        rewired operands: on this go region a duplicate whose prepared
        sources differ from its sibling's merges once their producers
        have merged.  The problem itself is untouched until the record
        is materialized."""
        formed = form_program(build_benchmark("go"),
                              SchemeSpec.parse("treegion-td:2.0").build())[1]
        go = next(f for f in formed if f.function.name == "go")
        region = next(r for r in go.partition if r.root.bid == 23)
        liveness = liveness_of(go.function.cfg)
        problem, copies = prepare(region, VLIW_4U, liveness)
        ddg = dependences(problem, VLIW_4U, liveness, copies)
        ops = problem.sched_ops
        prepared = [list(sop.op.srcs) for sop in ops]
        record, _ = schedule_prepared(
            problem, ddg, copies, VLIW_4U,
            ScheduleOptions(heuristic=DEP_HEIGHT, dominator_parallelism=True))
        chained = [(index, survivor) for index, survivor in record.merges
                   if prepared[index] != prepared[survivor]]
        assert chained
        assert [list(sop.op.srcs) for sop in ops] == prepared
        RegionSchedule.materialize(problem, record)
        for index, survivor in chained:
            assert ops[index].op.srcs == ops[survivor].op.srcs

    def test_merged_ops_consume_no_slots(self):
        region = self._tail_dup_region()
        sched = schedule_region(
            region, VLIW_4U,
            ScheduleOptions(heuristic=GLOBAL_WEIGHT, dominator_parallelism=True),
        )
        placed = {s.index for s in sched.all_ops()}
        for merged in sched.merged:
            assert merged.index not in placed
            assert merged.merged_into is not None
            assert merged.effective_cycle == merged.merged_into.cycle
