"""Tests for compile-time renaming and DDG construction."""

import pytest

from repro.core import form_treegions
from repro.ir import Opcode, RegClass, Register
from repro.ir.liveness import compute_liveness
from repro.machine import VLIW_4U
from repro.schedule.ddg import build_ddg
from repro.schedule.prep import prepare_region
from repro.schedule.renaming import rename_region

from tests.test_regions_formation import build_figure1_like
from repro.workloads.paper_example import build_paper_example


def _succs(ddg, i):
    """(successor, latency) pairs of op ``i`` from the DDG's CSR arrays."""
    return [(ddg.succ_dst[e], ddg.succ_lat[e])
            for e in range(ddg.succ_ptr[i], ddg.succ_ptr[i + 1])]


def _preds(ddg, i):
    """(predecessor, latency) pairs of op ``i`` from the CSR arrays."""
    return [(ddg.pred_src[e], ddg.pred_lat[e])
            for e in range(ddg.pred_ptr[i], ddg.pred_ptr[i + 1])]


def _prepared(fn):
    partition = form_treegions(fn.cfg)
    region = partition.region_of(fn.cfg.entry)
    liveness = compute_liveness(fn.cfg)
    problem = prepare_region(region, VLIW_4U, liveness)
    copies = rename_region(problem, liveness)
    return problem, copies, liveness


class TestRenaming:
    def test_paper_example_renames_r4_r5_not_r6(self):
        """Figure 5: bb4's r4/r5 defs get fresh names; bb8's r6 = 5 keeps
        its name because r6 is dead on the treegion's other exits."""
        program = build_paper_example()
        fn = program.entry_function
        problem, copies, _ = _prepared(fn)

        r4 = Register(RegClass.GPR, 4)
        r5 = Register(RegClass.GPR, 5)
        r6 = Register(RegClass.GPR, 6)

        defs = {}
        for sop in problem.sched_ops:
            if sop.source is not None and sop.source.opcode is Opcode.MOV:
                defs.setdefault(sop.home.name, []).append(sop.op.dest)
        # Both bb3 and bb4 define r4/r5 on divergent paths: at least one
        # side is renamed away from the original names.
        bb3_defs, bb4_defs = set(defs["bb3"]), set(defs["bb4"])
        assert not (bb3_defs & bb4_defs), "conflicting defs must diverge"
        # bb8's r6 = 5 stays r6 (the paper's speculation-without-renaming).
        assert defs["bb8"] == [r6]

    def test_exit_copies_restore_live_values(self):
        program = build_paper_example()
        fn = program.entry_function
        problem, copies, liveness = _prepared(fn)
        # Every copy maps a renamed reg back to an original live at its exit.
        assert copies, "r4/r5 renames must produce exit copies"
        for exit, original, renamed in copies:
            assert original != renamed
            assert original in liveness.live_into_edge(exit.edge)

    def test_rename_is_use_consistent(self):
        """After renaming, each path's uses read that path's defs: no op
        reads a register that a divergent path defined."""
        fn = build_figure1_like()
        problem, copies, _ = _prepared(fn)
        region = problem.region
        # For every pair of unrelated blocks, their def sets are disjoint.
        for a in region.blocks:
            for b in region.blocks:
                if a is b or region.dominates(a, b) or region.dominates(b, a):
                    continue
                defs_a = {d for s in problem.by_block[a.bid]
                          for d in s.op.defined_registers()}
                defs_b = {d for s in problem.by_block[b.bid]
                          for d in s.op.defined_registers()}
                assert not (defs_a & defs_b)


class TestDDG:
    def _ddg(self, fn):
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        liveness = compute_liveness(fn.cfg)
        problem = prepare_region(region, VLIW_4U, liveness)
        copies = rename_region(problem, liveness)
        return problem, build_ddg(problem, VLIW_4U, liveness, copies)

    def test_acyclic_and_index_forward(self):
        problem, ddg = self._ddg(build_figure1_like())
        for i in range(len(problem.sched_ops)):
            for j, _lat in _succs(ddg, i):
                assert j > i, "DDG edges must follow creation order"

    def test_flow_edges_carry_producer_latency(self):
        problem, ddg = self._ddg(build_figure1_like())
        # Loads (latency 2) feeding the root compare.
        loads = [s for s in problem.sched_ops if s.op.opcode is Opcode.LD]
        assert loads
        for load in loads:
            for j, lat in _succs(ddg, load.index):
                consumer = problem.sched_ops[j]
                if consumer.op.opcode is Opcode.CMPP:
                    assert lat == 2

    def test_exit_waits_for_guard_predicate(self):
        problem, ddg = self._ddg(build_figure1_like())
        for exit in problem.exits:
            sop = problem.exit_op_for(exit)
            preds = {p for p, _ in _preds(ddg, sop.index)}
            srcs = sop.op.source_registers()
            pred_producers = [
                p for p in preds
                if any(d in srcs for d in problem.sched_ops[p].op.dests)
            ]
            assert pred_producers, f"{exit!r} branch has no predicate producer"

    def test_sibling_paths_are_independent(self):
        """No DDG edge crosses between unrelated blocks (after renaming)."""
        problem, ddg = self._ddg(build_figure1_like())
        region = problem.region
        for i in range(len(problem.sched_ops)):
            a = problem.sched_ops[i].home
            for j, _ in _succs(ddg, i):
                b = problem.sched_ops[j].home
                assert region.dominates(a, b) or region.dominates(b, a)

    def test_memory_serialized_along_path(self):
        from repro.ir import Function, IRBuilder

        fn = Function("mem")
        b = IRBuilder(fn)
        blk = b.block()
        b.at(blk)
        v = b.ld(0, 0)
        b.st(0, 1, v)
        w = b.ld(0, 1)
        b.st(0, 2, w)
        b.ret()
        problem, ddg = self._ddg(fn)
        mem = [s for s in problem.sched_ops if s.op.is_memory]
        st1 = mem[1]
        ld2 = mem[2]
        # Playdoh rule: store -> dependent load at latency 0.
        assert (ld2.index, 0) in [(j, lat)
                                  for j, lat in _succs(ddg, st1.index)
                                  if j == ld2.index] or \
               (st1.index, 0) in [(p, lat)
                                  for p, lat in _preds(ddg, ld2.index)
                                  if p == st1.index]
        # load -> store memory ordering costs a full cycle (the store also
        # has a flow edge from the load, whose value it writes).
        lats = [lat for p, lat in _preds(ddg, mem[3].index)
                if p == ld2.index]
        assert 1 in lats

    def test_heights_monotone_along_edges(self):
        problem, ddg = self._ddg(build_figure1_like())
        for i in range(len(problem.sched_ops)):
            for j, lat in _succs(ddg, i):
                assert ddg.heights[i] >= lat + ddg.heights[j]

    def test_control_heights_make_guards_tall(self):
        """Guard CMPPs must outrank every op in their subtree (the
        control-dependence heights of the paper's DDG)."""
        problem, ddg = self._ddg(build_figure1_like())
        region = problem.region
        root_cmpp = [s for s in problem.by_block[region.root.bid]
                     if s.op.opcode is Opcode.CMPP][0]
        for sop in problem.sched_ops:
            if sop.home is not region.root:
                assert ddg.heights[root_cmpp.index] > ddg.heights[sop.index]
