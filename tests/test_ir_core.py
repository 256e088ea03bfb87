"""Tests for IR registers, operations, and basic CFG structure."""

import pytest

from repro.ir import (
    CFG,
    CompareCond,
    EdgeKind,
    Immediate,
    Opcode,
    Operation,
    RegClass,
    Register,
    RegisterFactory,
    parse_program,
)
from repro.api import simulate
from repro.util.errors import IRValidationError


class TestRegister:
    def test_str_uses_class_prefix(self):
        assert str(Register(RegClass.GPR, 3)) == "r3"
        assert str(Register(RegClass.PRED, 0)) == "p0"
        assert str(Register(RegClass.BTR, 7)) == "b7"

    def test_equality_is_by_value(self):
        assert Register(RegClass.GPR, 1) == Register(RegClass.GPR, 1)
        assert Register(RegClass.GPR, 1) != Register(RegClass.PRED, 1)

    def test_factory_mints_unique_per_class(self):
        regs = RegisterFactory()
        a, b = regs.fresh_gpr(), regs.fresh_gpr()
        p = regs.fresh_pred()
        assert a != b
        assert p.rclass is RegClass.PRED
        assert p.index == 0  # classes have independent counters

    def test_factory_reserve_avoids_collisions(self):
        regs = RegisterFactory()
        regs.reserve(Register(RegClass.GPR, 5))
        assert regs.fresh_gpr().index == 6

    def test_factory_past_the_largest_index_is_a_typed_error(self):
        regs = RegisterFactory()
        regs.reserve(Register(RegClass.PRED, (1 << 32) - 2))
        assert regs.fresh_pred().index == (1 << 32) - 1
        with pytest.raises(IRValidationError, match="no fresh p register"):
            regs.fresh_pred()
        assert regs.fresh_gpr().index == 0

    def test_scheduling_a_function_with_no_fresh_name_left(self):
        # Guard synthesis needs fresh predicates; the function already
        # uses the largest predicate index.
        program = parse_program(
            "program entry=main\nfunc main(r1) {\n"
            "  block bb1 weight=1 entry\n"
            "    p4294967295 = cmpp.lt r1, #3\n"
            "    brct p4294967295 -> bb2\n"
            "  block bb3 weight=1\n    ret r1\n"
            "  block bb2 weight=1\n    ret #1\n"
            "  edge bb1 -> bb2 taken weight=0.5\n"
            "  edge bb1 -> bb3 fallthrough weight=0.5\n}\n")
        with pytest.raises(IRValidationError, match="no fresh p register"):
            simulate(program, "treegion", "4U", [5])


class TestOperation:
    def _add(self, uid=1):
        return Operation(
            uid,
            Opcode.ADD,
            dests=[Register(RegClass.GPR, 2)],
            srcs=[Register(RegClass.GPR, 0), Register(RegClass.GPR, 1)],
        )

    def test_uses_include_guard(self):
        op = self._add()
        op.guard = Register(RegClass.PRED, 0)
        used = op.used_registers()
        assert Register(RegClass.PRED, 0) in used
        assert len(used) == 3

    def test_source_registers_exclude_guard_and_immediates(self):
        op = Operation(
            1, Opcode.ADD,
            dests=[Register(RegClass.GPR, 2)],
            srcs=[Register(RegClass.GPR, 0), Immediate(5)],
            guard=Register(RegClass.PRED, 0),
        )
        assert op.source_registers() == [Register(RegClass.GPR, 0)]

    def test_replace_uses_rewrites_sources_and_guard(self):
        op = self._add()
        op.guard = Register(RegClass.GPR, 0)  # contrived, but tests the path
        count = op.replace_uses(Register(RegClass.GPR, 0), Register(RegClass.GPR, 9))
        assert count == 2
        assert op.srcs[0] == Register(RegClass.GPR, 9)
        assert op.guard == Register(RegClass.GPR, 9)

    def test_replace_defs(self):
        op = self._add()
        assert op.replace_defs(Register(RegClass.GPR, 2), Register(RegClass.GPR, 8)) == 1
        assert op.dest == Register(RegClass.GPR, 8)

    def test_clone_preserves_origin(self):
        op = self._add(uid=10)
        clone = op.clone(uid=20)
        grandclone = clone.clone(uid=30)
        assert clone.uid == 20 and clone.origin == 10
        assert grandclone.origin == 10
        # Mutating the clone must not affect the original.
        clone.srcs[0] = Immediate(1)
        assert op.srcs[0] == Register(RegClass.GPR, 0)

    def test_same_computation(self):
        a, b = self._add(1), self._add(2)
        assert a.same_computation(b)
        b.srcs[1] = Immediate(3)
        assert not a.same_computation(b)

    def test_store_cannot_speculate(self):
        st = Operation(1, Opcode.ST, srcs=[Register(RegClass.GPR, 0), Immediate(0),
                                           Register(RegClass.GPR, 1)])
        assert not st.can_speculate
        assert self._add().can_speculate

    def test_branch_classification(self):
        br = Operation(1, Opcode.BRCT, srcs=[Register(RegClass.PRED, 0)], target=2)
        assert br.is_branch and br.is_terminator
        ret = Operation(2, Opcode.RET)
        assert ret.is_terminator and not ret.is_branch

    def test_dest_raises_on_multiple(self):
        cmpp = Operation(
            1, Opcode.CMPP,
            dests=[Register(RegClass.PRED, 0), Register(RegClass.PRED, 1)],
            srcs=[Register(RegClass.GPR, 0), Immediate(0)],
            cond=CompareCond.EQ,
        )
        with pytest.raises(ValueError):
            cmpp.dest


class TestCFG:
    def test_first_block_becomes_entry(self):
        cfg = CFG()
        b1 = cfg.new_block()
        cfg.new_block()
        assert cfg.entry is b1

    def test_edges_are_symmetric(self):
        cfg = CFG()
        a, b = cfg.new_block(), cfg.new_block()
        edge = cfg.add_edge(a, b, EdgeKind.FALLTHROUGH)
        assert edge in a.out_edges and edge in b.in_edges
        cfg.remove_edge(edge)
        assert not a.out_edges and not b.in_edges

    def test_merge_point_counts_edges_not_blocks(self):
        cfg = CFG()
        a, b = cfg.new_block(), cfg.new_block()
        cfg.add_edge(a, b, EdgeKind.TAKEN)
        cfg.add_edge(a, b, EdgeKind.FALLTHROUGH)
        assert b.is_merge_point()
        assert b.merge_count == 2

    def test_reverse_postorder_starts_at_entry(self):
        cfg = CFG()
        a, b, c = cfg.new_block(), cfg.new_block(), cfg.new_block()
        cfg.add_edge(a, b, EdgeKind.FALLTHROUGH)
        cfg.add_edge(b, c, EdgeKind.FALLTHROUGH)
        order = cfg.reverse_postorder()
        assert order == [a, b, c]

    def test_reverse_postorder_includes_unreachable(self):
        cfg = CFG()
        a = cfg.new_block()
        orphan = cfg.new_block()
        order = cfg.reverse_postorder()
        assert a in order and orphan in order

    def test_retarget_edge_updates_branch_target(self):
        cfg = CFG()
        a, b, c = cfg.new_block(), cfg.new_block(), cfg.new_block()
        br = cfg.append_op(a, Opcode.BRU, target=b.bid)
        edge = cfg.add_edge(a, b, EdgeKind.TAKEN)
        cfg.retarget_edge(edge, c)
        assert br.target == c.bid
        assert edge.dst is c
        assert edge not in b.in_edges and edge in c.in_edges

    def test_clone_block_for_edge_moves_weight(self):
        cfg = CFG()
        a, b, m, x = (cfg.new_block() for _ in range(4))
        cfg.append_op(m, Opcode.MOV, dests=[Register(RegClass.GPR, 0)],
                      srcs=[Immediate(1)])
        e1 = cfg.add_edge(a, m, EdgeKind.FALLTHROUGH, weight=30.0)
        e2 = cfg.add_edge(b, m, EdgeKind.FALLTHROUGH, weight=70.0)
        out = cfg.add_edge(m, x, EdgeKind.FALLTHROUGH, weight=100.0)
        m.weight = 100.0
        clone = cfg.clone_block_for_edge(m, e1)
        assert e1.dst is clone
        assert clone.weight == pytest.approx(30.0)
        assert m.weight == pytest.approx(70.0)
        assert out.weight == pytest.approx(70.0)
        clone_out = clone.out_edges[0]
        assert clone_out.dst is x and clone_out.weight == pytest.approx(30.0)
        # Clone ops are fresh uids, same origin.
        assert clone.ops[0].uid != m.ops[0].uid
        assert clone.ops[0].origin == m.ops[0].origin
        # m is no longer a merge point.
        assert not m.is_merge_point()
