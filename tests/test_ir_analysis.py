"""Tests for dominators, liveness, the verifier, and text round-trips."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tail_duplication import TreegionLimits, form_treegions_td
from repro.ir import (
    CompareCond,
    DominatorTree,
    EdgeKind,
    Function,
    IRBuilder,
    Opcode,
    Program,
    RegClass,
    Register,
    compute_liveness,
    format_program,
    parse_program,
    verify_function,
)
from repro.ir.clone import clone_function
from repro.util.errors import IRValidationError, ReproError
from repro.validate.generator import generate
from repro.workloads.specint import BENCHMARK_NAMES, build_benchmark

from tests.helpers import (
    diamond_function,
    loop_function,
    program_with,
    straight_line_function,
    switch_function,
)


class TestDominators:
    def test_diamond(self):
        fn = diamond_function()
        entry, then_bb, else_bb, join = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(entry, join)
        assert dom.dominates(entry, entry)
        assert not dom.dominates(then_bb, join)
        assert dom.idom(join) is entry
        assert dom.idom(entry) is None

    def test_loop_header_dominates_body(self):
        fn = loop_function()
        entry, header, body, exit_bb = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(header, body)
        assert dom.dominates(header, exit_bb)
        assert not dom.dominates(body, exit_bb)

    def test_strict_dominance_is_irreflexive(self):
        fn = straight_line_function()
        blocks = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.strictly_dominates(blocks[0], blocks[2])
        assert not dom.strictly_dominates(blocks[0], blocks[0])

    def test_dominated_by(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        dom = DominatorTree(fn.cfg)
        assert set(b.bid for b in dom.dominated_by(entry)) == {
            b.bid for b in fn.cfg.blocks()
        }


class TestLiveness:
    def test_value_live_across_branch(self):
        fn = diamond_function()
        entry, then_bb, else_bb, join = fn.cfg.blocks()
        live = compute_liveness(fn.cfg)
        # 'then' defines t used in join: t is live out of then, into join.
        t = then_bb.ops[0].dest
        assert t in live.live_out(then_bb)
        assert t in live.live_in(join)
        # t is NOT defined before 'then', so it is (spuriously, in this
        # non-SSA IR) live-in to 'then'; what matters for renaming is the
        # else-path: t reaches join from both arms in the may-analysis.
        assert t in live.live_out(else_bb)

    def test_dead_value_not_live_out(self):
        fn = straight_line_function(n_blocks=2)
        b0, b1 = fn.cfg.blocks()
        dead = b0.ops[0].dest
        live = compute_liveness(fn.cfg)
        assert dead not in live.live_out(b0)

    def test_loop_carried_liveness(self):
        fn = loop_function()
        entry, header, body, exit_bb = fn.cfg.blocks()
        i = entry.ops[0].dest
        live = compute_liveness(fn.cfg)
        # i is live around the loop and into the exit (returned).
        assert i in live.live_out(body)
        assert i in live.live_in(header)
        assert i in live.live_in(exit_bb)

    def test_live_into_edge_matches_dest_live_in(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        live = compute_liveness(fn.cfg)
        for edge in entry.out_edges:
            assert live.live_into_edge(edge) == live.live_in(edge.dst)


def _reference_liveness(cfg):
    """The textbook set-based fixed point: live-in and live-out sets
    keyed by block id, every block included."""
    use, defs = {}, {}
    for block in cfg.blocks():
        used, defined = set(), set()
        for op in block.ops:
            used.update(reg for reg in op.used_registers()
                        if reg not in defined)
            defined.update(op.defined_registers())
        use[block.bid], defs[block.bid] = used, defined
    live_in = {block.bid: set() for block in cfg.blocks()}
    live_out = {block.bid: set() for block in cfg.blocks()}
    order = list(reversed(cfg.reverse_postorder()))
    changed = True
    while changed:
        changed = False
        for block in order:
            out = set().union(*(live_in[succ.bid]
                                for succ in block.successors))
            inn = use[block.bid] | (out - defs[block.bid])
            if out != live_out[block.bid] or inn != live_in[block.bid]:
                live_out[block.bid], live_in[block.bid] = out, inn
                changed = True
    return live_in, live_out


def _assert_matches_reference(cfg, rng):
    """Bitset liveness equals the reference on every block's sets, on
    restricted exit queries and on single-register membership."""
    live = compute_liveness(cfg)
    ref_in, ref_out = _reference_liveness(cfg)
    everything = sorted({reg for block in cfg.blocks() for op in block.ops
                         for reg in op.used_registers()
                         + op.defined_registers()})
    # A register minted after the analysis ran is never live.
    bound = max((reg.index for reg in everything), default=-1) + 1
    unnumbered = [Register(rclass, bound) for rclass in RegClass]
    for block in cfg.blocks():
        assert live.live_in(block) == ref_in[block.bid], block
        assert live.live_out(block) == ref_out[block.bid], block
        for edge in block.out_edges:
            into = ref_in[edge.dst.bid]
            for size in (0, 1, 8, 64):
                size = min(size, len(everything))
                subset = set(rng.sample(everything, size)) | {
                    rng.choice(unnumbered)}
                expected = tuple(sorted(into & subset))
                assert live.live_into_edge_within(edge, subset) == expected
                assert live.live_into_edge_masked(
                    edge, live.mask(subset)) == expected
            probes = (rng.sample(everything, min(16, len(everything)))
                      + rng.sample(sorted(into),
                                   min(16, len(into))))
            for reg in probes + unnumbered:
                assert bool(live.live_into_edges([edge])
                            & live.bit(reg)) == (reg in into)


def _tail_duplicated(function):
    clone = clone_function(function)
    form_treegions_td(clone.cfg, TreegionLimits(code_expansion=2.0))
    return clone


class TestBitsetLivenessMatchesReference:
    """``compute_liveness`` against a set-based reference fixed point."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_builtin_benchmarks_and_tail_duplicated_clones(self, name):
        rng = random.Random(name)
        for function in build_benchmark(name).functions():
            _assert_matches_reference(function.cfg, rng)
            _assert_matches_reference(_tail_duplicated(function).cfg, rng)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_generated_programs(self, seed):
        rng = random.Random(seed)
        for function in generate(seed).program.functions():
            _assert_matches_reference(function.cfg, rng)

    def test_unreachable_block_with_uses(self):
        fn = Function("orphaned", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        orphan = b.block("orphan")
        exit_bb = b.block("exit")
        b.at(entry)
        x = b.mov(1)
        b.fallthrough(exit_bb)
        b.at(orphan)
        y = b.add(fn.params[0], 2)
        b.fallthrough(exit_bb)
        b.at(exit_bb)
        b.ret(b.add(x, y))
        live = compute_liveness(fn.cfg)
        assert live.live_in(orphan) == {fn.params[0], x}
        _assert_matches_reference(fn.cfg, random.Random(0))


class TestDegenerateCfgs:
    """Edge shapes both dominators and liveness must not choke on:
    unreachable blocks, self-loops, entry-as-exit, and opless blocks."""

    def _unreachable(self):
        fn = Function("orphaned")
        b = IRBuilder(fn)
        entry = b.block("entry")
        orphan = b.block("orphan")
        b.at(entry)
        b.ret(0)
        b.at(orphan)
        b.ret(1)
        return fn, entry, orphan

    def _self_loop(self):
        fn = Function("spin", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        body = b.block("body")
        exit_bb = b.block("exit")
        b.at(entry)
        x = b.mov(0)
        b.fallthrough(body)
        b.at(body)
        p = b.cmpp(CompareCond.LT, x, fn.params[0])
        b.br_true(p, body, exit_bb)
        b.at(exit_bb)
        b.ret(x)
        return fn, body, x

    def _opless_middle(self):
        fn = Function("hollow")
        b = IRBuilder(fn)
        entry = b.block("entry")
        mid = b.block("mid")
        exit_bb = b.block("exit")
        b.at(entry)
        x = b.mov(3)
        b.fallthrough(mid)
        b.at(mid)
        b.fallthrough(exit_bb)
        b.at(exit_bb)
        b.ret(x)
        return fn, mid, x

    def test_dominators_skip_unreachable_blocks(self):
        fn, entry, orphan = self._unreachable()
        dom = DominatorTree(fn.cfg)
        assert dom.idom(orphan) is None
        assert not dom.dominates(entry, orphan)
        assert not dom.dominates(orphan, entry)
        assert orphan not in dom.dominated_by(entry)

    def test_liveness_unreachable_block_still_has_sets(self):
        fn, entry, orphan = self._unreachable()
        live = compute_liveness(fn.cfg)
        # The orphan's ret reads nothing; its sets exist and are empty.
        assert live.live_in(orphan) == frozenset()
        assert live.live_out(orphan) == frozenset()

    def test_self_loop_dominance(self):
        fn, body, _ = self._self_loop()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(body, body)
        assert not dom.strictly_dominates(body, body)
        assert dom.idom(body) is not body  # idom is the entry, not self

    def test_self_loop_carries_liveness_around(self):
        fn, body, x = self._self_loop()
        live = compute_liveness(fn.cfg)
        # x is read in the loop and after it: live around the back edge.
        assert x in live.live_in(body)
        assert x in live.live_out(body)
        back = next(e for e in body.out_edges if e.dst is body)
        assert live.live_into_edge(back) == live.live_in(body)

    def test_entry_is_also_exit(self):
        fn = Function("one", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        b.at(entry)
        b.ret(fn.params[0])
        dom = DominatorTree(fn.cfg)
        assert dom.idom(entry) is None
        assert dom.dominates(entry, entry)
        assert [blk.bid for blk in dom.dominated_by(entry)] == [entry.bid]
        live = compute_liveness(fn.cfg)
        assert fn.params[0] in live.live_in(entry)
        assert live.live_out(entry) == frozenset()

    def test_block_with_no_ops(self):
        fn, mid, x = self._opless_middle()
        dom = DominatorTree(fn.cfg)
        assert dom.strictly_dominates(fn.cfg.entry, mid)
        live = compute_liveness(fn.cfg)
        # Nothing defined or used: liveness flows straight through.
        assert live.live_in(mid) == live.live_out(mid) == frozenset({x})


class TestVerifier:
    def test_valid_functions_pass(self):
        for fn in (diamond_function(), loop_function(),
                   straight_line_function(), switch_function()):
            verify_function(fn)

    def test_missing_return_rejected(self):
        fn = Function("noret")
        b = IRBuilder(fn)
        blk = b.block()
        b.at(blk).mov(1)
        blk2 = b.block()
        b.fallthrough(blk2)
        b.at(blk2).mov(2)
        b.fallthrough(blk)
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_terminator_must_be_last(self):
        fn = straight_line_function()
        block = fn.cfg.blocks()[0]
        ret = fn.cfg.new_op(Opcode.RET)
        block.ops.insert(0, ret)
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_branch_edge_mismatch_rejected(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        # Corrupt the branch target so it disagrees with the taken edge.
        entry.terminator.target = 999
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_conditional_needs_predicate_operand(self):
        fn = Function("bad")
        b = IRBuilder(fn)
        e, t, f = b.block(), b.block(), b.block()
        b.at(e)
        r = b.mov(1)
        op = b.emit(Opcode.BRCT, srcs=[r], target=t.bid)
        fn.cfg.add_edge(e, t, EdgeKind.TAKEN)
        fn.cfg.add_edge(e, f, EdgeKind.FALLTHROUGH)
        b.at(t).ret()
        b.at(f).ret()
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_duplicate_switch_cases_rejected(self):
        fn = switch_function()
        entry = fn.cfg.entry
        for edge in entry.case_edges():
            edge.case_value = 0
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_fallthrough_block_needs_single_successor(self):
        fn = straight_line_function()
        b0, b1, b2 = fn.cfg.blocks()
        fn.cfg.add_edge(b0, b2, EdgeKind.FALLTHROUGH)
        with pytest.raises(IRValidationError):
            verify_function(fn)


class TestTextRoundTrip:
    @pytest.mark.parametrize("make", [
        diamond_function, loop_function, straight_line_function, switch_function,
    ])
    def test_print_parse_fixed_point(self, make):
        program = program_with(make())
        text = format_program(program)
        reparsed = parse_program(text)
        text2 = format_program(reparsed)
        assert format_program(parse_program(text2)) == text2

    def test_weights_and_globals_survive(self):
        fn = diamond_function()
        for block in fn.cfg.blocks():
            block.weight = 10.5
            for edge in block.out_edges:
                edge.weight = 3.25
        program = program_with(fn)
        program.add_global("A", size=2, initial=[4, 5])
        reparsed = parse_program(format_program(program))
        var = reparsed.globals["A"]
        assert var.size == 2 and var.initial == [4, 5]
        for block in reparsed.entry_function.cfg.blocks():
            assert block.weight == 10.5
            for edge in block.out_edges:
                assert edge.weight == 3.25

    def test_guards_conditions_and_spec_flags_survive(self):
        fn = Function("g")
        b = IRBuilder(fn)
        blk = b.block()
        b.at(blk)
        p_t, p_f = b.cmpp(CompareCond.LE, 3, 4, both=True)
        op = b.add(1, 2)
        blk.ops[-1].guard = p_t
        blk.ops[-1].speculative = True
        b.ret()
        program = program_with(fn)
        reparsed = parse_program(format_program(program))
        block = reparsed.entry_function.cfg.blocks()[0]
        cmpp, add, _ = block.ops
        assert cmpp.cond is CompareCond.LE and len(cmpp.dests) == 2
        assert add.guard is not None and add.speculative

    def test_parse_rejects_garbage(self):
        with pytest.raises(IRValidationError):
            parse_program("program entry=main\nfunc main() {\n  block bb1 weight=0\n    r1 = frobnicate r2\n}\n")


_PRINTED = format_program(build_benchmark("compress")).splitlines()

#: Digit runs longer than Python's ``int`` accepts from a string.
_LONG_DIGITS = st.integers(4301, 5000).map(lambda n: "7" * n)

#: One edit of one line of a printed benchmark: (line index, text,
#: position, length, how).
_LINE_EDIT = st.tuples(
    st.integers(0, len(_PRINTED) - 1),
    st.text(st.sampled_from(" .=->#,?!bpr19e()") | st.characters(),
            max_size=8) | _LONG_DIGITS,
    st.integers(0, 80), st.integers(0, 8),
    st.sampled_from(["insert", "replace", "delete", "drop"]))


def _parses_or_rejects(text: str) -> None:
    """The parser's contract at the trust boundary: a program or a
    typed error, never another exception."""
    try:
        parse_program(text)
    except ReproError:
        pass


class TestParserRobustness:
    @pytest.mark.parametrize("text, named", [
        ("program entry=main\nfunc main() {\n  block bb1 weight=1 entry\n"
         "    ret\n  edge bb1 -> bb9 taken weight=1\n}\n",
         "edge bb1 -> bb9 taken weight=1"),
        ("program entry=main\nfunc main() {\n  block bb1 weight=1..5\n}\n",
         "block bb1 weight=1..5"),
        ("program x\n", "program x"),
    ], ids=["undefined_edge_label", "bad_block_weight", "header_no_entry"])
    def test_bad_line_is_a_typed_error_naming_it(self, text, named):
        with pytest.raises(IRValidationError, match=repr(named)):
            parse_program(text)

    @pytest.mark.parametrize("line", [
        "r{long} = mov #1",
        "r1 = mov #{long}",
        "r1 = add r2, r{long}",
        "r1 = mov #1 ? p{long}",
        "r4294967296 = mov #1",
        "r1 = mov b4294967296",
    ], ids=["long_dest", "long_immediate", "long_source", "long_guard",
            "dest_index_2_32", "source_index_2_32"])
    def test_out_of_range_number_names_its_line(self, line):
        line = line.format(long="9" * 5000)
        text = ("program entry=main\nfunc main() {\n"
                f"  block bb1 weight=1 entry\n    {line}\n    ret\n}}\n")
        with pytest.raises(IRValidationError) as caught:
            parse_program(text)
        assert repr(line) in str(caught.value)

    @pytest.mark.parametrize("text", [
        "program entry=main\nglobal g size={long}\n",
        "program entry=main\nglobal g size=2 init=[1,{long}]\n",
        "program entry=main\nfunc main(r{long}) {{\n}}\n",
        "program entry=main\nfunc main() {{\n  block bb1 weight=1 entry\n"
        "    switch r1\n  edge bb1 -> bb1 case({long}) weight=1\n}}\n",
    ], ids=["global_size", "global_init", "param", "case_value"])
    def test_long_number_outside_an_op_is_a_typed_error(self, text):
        with pytest.raises(IRValidationError, match="bad number"):
            parse_program(text.format(long="9" * 5000))

    def test_largest_register_index_parses(self):
        text = ("program entry=main\nfunc main() {\n"
                "  block bb1 weight=1 entry\n    p4294967295 = mov #1\n"
                "    ret\n}\n")
        block = parse_program(text).entry_function.cfg.blocks()[0]
        assert block.ops[0].dests == [Register(RegClass.PRED, (1 << 32) - 1)]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(head=st.sampled_from(
        ["", "program entry=main\nfunc main() {\n  block bb1 weight=1\n"]),
        text=st.text())
    def test_arbitrary_text(self, head, text):
        _parses_or_rejects(head + text)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(edits=st.lists(_LINE_EDIT, min_size=1, max_size=3))
    def test_mutated_lines_of_a_printed_benchmark(self, edits):
        lines = list(_PRINTED)
        for index, text, position, length, how in edits:
            index %= len(lines)
            line = lines[index]
            position = min(position, len(line))
            if how == "drop":
                del lines[index]
                continue
            if how == "insert":
                line = line[:position] + text + line[position:]
            elif how == "replace":
                line = line[:position] + text + line[position + length:]
            else:
                line = line[:position] + line[position + length:]
            lines[index] = line
        _parses_or_rejects("\n".join(lines))
