"""Tests for the dataflow-analysis subsystem (``repro.analysis``).

Layers, bottom-up:

* **Analyses** — reaching definitions (must/may uninit classification
  and the path witness, checked against a set-based reference on
  random CFGs), live ranges (dead stores, pressure), const-aware
  reachability, and the whole-program call graph;
* **Bounds** — per-region lower bounds stay sound (≤ every achieved
  height) on the real workloads, driven through
  ``api.analyze_program``;
* **Plumbing** — the analysis cache counters, the armed/disarmed
  register-pressure lint rule, the parallel ``lint_many`` identity,
  and the ``repro analyze`` CLI contract.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis import (
    CallGraph,
    LiveRanges,
    Reachability,
    ReachingDefinitions,
    region_lower_bounds,
)
from repro.analysis.liveranges import block_peak_pressure
from repro.ir import (
    CompareCond,
    DominatorTree,
    Function,
    IRBuilder,
    Opcode,
    Program,
    RegClass,
    Register,
    compute_liveness,
    format_program,
)
from repro.ir.analysis_cache import (
    GLOBAL_CACHE,
    live_ranges_of,
    reaching_definitions_of,
)
from repro.machine import VLIW_8U
from repro.obs import MetricsRegistry, metrics_scope
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function, program_with


# ----------------------------------------------------------------------
# Shared shapes


def may_uninit_function():
    """v defined on the then-arm only; join reads it (may-uninit)."""
    fn = Function("maybe", [Register(RegClass.GPR, 0)])
    fn.regs.reserve(Register(RegClass.GPR, 0))
    b = IRBuilder(fn)
    entry = b.block("entry")
    then_bb = b.block("then")
    join = b.block("join")
    b.at(entry)
    p = b.cmpp(CompareCond.GT, fn.params[0], 0)
    b.br_true(p, then_bb, join)
    b.at(then_bb)
    v = b.mov(7)
    b.jump(join)
    b.at(join)
    b.ret(v)
    return fn, v


def orphan_block_function():
    """entry -> ret, plus a block nothing targets."""
    fn = Function("orphaned")
    b = IRBuilder(fn)
    entry = b.block("entry")
    orphan = b.block("orphan")
    b.at(entry)
    b.ret(0)
    b.at(orphan)
    b.ret(1)
    return fn, orphan


def const_branch_function():
    """Branch on cmpp over constants: the else arm can never execute."""
    fn = Function("constbr")
    b = IRBuilder(fn)
    entry = b.block("entry")
    then_bb = b.block("then")
    else_bb = b.block("else")
    b.at(entry)
    p = b.cmpp(CompareCond.GT, 1, 0)
    b.br_true(p, then_bb, else_bb)
    b.at(then_bb)
    b.ret(0)
    b.at(else_bb)
    b.ret(1)
    return fn, else_bb


def self_loop_function():
    """body branches back to itself until the param is reached."""
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


def empty_block_function():
    """entry -> (empty mid) -> exit; mid has zero ops, edges only."""
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
    return fn, mid


# ----------------------------------------------------------------------
# Reaching definitions


class TestReachingDefinitions:
    def test_diamond_has_no_uninit_uses(self):
        fn = diamond_function()
        reaching = ReachingDefinitions(fn.cfg, params=tuple(fn.params))
        assert reaching.uninit_uses() == []

    def test_must_uninit_classified(self):
        fn = Function("uses")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.add(Register(RegClass.GPR, 55), 1)
        b.ret(0)
        reaching = ReachingDefinitions(fn.cfg)
        uses = reaching.uninit_uses()
        assert [u.kind for u in uses] == ["must"]
        assert uses[0].reg == Register(RegClass.GPR, 55)
        path = reaching.def_free_path(uses[0].reg, uses[0].block)
        assert path == [f"bb{block.bid}"]

    def test_may_uninit_classified(self):
        fn, v = may_uninit_function()
        reaching = reaching_definitions_of(fn)
        uses = reaching.uninit_uses()
        assert [u.kind for u in uses] == ["may"]
        assert uses[0].reg == v
        # The witness path must skip the defining then-arm.
        blocks = {b.name: b for b in fn.cfg.blocks()}
        path = reaching.def_free_path(v, uses[0].block)
        assert path == [f"bb{blocks['entry'].bid}",
                        f"bb{blocks['join'].bid}"]

    def test_param_counts_as_defined(self):
        fn = Function("p", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.add(fn.params[0], 1)
        b.ret(0)
        with_params = ReachingDefinitions(fn.cfg,
                                          params=tuple(fn.params))
        assert with_params.uninit_uses() == []
        without = ReachingDefinitions(fn.cfg)
        assert [u.kind for u in without.uninit_uses()] == ["must"]

    def test_empty_function(self):
        fn = Function("nothing")
        reaching = ReachingDefinitions(fn.cfg)
        assert reaching.uninit_uses() == []
        reach = Reachability(fn.cfg)
        assert reach.unreachable_blocks() == []
        assert reach.const_branches == []

    def test_orphan_block_reads_are_not_reported(self):
        fn = Function("orphaned")
        b = IRBuilder(fn)
        entry = b.block("entry")
        orphan = b.block("orphan")
        b.at(entry)
        b.ret(0)
        b.at(orphan)
        b.ret(Register(RegClass.GPR, 55))
        assert ReachingDefinitions(fn.cfg).uninit_uses() == []

    def test_loop_carried_def_is_may_at_the_header(self):
        """x is read at the loop header before the body defines it: the
        first trip reads it uninitialized, later trips do not."""
        fn = Function("carried", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        header = b.block("header")
        body = b.block("body")
        exit_bb = b.block("exit")
        x = b.fresh()
        b.at(entry)
        b.fallthrough(header)
        b.at(header)
        p = b.cmpp(CompareCond.LT, x, fn.params[0])
        b.br_true(p, body, exit_bb)
        b.at(body)
        b.add(fn.params[0], 1, dest=x)
        b.jump(header)
        b.at(exit_bb)
        b.ret(0)
        reaching = ReachingDefinitions(fn.cfg, params=tuple(fn.params))
        uses = reaching.uninit_uses()
        assert [(u.block, u.reg, u.kind) for u in uses] == [
            (header, x, "may")]
        assert reaching.def_free_path(x, header) == [
            f"bb{entry.bid}", f"bb{header.bid}"]

    def test_dead_arm_reads_are_not_reported(self):
        """A read in the dead arm of a constant branch belongs to
        ``ir.unreachable-block`` alone, not to ``ir.uninit-use``."""
        fn = Function("constbr")
        b = IRBuilder(fn)
        entry = b.block("entry")
        then_bb = b.block("then")
        else_bb = b.block("else")
        b.at(entry)
        p = b.cmpp(CompareCond.GT, 1, 0)
        b.br_true(p, then_bb, else_bb)
        b.at(then_bb)
        b.ret(0)
        b.at(else_bb)
        b.ret(Register(RegClass.GPR, 55))
        report = api.lint_program(program_with(fn))
        by_rule = {}
        for diagnostic in report.diagnostics:
            by_rule.setdefault(diagnostic.rule, []).append(diagnostic.block)
        assert by_rule["ir.unreachable-block"] == [else_bb.bid]
        assert "ir.uninit-use" not in by_rule
        assert report.ok

    def test_dead_arm_def_does_not_reach_the_join(self):
        """v is defined only on the never-taken arm: every executable
        path reads it uninitialized."""
        fn = Function("deadarm")
        b = IRBuilder(fn)
        entry = b.block("entry")
        then_bb = b.block("then")
        join = b.block("join")
        b.at(entry)
        p = b.cmpp(CompareCond.GT, 0, 1)
        b.br_true(p, then_bb, join)
        b.at(then_bb)
        v = b.mov(7)
        b.jump(join)
        b.at(join)
        b.ret(v)
        reaching = ReachingDefinitions(fn.cfg)
        assert [(u.reg, u.kind) for u in reaching.uninit_uses()] == [
            (v, "must")]
        assert reaching.def_free_path(v, join) == [
            f"bb{entry.bid}", f"bb{join.bid}"]

    def test_guarded_def_before_a_read_is_may(self):
        """A guarded def may be squashed, so it cannot hide the read
        after it in the same block."""
        fn = Function("squash", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        p = b.cmpp(CompareCond.GT, fn.params[0], 0)
        r1 = b.fresh()
        b.emit(Opcode.MOV, dests=[r1], srcs=[7], guard=p)
        b.add(r1, 1)
        b.ret(0)
        uses = reaching_definitions_of(fn).uninit_uses()
        assert [(u.reg, u.kind) for u in uses] == [(r1, "may")]


def _random_function(rng):
    """A small random CFG: forward, back and self edges, constant and
    data-dependent branches, guarded and unguarded defs, parameters.

    Registers come from a small shared pool so defs and reads collide;
    each constant branch tests a fresh predicate defined just before it.
    """
    params = [Register(RegClass.GPR, i) for i in range(rng.randint(0, 2))]
    fn = Function("random", params)
    gprs = [Register(RegClass.GPR, i) for i in range(5)]
    preds = [Register(RegClass.PRED, i) for i in range(2)]
    for reg in gprs + preds:
        fn.regs.reserve(reg)
    b = IRBuilder(fn)
    blocks = [b.block(f"b{i}") for i in range(rng.randint(1, 7))]
    for block in blocks:
        b.at(block)
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.3:
                b.add(rng.choice(gprs), 1, dest=rng.choice(gprs))
            elif roll < 0.5:
                b.mov(rng.randint(0, 9), dest=rng.choice(gprs))
            elif roll < 0.65:
                b.cmpp(CompareCond.GT, rng.choice(gprs), 0,
                       dest=rng.choice(preds))
            else:
                b.emit(Opcode.MOV, dests=[rng.choice(gprs)],
                       srcs=[rng.choice(gprs + [3])],
                       guard=rng.choice(preds))
        roll = rng.random()
        if roll < 0.2:
            b.ret(rng.choice(gprs))
        elif roll < 0.4:
            b.jump(rng.choice(blocks))
        else:
            taken, fallthrough = rng.sample(blocks, 2) \
                if len(blocks) > 1 else (blocks[0], blocks[0])
            if rng.random() < 0.3:
                p = b.cmpp(CompareCond.GT, rng.randint(0, 1), 0)
            else:
                p = rng.choice(preds)
            b.br_true(p, taken, fallthrough)
    return fn


def _reference_uninit_uses(cfg, params, dead):
    """Reaching def sites per register, round-robin over sets: the
    textbook powerset lattice with ``UNINIT`` and ``PARAM`` pseudo-sites,
    following only edges not in ``dead`` (edge ids).

    Returns the reached bids and (bid, position, reg, kind) per read
    that ``UNINIT`` reaches.
    """
    registers = {reg for block in cfg.blocks() for op in block.ops
                 for reg in op.used_registers() + op.dests}
    boundary = {reg: {"PARAM"} if reg in params else {"UNINIT"}
                for reg in registers}

    def step(block, position, op, value):
        for reg in op.dests:
            site = (block.bid, position)
            value[reg] = {site} if op.guard is None else value[reg] | {site}

    def transfer(block, value):
        value = {reg: set(sites) for reg, sites in value.items()}
        for position, op in enumerate(block.ops):
            step(block, position, op, value)
        return value

    value_in = {block.bid: None for block in cfg.blocks()}
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks():
            flowing = [transfer(edge.src, value_in[edge.src.bid])
                       for edge in block.in_edges
                       if id(edge) not in dead
                       and value_in[edge.src.bid] is not None]
            if block is cfg.entry:
                flowing.append(boundary)
            if not flowing:
                continue
            joined = {reg: set().union(*(v[reg] for v in flowing))
                      for reg in registers}
            if joined != value_in[block.bid]:
                value_in[block.bid] = joined
                changed = True

    found = []
    for block in cfg.blocks():
        if value_in[block.bid] is None:
            continue
        value = {reg: set(sites)
                 for reg, sites in value_in[block.bid].items()}
        for position, op in enumerate(block.ops):
            for reg in op.used_registers():
                if "UNINIT" in value[reg]:
                    kind = "must" if value[reg] == {"UNINIT"} else "may"
                    found.append((block.bid, position, reg, kind))
            step(block, position, op, value)
    reached = {bid for bid, value in value_in.items() if value is not None}
    return reached, found


class TestReachingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_random_cfgs(self, seed):
        fn = _random_function(random.Random(seed))
        cfg = fn.cfg
        reach = Reachability(cfg)
        dead = {id(edge) for decided in reach.const_branches
                for edge in decided.dead_edges}
        reached, expected = _reference_uninit_uses(
            cfg, set(fn.params), dead)
        assert {block.bid for block in reach.unreachable_blocks()} == {
            block.bid for block in cfg.blocks()} - reached

        reaching = ReachingDefinitions(cfg, params=tuple(fn.params))
        uses = reaching.uninit_uses()
        assert [(u.block.bid, u.position, u.reg, u.kind)
                for u in uses] == expected

        blocks = {f"bb{block.bid}": block for block in cfg.blocks()}
        for use in uses:
            path = [blocks[label]
                    for label in reaching.def_free_path(use.reg, use.block)]
            assert path[0] is cfg.entry and path[-1] is use.block
            for src, dst in zip(path, path[1:]):
                assert any(edge.dst is dst and id(edge) not in dead
                           for edge in src.out_edges)
            for block in path[:-1]:
                assert not any(use.reg in op.dests and op.guard is None
                               for op in block.ops)


# ----------------------------------------------------------------------
# Live ranges


class TestLiveRanges:
    def test_diamond_dead_store_is_the_join_add(self):
        fn = diamond_function()
        blocks = {b.name: b for b in fn.cfg.blocks()}
        ranges = LiveRanges(fn.cfg)
        stores = ranges.dead_stores()
        assert len(stores) == 1
        assert stores[0].block is blocks["join"]
        assert stores[0].op.opcode.value == "add"

    def test_live_sets_cross_the_diamond(self):
        fn = diamond_function()
        blocks = {b.name: b for b in fn.cfg.blocks()}
        ranges = LiveRanges(fn.cfg)
        live_into_join = ranges.live_in(blocks["join"])
        # t and e flow from the arms into the join's add.
        assert len([r for r in live_into_join
                    if r.rclass is RegClass.GPR]) == 2
        assert ranges.live_out(blocks["join"]) == frozenset()

    def test_block_pressure_matches_peak_walk(self):
        fn = diamond_function()
        ranges = LiveRanges(fn.cfg)
        for block in fn.cfg.blocks():
            expected = block_peak_pressure(block,
                                           ranges.live_out(block))
            assert ranges.block_pressure(block) == expected
        entry = next(b for b in fn.cfg.blocks() if b.name == "entry")
        peak = ranges.block_pressure(entry)
        assert peak[RegClass.GPR] >= 2      # t and e at least
        assert peak[RegClass.PRED] >= 1     # the branch predicate

    def test_region_pressure_is_blockwise_max(self):
        fn = diamond_function()
        ranges = LiveRanges(fn.cfg)
        blocks = fn.cfg.blocks()
        region = ranges.region_pressure(blocks)
        for rclass, count in region.items():
            assert count == max(
                ranges.block_pressure(b).get(rclass, 0) for b in blocks
            )

    def test_empty_block_is_harmless(self):
        fn, mid = empty_block_function()
        ranges = LiveRanges(fn.cfg)
        assert ranges.dead_stores() == []
        # x flows straight through the opless block.
        assert ranges.live_in(mid) == ranges.live_out(mid)
        assert len(ranges.live_in(mid)) == 1
        peak = block_peak_pressure(mid, ranges.live_out(mid))
        assert peak[RegClass.GPR] == 1
        assert peak[RegClass.PRED] == 0

    def test_dead_store_skips_exactly_the_unreachable_blocks(self):
        """A dead mov in a block unreachable from the entry belongs to
        ``ir.unreachable-block`` alone; one in a loop with no way out is
        still a dead store."""
        fn = Function("trapped")
        b = IRBuilder(fn)
        entry = b.block("entry")
        spin = b.block("spin")
        orphan = b.block("orphan")
        b.at(entry)
        b.jump(spin)
        b.at(spin)
        b.mov(1)
        b.jump(spin)
        b.at(orphan)
        b.mov(2)
        b.ret(0)
        report = api.lint_program(program_with(fn))
        by_rule = {}
        for diagnostic in report.diagnostics:
            by_rule.setdefault(diagnostic.rule, []).append(diagnostic.block)
        assert by_rule["ir.unreachable-block"] == [orphan.bid]
        assert by_rule["ir.dead-store"] == [spin.bid]


# ----------------------------------------------------------------------
# Reachability


class TestReachability:
    def test_orphan_block_unreachable(self):
        fn, orphan = orphan_block_function()
        reach = Reachability(fn.cfg)
        assert not reach.is_reachable(orphan)
        assert reach.unreachable_blocks() == [orphan]
        assert reach.const_branches == []

    def test_const_branch_kills_the_dead_arm(self):
        fn, else_bb = const_branch_function()
        reach = Reachability(fn.cfg)
        assert len(reach.const_branches) == 1
        decided = reach.const_branches[0]
        assert decided.decision == "always taken"
        assert [e.dst for e in decided.dead_edges] == [else_bb]
        assert reach.unreachable_blocks() == [else_bb]

    def test_multiply_defined_register_is_not_const(self):
        # The diamond's branch predicate comes from a cmpp over a
        # param: not constant, so nothing is pruned.
        fn = diamond_function()
        reach = Reachability(fn.cfg)
        assert reach.const_branches == []
        assert reach.unreachable_blocks() == []


# ----------------------------------------------------------------------
# Call graph


class TestCallGraph:
    def _program(self):
        callee = diamond_function("callee")
        helper = diamond_function("helper")
        fn = Function("main")
        b = IRBuilder(fn)
        hot = b.block("hot")
        cold = b.block("cold")
        b.at(hot)
        b.call("callee", [1])
        b.fallthrough(cold)
        b.at(cold)
        b.call("helper", [2])
        b.call("exterior", [])
        b.ret(0)
        hot.weight = 90.0
        cold.weight = 10.0
        program = Program(entry="main")
        program.add_function(fn)
        program.add_function(callee)
        program.add_function(helper)
        return program

    def test_edges_and_external(self):
        graph = CallGraph(self._program())
        assert graph.callees["main"] == {"callee", "helper", "exterior"}
        assert graph.callers["callee"] == {"main"}
        assert graph.external == {"exterior"}
        assert graph.is_leaf("callee")
        assert not graph.is_leaf("main")

    def test_ranked_sites_hottest_first(self):
        graph = CallGraph(self._program())
        ranked = graph.ranked_sites()
        assert ranked[0].callee == "callee" and ranked[0].weight == 90.0
        assert {s.callee for s in ranked[1:]} == {"helper", "exterior"}
        assert graph.ranked_sites(limit=1) == ranked[:1]

    def test_recursion_detected(self):
        fn = Function("loopy")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.call("loopy", [])
        b.ret(0)
        program = Program(entry="loopy")
        program.add_function(fn)
        graph = CallGraph(program)
        assert graph.recursive_functions() == {"loopy"}

    def test_to_json_round_trips_through_dumps(self):
        payload = CallGraph(self._program()).to_json()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert payload["external"] == ["exterior"]


# ----------------------------------------------------------------------
# Bounds soundness through the driver


class TestBounds:
    @pytest.mark.parametrize("workload", ["paper", "compress"])
    def test_bounds_sound_on_workloads(self, workload):
        program = (build_paper_example() if workload == "paper"
                   else build_benchmark("compress"))
        result = api.analyze_program(program, name=workload)
        summary = result["summary"]
        assert summary["unsound"] == 0 and summary["sound"]
        for row in result["regions"]:
            assert row["lower_bound"] <= row["best"]
            assert row["lower_bound"] == max(row["critical_path"],
                                             row["resource_bound"])
            assert all(row["best"] <= h for h in row["achieved"].values())

    def test_single_block_region_bound_is_tight(self):
        # One straight-line block: the list scheduler achieves the
        # critical path / resource floor exactly.
        fn = diamond_function()
        result = api.analyze_program(program_with(fn),
                                     schemes=("bb",), lint=False)
        assert result["summary"]["tight"] == result["summary"]["regions"]
        assert result["summary"]["max_gap"] == 0

    def test_rejects_unknown_heuristic_and_hyperblock(self):
        program = program_with(diamond_function())
        with pytest.raises(ValueError):
            api.analyze_program(program, heuristics=("nope",))
        with pytest.raises(ValueError):
            api.analyze_program(program, schemes=("hyperblock",))


# ----------------------------------------------------------------------
# Cache plumbing


class TestAnalysisCachePlumbing:
    def test_analysis_family_counters_move(self):
        fn = diamond_function()
        before = GLOBAL_CACHE.analysis_misses
        live_ranges_of(fn.cfg)
        assert GLOBAL_CACHE.analysis_misses == before + 1
        hits = GLOBAL_CACHE.analysis_hits
        live_ranges_of(fn.cfg)
        assert GLOBAL_CACHE.analysis_hits == hits + 1

    def test_reaching_keyed_per_function_version(self):
        fn, _ = may_uninit_function()
        first = reaching_definitions_of(fn)
        assert reaching_definitions_of(fn) is first
        b = IRBuilder(fn)
        b.at(fn.cfg.blocks()[0])
        b.mov(1)  # bumps the CFG version
        assert reaching_definitions_of(fn) is not first

    def test_gauges_published(self):
        from repro.ir.analysis_cache import record_cache_metrics

        live_ranges_of(diamond_function().cfg)
        metrics = MetricsRegistry()
        record_cache_metrics(metrics)
        snapshot = metrics.snapshot()
        for name in ("cache.analysis.hits", "cache.analysis.misses",
                     "cache.analysis.evictions"):
            assert name in snapshot["gauges"]


# ----------------------------------------------------------------------
# The register-pressure schedule rule


class TestPressureRule:
    def test_disarmed_on_paper_presets(self):
        assert VLIW_8U.registers_per_class is None
        report = api.lint_program(build_paper_example(), schedule=True)
        assert "sched.pressure-exceeds-class" not in report.rule_ids()

    def test_armed_with_tiny_register_file(self):
        tight = dataclasses.replace(
            VLIW_8U, name="8U-tiny",
            registers_per_class={RegClass.GPR: 1},
        )
        report = api.lint_program(build_paper_example(), schedule=True,
                                  machine_model=tight)
        diags = [d for d in report
                 if d.rule == "sched.pressure-exceeds-class"]
        assert diags
        assert all(d.severity.value == "warning" for d in diags)
        assert "file holds 1" in diags[0].message


# ----------------------------------------------------------------------
# Parallel lint identity


class TestLintMany:
    def _targets(self):
        return [
            ("paper", build_paper_example()),
            ("compress", build_benchmark("compress")),
            ("maybe", program_with(may_uninit_function()[0])),
        ]

    @staticmethod
    def _render(results):
        return [(label, report.format()) for label, report in results]

    def test_pool_output_identical_to_serial(self):
        serial_metrics = MetricsRegistry()
        pooled_metrics = MetricsRegistry()
        from repro.lint.run import lint_many

        serial = lint_many(self._targets(), schedule=True, jobs=1,
                           metrics=serial_metrics)
        pooled = lint_many(self._targets(), schedule=True, jobs=2,
                           metrics=pooled_metrics)
        assert self._render(serial) == self._render(pooled)
        assert (serial_metrics.snapshot()["counters"]
                == pooled_metrics.snapshot()["counters"])

    def test_progress_called_per_target(self):
        from repro.lint.run import lint_many

        seen = []
        lint_many(self._targets(), jobs=1,
                  progress=lambda label, report: seen.append(label))
        assert seen == ["paper", "compress", "maybe"]


# ----------------------------------------------------------------------
# CLI contract


class TestAnalyzeCli:
    def _write(self, tmp_path, fn):
        path = tmp_path / f"{fn.name}.ir"
        path.write_text(format_program(program_with(fn)))
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["analyze", self._write(tmp_path,
                                              diamond_function())])
        out = capsys.readouterr().out
        assert status == 0
        assert "sound=yes" in out

    def test_json_payload_shape(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["analyze",
                       self._write(tmp_path, diamond_function()),
                       "--calls", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["summary"]["sound"] is True
        assert payload["regions"]
        assert "call_graph" in payload
        assert payload["lint"]["errors"] == 0

    def test_lint_error_fails_the_gate(self, tmp_path, capsys):
        from repro.cli import main

        fn = Function("bad")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.add(Register(RegClass.GPR, 55), 1)  # must-uninit: error
        b.ret(0)
        status = main(["analyze", self._write(tmp_path, fn)])
        capsys.readouterr()
        assert status == 1

    def test_file_xor_corpus(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, diamond_function())
        assert main(["analyze", path, "--corpus"]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert main(["analyze"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_heuristic_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, diamond_function())
        assert main(["analyze", path, "--heuristics", "nope"]) == 2
        assert "repro: error:" in capsys.readouterr().err
