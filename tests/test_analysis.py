"""Tests for the dataflow-analysis subsystem (``repro.analysis``).

Layers, bottom-up:

* **Solver** — the generic worklist iteration: direction handling,
  bottom values for unreachable blocks, degenerate graphs;
* **Analyses** — reaching definitions (must/may uninit classification
  and the path witness), live ranges (dead stores, pressure),
  const-aware reachability, and the whole-program call graph;
* **Bounds** — per-region lower bounds stay sound (≤ every achieved
  height) on the real workloads, driven through
  ``api.analyze_program``;
* **Plumbing** — the analysis cache counters, the armed/disarmed
  register-pressure lint rule, the parallel ``lint_many`` identity,
  and the ``repro analyze`` CLI contract.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.analysis import (
    BlockGraph,
    CallGraph,
    LiveRanges,
    Reachability,
    ReachingDefinitions,
    region_lower_bounds,
    solve,
)
from repro.analysis.liveranges import block_peak_pressure
from repro.ir import (
    CompareCond,
    DominatorTree,
    Function,
    IRBuilder,
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
# Solver


class _CollectBids:
    """Forward union-of-bids: value_in(b) = bids on some path to b."""

    direction = "forward"

    def boundary(self):
        return frozenset()

    def transfer(self, block, value):
        return value | {block.bid}

    @staticmethod
    def join(a, b):
        return a | b


class TestSolver:
    def test_forward_joins_over_diamond(self):
        fn = diamond_function()
        blocks = {b.name: b for b in fn.cfg.blocks()}
        result = solve(BlockGraph(fn.cfg), _CollectBids())
        at_join = result.value_in(blocks["join"])
        assert blocks["then"].bid in at_join
        assert blocks["else"].bid in at_join
        assert blocks["join"].bid not in at_join  # in-value, not out
        assert result.value_out(blocks["join"]) == (
            at_join | {blocks["join"].bid}
        )

    def test_unreachable_block_stays_bottom(self):
        fn, orphan = orphan_block_function()
        result = solve(BlockGraph(fn.cfg), _CollectBids())
        assert result.value_in(orphan) is None
        assert result.value_out(orphan) is None

    def test_empty_cfg(self):
        fn = Function("nothing")
        graph = BlockGraph(fn.cfg)
        assert len(graph) == 0
        result = solve(graph, _CollectBids())
        assert result.in_values == [] and result.out_values == []

    def test_bad_direction_raises(self):
        class Sideways(_CollectBids):
            direction = "sideways"

        fn = diamond_function()
        with pytest.raises(ValueError):
            solve(BlockGraph(fn.cfg), Sideways())


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
