"""The DDG against an independent reference, and exit counts.

The builders in :mod:`repro.schedule.ddg` and
:mod:`repro.schedule.hyperblock` find each op's edges in one walk with
carried state, never store control dependences, and take heights in one
reverse sweep.  The reference here does none of that:

* it re-derives every placement edge into op *i* by scanning each
  root-to-*i* path backwards (a tree region has one such path; a
  hyperblock's edges are the union over all of its DAG paths);
* it lists every control edge explicitly — each branch-role op to each
  op in a block strictly below its own;
* it takes heights as longest paths over both edge sets in a Kahn order.

``heights``, ``num_edges`` and ``num_control_edges`` must match it over
the corpus, the examples and generated programs, for tree schemes and
hyperblocks, on 4U and 8U, with dominator parallelism and materialized
copies each on and off; the list schedule built over each DDG must
honour every reference edge.  Exit counts computed in one bottom-up
pass must equal :meth:`~repro.regions.region.Region.exit_count_below`
on every region.
"""

import glob
import os
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.schemes import SchemeSpec, form_program
from repro.interp.profiler import profile_program
from repro.ir.analysis_cache import liveness_of
from repro.ir.types import Opcode
from repro.lang import compile_source
from repro.machine import VLIW_4U, VLIW_8U
from repro.regions.hyperblock import Hyperblock
from repro.schedule.ddg import exit_live_sets
from repro.schedule.hyperblock import build_hyperblock_ddg, prepare_hyperblock
from repro.schedule.scheduler import (
    ScheduleOptions,
    dependences,
    prepare,
    schedule_prepared,
)
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

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

TREE_SCHEMES = ("bb", "superblock", "treegion", "treegion-td:2.0")
#: Hyperblocks with more root-to-block paths than this are skipped: the
#: reference enumerates every path.
MAX_PATHS = 512

_GUARDS = {Opcode.CMPP, Opcode.PAND, Opcode.PANDCN, Opcode.NINSET}
_SIDE = (Opcode.ST, Opcode.CALL)


# ----------------------------------------------------------------------
# Reference


def _paths_to(region, block):
    """Every root-to-``block`` block path: one in a tree, every DAG path
    in a hyperblock."""
    if isinstance(region, Hyperblock):
        preds = region.dag_preds(block)
    else:
        parent = region.parent(block)
        preds = [parent] if parent is not None else []
    if not preds:
        return [[block]]
    return [path + [block] for pred in preds
            for path in _paths_to(region, pred)]


def _below(region, block):
    """Blocks strictly below ``block``: its subtree, or for a hyperblock
    what it reaches."""
    if isinstance(region, Hyperblock):
        reached = region.reachable_from(block)
    else:
        reached = region.subtree(block)
    return [b for b in reached if b is not block]


def _path_edges(ops, path, i, latency, live):
    """Placement edges into op ``i`` along one path (the ops before it,
    in walk order), as ``(src, dst, latency)``."""
    op = ops[i].op
    edges = set()

    def last(predicate, before=len(path)):
        for position in range(before - 1, -1, -1):
            if predicate(ops[path[position]].op):
                return position
        return None

    def last_def(reg):
        return last(lambda o: reg in o.dests)

    for reg in op.used_registers():
        position = last_def(reg)
        if position is not None:
            src = path[position]
            edges.add((src, i, latency[src]))
    for reg in op.dests:
        position = last_def(reg)
        if position is not None:
            src = path[position]
            edges.add((src, i, max(1, latency[src] - latency[i] + 1)))
        start = 0 if position is None else position + 1
        for user in path[start:]:
            if reg in ops[user].op.used_registers():
                edges.add((user, i, 0))
    store = last(lambda o: o.opcode in _SIDE)
    if op.opcode is Opcode.LD and store is not None:
        src = path[store]
        edges.add((src, i, 0 if ops[src].op.opcode is Opcode.ST else 1))
    elif op.opcode in _SIDE:
        if store is not None:
            edges.add((path[store], i, 1))
        start = 0 if store is None else store + 1
        for load in path[start:]:
            if ops[load].op.opcode is Opcode.LD:
                edges.add((load, i, 1))
    if ops[i].exit is not None:
        for side in path:
            if ops[side].op.opcode in _SIDE:
                edges.add((side, i, 0))
        if live is None:
            regs = {reg for other in path for reg in ops[other].op.dests}
        else:
            regs = live[id(ops[i].exit)]
        for reg in regs:
            position = last_def(reg)
            if position is not None:
                edges.add((path[position], i, 0))
    return edges


def reference(problem, machine, liveness, copies, hyperblock=False):
    """(placement edges, control edges, heights) derived from scratch."""
    region = problem.region
    ops = problem.sched_ops
    latency = [machine.latency(sop.op) for sop in ops]
    live = (exit_live_sets(problem, liveness, copies)
            if liveness is not None else None)
    guards = _GUARDS | {Opcode.POR} if hyperblock else _GUARDS

    placement = set()
    for block in region.blocks:
        block_ops = [sop.index for sop in problem.by_block[block.bid]]
        for paths_before in _paths_to(region, block):
            above = [sop.index for b in paths_before[:-1]
                     for sop in problem.by_block[b.bid]]
            for position, i in enumerate(block_ops):
                placement |= _path_edges(ops, above + block_ops[:position],
                                         i, latency, live)

    control = []
    for block in region.blocks:
        targets = [sop.index for b in _below(region, block)
                   for sop in problem.by_block[b.bid]]
        for sop in problem.by_block[block.bid]:
            if sop.exit is not None or (sop.source is None
                                        and sop.op.opcode in guards):
                control += [(sop.index, target, 1) for target in targets]

    n = len(ops)
    succs = [[] for _ in range(n)]
    unresolved = [0] * n
    for src, dst, lat in list(placement) + control:
        succs[src].append((dst, lat))
        unresolved[src] += 1
    preds = [[] for _ in range(n)]
    for src, dst, _ in list(placement) + control:
        preds[dst].append(src)
    heights = list(latency)
    ready = [i for i in range(n) if unresolved[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for dst, lat in succs[i]:
            heights[i] = max(heights[i], lat + heights[dst])
        for src in preds[i]:
            unresolved[src] -= 1
            if unresolved[src] == 0:
                ready.append(src)
    assert done == n, "reference graph has a cycle"
    return placement, control, heights


def _ddg_edges(ddg):
    return {(ddg.pred_src[e], i, ddg.pred_lat[e])
            for i in range(ddg.num_nodes)
            for e in range(ddg.pred_ptr[i], ddg.pred_ptr[i + 1])}


def _assert_matches(problem, ddg, machine, liveness, copies,
                    hyperblock=False):
    placement, control, heights = reference(problem, machine, liveness,
                                            copies, hyperblock)
    assert ddg.heights == heights
    assert ddg.num_edges == len(placement)
    assert _ddg_edges(ddg) == placement
    assert ddg.num_control_edges == len(control)
    return placement


def _assert_honoured(record, placement):
    merged = {index for index, _ in record.merges}
    cycle = record.cycle_of
    for src, dst, lat in placement:
        if src not in merged and dst not in merged:
            assert cycle[dst] >= cycle[src] + lat, (src, dst, lat)


# ----------------------------------------------------------------------
# Drivers


def _check_program(program, schemes=TREE_SCHEMES + ("hyperblock",)):
    checked = 0
    for spec in schemes:
        _, functions = form_program(program, SchemeSpec.parse(spec).build())
        for formed in functions:
            regions = list(formed.partition)
            if not regions:
                continue
            liveness = liveness_of(regions[0].root.cfg)
            for region in regions:
                checked += _check_region(region, liveness)
    return checked


def _check_region(region, liveness):
    if isinstance(region, Hyperblock):
        if sum(len(_paths_to(region, b)) for b in region.blocks) > MAX_PATHS:
            return 0
        for machine in (VLIW_4U, VLIW_8U):
            problem = prepare_hyperblock(region, machine, liveness)
            ddg = build_hyperblock_ddg(problem, machine, liveness)
            _assert_matches(problem, ddg, machine, liveness, None, True)
        return 1
    for machine, dp, sc in product((VLIW_4U, VLIW_8U), (False, True),
                                   (False, True)):
        problem, copies = prepare(region, machine, liveness, sc)
        ddg = dependences(problem, machine, liveness, copies)
        placement = _assert_matches(problem, ddg, machine, liveness, copies)
        record, _ = schedule_prepared(
            problem, ddg, copies, machine,
            ScheduleOptions(dominator_parallelism=dp, schedule_copies=sc))
        _assert_honoured(record, placement)
    return 1


def _corpus():
    yield build_paper_example()
    yield build_biased_treegion()
    yield build_wide_shallow_treegion()
    yield build_linearized_treegion()
    for name in minic_program_names():
        program, canonical_args = build_minic_program(name)
        profile_program(program, inputs=[canonical_args])
        yield program


def _examples():
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.mc"))):
        with open(path) as handle:
            program = compile_source(handle.read())
        profile_program(program, inputs=[[10]])
        yield program


class TestDDGMatchesReference:
    def test_corpus(self):
        assert sum(_check_program(program) for program in _corpus()) > 0

    def test_examples(self):
        assert sum(_check_program(program) for program in _examples()) > 0

    def test_copies_break_index_order(self):
        # The case a reverse index sweep gets wrong: a materialized COPY
        # op sits before its exit branch but carries a higher index.
        seen = 0
        for program in list(_corpus()) + list(_examples()):
            _, functions = form_program(
                program, SchemeSpec.parse("treegion").build())
            for formed in functions:
                regions = list(formed.partition)
                if not regions:
                    continue
                liveness = liveness_of(regions[0].root.cfg)
                for region in regions:
                    problem, copies = prepare(region, VLIW_8U, liveness, True)
                    walk = [sop.index for block in region.subtree(region.root)
                            for sop in problem.by_block[block.bid]]
                    if walk != sorted(walk):
                        seen += 1
        assert seen > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated(self, seed):
        subject = generate(seed)
        profile_program(subject.program,
                        inputs=[list(args) for args in subject.inputs])
        _check_program(subject.program)


# ----------------------------------------------------------------------
# Exit counts


def _all_regions(programs):
    for program in programs:
        for spec in TREE_SCHEMES + ("slr", "hyperblock"):
            _, functions = form_program(program,
                                        SchemeSpec.parse(spec).build())
            for formed in functions:
                yield from formed.partition


@pytest.mark.parametrize("source", ["corpus", "examples"])
def test_exit_counts_match_exit_count_below(source):
    programs = _corpus() if source == "corpus" else _examples()
    regions = 0
    for region in _all_regions(programs):
        assert region.exit_counts() == {
            block.bid: region.exit_count_below(block)
            for block in region.blocks}
        regions += 1
    assert regions > 0
