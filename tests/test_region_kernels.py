"""Per-region kernels against the plain forms they replace.

The scheduling pipeline reads exit liveness restricted to the registers
a region touches, sorts priority orders as op indices, and reads per-op
resource flags built once per DDG.  Each is only sound if it returns
exactly what the plain form did: the full sorted live set filtered to
the same registers, the ascending ``(-key..., index)`` sort, and
schedules that do not depend on whether the region memo shares a DDG.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import form_treegions, form_treegions_td
from repro.core.tail_duplication import TreegionLimits
from repro.evaluation.engine import GridCell, evaluate_grid
from repro.ir.liveness import compute_liveness
from repro.machine import VLIW_4U
from repro.obs.metrics import MetricsRegistry
from repro.regions.basic import form_basic_block_regions
from repro.schedule.ddg import _live_at_exit, defined_registers
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import (
    HEURISTICS,
    priority_keys,
    priority_order,
)
from repro.schedule.scheduler import dependences, prepare
from repro.workloads.paper_example import build_paper_example
from repro.workloads.synthetic import SynthParams, generate_function


def _random_function(seed: int):
    rng = random.Random(seed)
    return generate_function(SynthParams(
        name=f"kernel{seed}",
        seed=seed,
        target_blocks=rng.randint(10, 60),
        toplevel=rng.randint(2, 6),
        depth=rng.randint(1, 4),
        block_ops_mean=rng.uniform(2, 8),
        switch_odds=rng.uniform(0, 1.0),
        loop_odds=rng.uniform(0, 1.5),
        chain_odds=rng.uniform(0, 1.5),
        bias_hi=rng.uniform(0.55, 0.99),
    ))


def _appearing(region):
    registers = set()
    for block in region.blocks:
        for op in block.ops:
            registers.update(op.defined_registers())
            registers.update(op.used_registers())
    return registers


def _filtered(full, registers):
    return tuple(register for register in full if register in registers)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000),
       scheme=st.sampled_from(("bb", "treegion", "treegion-td")))
def test_restricted_exit_liveness_is_the_filtered_full_set(seed, scheme):
    fn = _random_function(seed)
    if scheme == "bb":
        partition = form_basic_block_regions(fn.cfg)
    elif scheme == "treegion":
        partition = form_treegions(fn.cfg)
    else:
        partition = form_treegions_td(fn.cfg,
                                      TreegionLimits(code_expansion=2.0))
    liveness = compute_liveness(fn.cfg)
    rng = random.Random(seed)
    everything = sorted({register for block in fn.cfg.blocks()
                         for register in liveness.live_in(block)})
    for region in partition:
        appearing = _appearing(region)
        subset = set(rng.sample(everything, len(everything) // 3))
        for exit in region.exits():
            if exit.edge is None:
                continue
            full = sorted(liveness.live_into_edge(exit.edge))
            for registers in (appearing, subset, set()):
                assert liveness.live_into_edge_within(
                    exit.edge, registers) == _filtered(full, registers)
        if scheme == "bb":
            continue
        # The DDG's form: renamed names, repairs substituted first.
        problem, copies = prepare(region, VLIW_4U, liveness)
        defined = defined_registers(problem)
        for exit in problem.exits:
            assert _live_at_exit(exit, liveness, copies, defined) == \
                _filtered(_live_at_exit(exit, liveness, copies), defined)


def _reference_order(problem, keys):
    return sorted(
        problem.sched_ops,
        key=lambda sop: tuple(-component for component in keys[sop.index])
        + (sop.index,),
    )


def _paper_problem():
    fn = build_paper_example().entry_function
    liveness = compute_liveness(fn.cfg)
    region = max(form_treegions(fn.cfg), key=lambda r: r.block_count)
    problem, copies = prepare(region, VLIW_4U, liveness)
    return problem, dependences(problem, VLIW_4U, liveness, copies)


_COMPONENTS = st.sampled_from((0, 1, 2, 0.0, -0.0, 0.5, 1.0, 2.5, 1e-300))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), arity=st.integers(min_value=1, max_value=3))
def test_priority_order_matches_negated_tuple_sort(data, arity):
    problem, ddg = _paper_problem()
    keys = data.draw(st.lists(
        st.tuples(*[_COMPONENTS] * arity),
        min_size=len(problem.sched_ops), max_size=len(problem.sched_ops)))
    assert priority_order(problem, ddg, "dep_height", keys=keys) == \
        _reference_order(problem, keys)


def test_priority_order_ties_keep_index_order():
    problem, ddg = _paper_problem()
    n = len(problem.sched_ops)
    for keys in ([(1,)] * n,
                 [(0.0,) if i % 2 else (-0.0,) for i in range(n)],
                 [(2.5, i % 3) for i in range(n)]):
        assert priority_order(problem, ddg, "dep_height", keys=keys) == \
            _reference_order(problem, keys)
    for heuristic in HEURISTICS:
        keys = priority_keys(problem, ddg, heuristic)
        assert priority_order(problem, ddg, heuristic) == \
            _reference_order(problem, keys)


def test_copy_and_merge_cells_match_memo_off():
    cells = [GridCell("compress", scheme, machine, heuristic,
                      dominator_parallelism=dp, schedule_copies=sc)
             for scheme in ("treegion", "treegion-td:2.0")
             for machine in ("4U", "8U")
             for heuristic in HEURISTICS
             for dp, sc in ((True, False), (False, True), (True, True))]

    def run(region_memo):
        metrics = MetricsRegistry()
        results = evaluate_grid(cells, jobs=1, metrics=metrics,
                                region_memo=region_memo)
        return ([(r.time, r.code_expansion, r.schedule_lengths,
                  r.total_copies, r.total_merged, r.total_speculated)
                 for r in results], metrics.deterministic_snapshot())

    memo_on = run(RegionMemo())
    assert memo_on == run(False)
    # The cells exercise both routes: repairs and merges happen.
    assert any(copies for *_, copies, _m, _s in memo_on[0])
    assert any(merged for *_, merged, _s in memo_on[0])
