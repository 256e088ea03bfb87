"""The exact branch-and-bound backend and the optimality-gap report.

The load-bearing check is the brute-force cross-check: on every small
region of a mixed corpus, an exhaustive enumeration over per-cycle issue
subsets (no pruning beyond legality and a depth cap) must agree with the
branch-and-bound optimum.  The rest certifies the integration surface:
budget-exceeded runs fall back to the best heuristic schedule
bit-identically, the region memo replays exact schedules, exact
schedules lint clean and co-simulate with the interpreter, and the gap
report's numbers are pinned on deterministic workloads.
"""

import pytest

from repro.api import machine as resolve_machine
from repro.api import make_scheme
from repro.exact import (
    DEFAULT_NODE_BUDGET,
    branch_and_bound,
    gap_program,
    gap_summary,
    solve_region,
)
from repro.exact.backend import BUDGET_EXCEEDED, PROVEN
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_program
from repro.machine import VLIW_4U
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule.priorities import HEURISTICS
from repro.workloads import (
    build_biased_treegion,
    build_linearized_treegion,
    build_paper_example,
    build_wide_shallow_treegion,
)
from repro.workloads.minic_programs import build_minic_program


# ----------------------------------------------------------------------
# Helpers


def _regions(program, scheme_spec, machine_spec):
    """Yield (region, machine, liveness) the way the gap driver forms them."""
    scheme = make_scheme(scheme_spec)
    machine = resolve_machine(machine_spec)
    worked = clone_program(program) if scheme.mutates else program
    for function in worked.functions():
        liveness = liveness_of(function.cfg)
        for region in scheme.form(function.cfg):
            yield region, machine, liveness


def _bundles(schedule):
    """A comparable snapshot of one schedule's placement."""
    return [
        (cycle, tuple(sop.index for sop in bundle))
        for cycle, bundle in schedule.iter_bundles()
    ]


def brute_force_optimum(problem, ddg, machine, seed_length):
    """Exhaustive minimum schedule length, no cleverness.

    Enumerates every subset of the ready ops (including the empty one —
    deliberate idling is allowed) at every cycle, bounded only by the
    legality rules the list scheduler obeys and by ``seed_length`` (the
    length of a known legal schedule, used purely as a depth cap).
    Exponential; callers keep regions at <= 6 ops.
    """
    n = len(problem.sched_ops)
    if n == 0:
        return 0
    succ_ptr, succ_dst, succ_lat = ddg.succ_ptr, ddg.succ_dst, ddg.succ_lat
    is_mem = [s.op.is_memory for s in problem.sched_ops]
    is_br = [s.op.is_branch for s in problem.sched_ops]
    width = machine.issue_width
    mem_cap = machine.max_memory_per_cycle
    br_cap = machine.max_branches_per_cycle

    release = [1] * n
    waiting = list(ddg.in_degree)
    placed = [False] * n
    best = [seed_length]

    def rec(t, remaining):
        if remaining == 0:
            if t - 1 < best[0]:
                best[0] = t - 1
            return
        if t > best[0]:
            return
        ready = [i for i in range(n)
                 if not placed[i] and waiting[i] == 0 and release[i] <= t]
        for bits in range(1 << len(ready)):
            subset = [ready[k] for k in range(len(ready))
                      if bits >> k & 1]
            if len(subset) > width:
                continue
            if (mem_cap is not None
                    and sum(1 for i in subset if is_mem[i]) > mem_cap):
                continue
            if (br_cap is not None
                    and sum(1 for i in subset if is_br[i]) > br_cap):
                continue
            undo = []
            for i in subset:
                placed[i] = True
                for e in range(succ_ptr[i], succ_ptr[i + 1]):
                    dst = succ_dst[e]
                    waiting[dst] -= 1
                    undo.append((dst, release[dst]))
                    candidate = t + succ_lat[e]
                    if candidate > release[dst]:
                        release[dst] = candidate
            rec(t + 1, remaining - len(subset))
            for dst, old in reversed(undo):
                release[dst] = old
            for i in subset:
                placed[i] = False
                for e in range(succ_ptr[i], succ_ptr[i + 1]):
                    waiting[succ_dst[e]] += 1

    rec(1, n)
    return best[0]


def _small_corpus():
    programs = [
        ("paper-example", build_paper_example()),
        ("biased", build_biased_treegion()),
        ("linearized", build_linearized_treegion()),
        ("wide-shallow", build_wide_shallow_treegion()),
    ]
    program, _args = build_minic_program("fib")
    programs.append(("minic-fib", program))
    return programs


# ----------------------------------------------------------------------
# The search itself


class TestBruteForceCrossCheck:
    def test_bnb_matches_exhaustive_enumeration(self):
        """On every <=6-op region of the small corpus, the B&B optimum
        equals the exhaustive minimum — for a narrow and a wide machine."""
        checked = 0
        nontrivial = 0
        for _name, program in _small_corpus():
            for scheme in ("bb", "treegion"):
                for machine_spec in ("2U", "4U"):
                    for region, machine, liveness in _regions(
                            program, scheme, machine_spec):
                        schedule, info, problem, ddg = solve_region(
                            region, machine, liveness)
                        if len(problem.sched_ops) > 6:
                            continue
                        assert info.status == PROVEN
                        expected = brute_force_optimum(
                            problem, ddg, machine, info.incumbent_length)
                        assert info.optimum == expected, (
                            f"{scheme}/{machine_spec} region "
                            f"bb{region.root.bid}: bnb={info.optimum} "
                            f"brute={expected}"
                        )
                        assert schedule.length == info.optimum
                        checked += 1
                        if len(problem.sched_ops) >= 4:
                            nontrivial += 1
        assert checked >= 20
        assert nontrivial >= 5

    def test_branch_and_bound_trivial_cases(self):
        # No ops: already optimal at zero cycles.
        result = branch_and_bound(
            0, [0], [0], [], [], [], [], 4, None, 1,
            incumbent=0, node_budget=100)
        assert result.proven and result.length == 0
        # One op, incumbent already matches the only possible length.
        result = branch_and_bound(
            1, [0, 0], [0, 0], [], [], [False], [False], 4, None, 1,
            incumbent=1, node_budget=100)
        assert result.proven and result.length == 1


class TestBudgetExceeded:
    def _hard_region(self):
        """A corpus region whose best heuristic height exceeds the bound
        (so the search genuinely runs): go/bb on 4U has one."""
        from repro.workloads import build_benchmark

        program = build_benchmark("go")
        for region, machine, liveness in _regions(program, "bb", "4U"):
            _schedule, info, _problem, _ddg = solve_region(
                region, machine, liveness, budget=0)
            if info.status == BUDGET_EXCEEDED:
                return region, machine, liveness
        pytest.fail("no budget-limited region found in go/bb/4U")

    def test_fallback_is_best_heuristic_bit_identical(self):
        region, machine, liveness = self._hard_region()
        schedule, info, _problem, _ddg = solve_region(
            region, machine, liveness, budget=0)
        assert info.status == BUDGET_EXCEEDED
        assert not info.proven
        assert info.optimum is None
        assert schedule.length == info.incumbent_length == info.length
        # The best-of-4 heuristic schedule, reproduced independently.
        best = None
        for heuristic in HEURISTICS:
            candidate = schedule_region(
                region, machine,
                ScheduleOptions(heuristic=heuristic), liveness)
            if best is None or candidate.length < best.length:
                best = candidate
        assert schedule.length == best.length
        assert _bundles(schedule) == _bundles(best)
        assert schedule.weighted_time == best.weighted_time

    def test_budget_exceeded_is_deterministic(self):
        region, machine, liveness = self._hard_region()
        first = solve_region(region, machine, liveness, budget=500)
        second = solve_region(region, machine, liveness, budget=500)
        assert first[1].nodes == second[1].nodes
        assert first[1].status == second[1].status
        assert _bundles(first[0]) == _bundles(second[0])

    def test_larger_budget_proves_the_region(self):
        region, machine, liveness = self._hard_region()
        schedule, info, _problem, _ddg = solve_region(
            region, machine, liveness, budget=DEFAULT_NODE_BUDGET)
        assert info.status == PROVEN
        assert schedule.length == info.optimum <= info.incumbent_length


# ----------------------------------------------------------------------
# Pipeline integration


def _assert_rejected_on_every_route(options, match):
    """A bad option raises on the direct route, through the region memo
    and through a memoized grid evaluation alike."""
    from repro.evaluation.engine import GridCell, evaluate_grid
    from repro.schedule.memo import RegionMemo

    region, machine, liveness = next(_regions(
        build_paper_example(), "treegion", "4U"))
    with pytest.raises(ValueError, match=match):
        schedule_region(region, machine, options, liveness)
    with pytest.raises(ValueError, match=match):
        RegionMemo().schedule(region, machine, options, liveness)
    cell = GridCell("compress", "treegion", "4U", options.heuristic,
                    dominator_parallelism=options.dominator_parallelism,
                    schedule_copies=options.schedule_copies,
                    backend=options.backend)
    with pytest.raises(ValueError, match=match):
        evaluate_grid([cell], region_memo=RegionMemo())


class TestExactBackendOptions:
    def test_unknown_backend_rejected(self):
        for backend in ("optimal", "bogus"):
            _assert_rejected_on_every_route(
                ScheduleOptions(backend=backend), "unknown backend")

    def test_exact_rejects_dp_and_copies(self):
        for options in (
            ScheduleOptions(backend="exact", dominator_parallelism=True),
            ScheduleOptions(backend="exact", schedule_copies=True),
        ):
            _assert_rejected_on_every_route(options, "backend='exact'")

    def test_exact_rejects_hyperblocks(self):
        from repro.regions.hyperblock import form_hyperblocks

        program = build_paper_example()
        function = program.entry_function
        region = next(iter(form_hyperblocks(function.cfg)))
        with pytest.raises(ValueError, match="hyperblock"):
            schedule_region(region, VLIW_4U,
                            ScheduleOptions(backend="exact"))

    def test_exact_never_longer_certified(self):
        """backend='exact' passes the certifier and never exceeds the
        heuristic height on any corpus region."""
        program = build_paper_example()
        for region, machine, liveness in _regions(
                program, "treegion", "4U"):
            heuristic = schedule_region(
                region, machine, ScheduleOptions(certify=True), liveness)
            exact = schedule_region(
                region, machine,
                ScheduleOptions(backend="exact", certify=True), liveness)
            assert exact.length <= heuristic.length
            # Bundles cover exactly the reported height.
            cycles = [cycle for cycle, _ in exact.iter_bundles()]
            assert max(cycles) == exact.length


class TestExactCosim:
    @pytest.mark.parametrize("name,machine", [
        ("fib", "4U"), ("sort", "8U"), ("statemachine", "4U"),
    ])
    def test_exact_schedules_simulate_correctly(self, name, machine):
        from repro.evaluation import treegion_scheme
        from repro.interp import Interpreter, profile_program
        from repro.vliw import simulate

        program, args = build_minic_program(name)
        profile_program(program, inputs=[args])
        expected = Interpreter(program).run(args)
        result, simulator = simulate(
            program, treegion_scheme(), resolve_machine(machine), args,
            ScheduleOptions(backend="exact", certify=True))
        assert result == expected
        assert simulator.cycles > 0


class TestExactMemoAndEngine:
    def test_grid_cell_backend_flows_through(self):
        from repro.evaluation.engine import GridCell, evaluate_grid

        program = build_paper_example()
        cells = [
            GridCell("p", "treegion", "4U", "global_weight"),
            GridCell("p", "treegion", "4U", "global_weight",
                     backend="exact"),
        ]
        heuristic, exact = evaluate_grid(cells, programs={"p": program})
        assert exact.time <= heuristic.time
        assert all(
            e <= h for e, h in
            zip(sorted(exact.schedule_lengths),
                sorted(heuristic.schedule_lengths))
        )

    def test_memo_replays_exact_bit_identical(self, tmp_path):
        from repro.evaluation.engine import GridCell, evaluate_grid
        from repro.obs.metrics import MetricsRegistry
        from repro.schedule.memo import RegionMemo
        from repro.serve.store import ArtifactStore

        program = build_paper_example()
        cells = [GridCell("p", "treegion", "4U", "global_weight",
                          backend="exact")] + [
            GridCell("compress", "treegion", machine, heuristic,
                     backend="exact")
            for machine in ("4U", "8U") for heuristic in HEURISTICS
        ]

        def run(memo):
            """Results and pipeline counters (the store's own I/O
            counters differ by route by design)."""
            metrics = MetricsRegistry()
            results = evaluate_grid(cells, programs={"p": program},
                                    metrics=metrics, region_memo=memo)
            snapshot = metrics.deterministic_snapshot()
            snapshot["counters"] = {
                name: value for name, value in snapshot["counters"].items()
                if not name.startswith("serve.store.")
            }
            return results, snapshot

        cold, direct = run(False)
        assert direct["counters"]["exact.regions"] > 0
        memo = RegionMemo()
        first = run(memo)
        warm = run(memo)
        assert memo.stats()["hits"] > 0

        # Content-addressed store replay across fresh memo instances.
        with ArtifactStore(str(tmp_path)) as store:
            run(RegionMemo(store=store))
            fresh = RegionMemo(store=store)
            replayed = run(fresh)
        assert fresh.stats()["store_hits"] > 0
        for results, snapshot in (first, warm, replayed):
            assert snapshot == direct
            for result, reference in zip(results, cold):
                assert result.time == reference.time
                assert result.schedule_lengths == reference.schedule_lengths

    def test_exact_and_heuristic_store_keys_differ(self):
        from repro.serve.store import region_key

        legacy = region_key("r", False, False)
        assert legacy == region_key("r", False, False, backend="heuristic",
                                    exact_budget=123)
        exact = region_key("r", False, False, backend="exact",
                           exact_budget=50_000)
        assert exact != legacy
        assert exact != region_key("r", False, False, backend="exact",
                                   exact_budget=1_000)


# ----------------------------------------------------------------------
# The gap report


class TestGapReport:
    def test_gap_regression_small_corpus(self):
        """Seed-pinned: on the deterministic small corpus every region
        proves within the default budget, bounds are sound, schedules
        lint clean, and dep_height is optimal everywhere."""
        all_rows = []
        for name, program in _small_corpus():
            result = gap_program(program, name=name)
            summary = result["summary"]
            assert summary["sound"], name
            assert summary["lint_errors"] == 0, name
            assert summary["proven"] == summary["regions"], name
            all_rows.extend(result["regions"])
        total = gap_summary(all_rows, list(HEURISTICS))
        assert total["regions"] >= 40
        assert total["proven_fraction"] == 1.0
        assert total["unsound_bounds"] == 0
        assert total["heuristics"]["dep_height"]["optimal_fraction"] == 1.0

    def test_gap_paper_example_pinned(self):
        result = gap_program(build_paper_example(), name="paper")
        summary = result["summary"]
        assert summary["regions"] == 20
        assert summary["proven"] == 20
        assert summary["budget_exceeded"] == 0
        for row in result["regions"]:
            assert row["optimum"] == row["lower_bound"]
            assert row["status"] == "proven"

    def test_gap_rejects_hyperblock_and_bad_budget(self):
        program = build_paper_example()
        with pytest.raises(ValueError, match="hyperblock"):
            gap_program(program, schemes=("hyperblock",))
        with pytest.raises(ValueError, match="budget"):
            gap_program(program, budget=-1)

    def test_max_ops_skips_large_regions(self):
        result = gap_program(build_paper_example(), max_ops=4,
                             schemes=("treegion",), machines=("4U",))
        summary = result["summary"]
        assert summary["skipped"] > 0
        assert all(row["ops"] <= 4 for row in result["regions"])

    def test_api_facade(self):
        from repro.api import gap_report

        result = gap_report(build_paper_example(), name="paper",
                            schemes=["treegion"], machines=["4U"])
        assert result["summary"]["sound"]
        assert result["machines"] == ["4U"]

    def test_exact_counters_flow_to_metrics(self):
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            gap_program(build_paper_example(), schemes=("treegion",),
                        machines=("4U",))
        assert metrics.counters["exact.regions"] > 0
        assert metrics.counters["exact.proven"] > 0


# ----------------------------------------------------------------------
# Windowed resource bounds (the tightened satellite)


class TestWindowedBounds:
    def test_windowed_floor_vs_plain_ceiling(self):
        from repro.analysis.bounds import _windowed_floor

        # Plain ceiling: ceil(6/2) = 3.  Windowed at t=3: 2 + ceil(3/2)
        # = 4 — the three late ops cannot start before cycle 3.
        assert _windowed_floor([1, 1, 1, 3, 3, 3], 2) == 4
        # t = 1 recovers the plain ceiling exactly.
        assert _windowed_floor([1, 1, 1, 1], 2) == 2
        assert _windowed_floor([], 4) == 0
        assert _windowed_floor([5], 1) == 5

    def test_windowed_never_looser_than_plain(self):
        import math

        from repro.analysis.bounds import region_lower_bounds

        for _name, program in _small_corpus():
            for region, machine, liveness in _regions(
                    program, "treegion", "4U"):
                bounds = region_lower_bounds(region, machine, liveness)
                plain = math.ceil(bounds.ops / machine.issue_width)
                assert bounds.resource >= plain

    def test_bounds_stay_sound_against_optima(self):
        for _name, program in _small_corpus():
            for region, machine, liveness in _regions(
                    program, "bb", "2U"):
                _schedule, info, _problem, _ddg = solve_region(
                    region, machine, liveness)
                if info.status == PROVEN:
                    assert info.lower_bound <= info.optimum
