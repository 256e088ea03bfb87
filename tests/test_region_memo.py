"""The two-tier region memo (``repro.schedule.memo``).

The memo's contract is bit-identity with the direct pipeline — results
*and* deterministic pipeline counters — across cold, warm, and
disk-revived service.  (The validation oracle re-checks the same
contract against randomly generated programs: the ``memo-cold``,
``memo-warm`` and ``memo-revived`` rows of ``ROUTES`` in
``repro.validate.oracle``.)
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import form_treegions
from repro.evaluation.engine import GridCell, build_scheme, evaluate_grid
from repro.evaluation.schemes import SchemeSpec, form_program
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function
from repro.machine import VLIW_4U, VLIW_8U
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.regions.region import Region
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule import memo as memo_module
from repro.schedule import scheduler
from repro.schedule.memo import (
    RegionMemo,
    RegionSummary,
    _Level2Entry,
    global_memo,
)
from repro.schedule.priorities import HEURISTICS, priority_order
from repro.schedule.scheduler import RegionCounts, dependences, prepare
from repro.serve.store import ArtifactStore, region_pack
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function


def _regions(fn):
    return list(form_treegions(fn.cfg)), liveness_of(fn.cfg)


def _summary(schedule):
    return (schedule.weighted_time, schedule.length, schedule.copy_count,
            schedule.merged_count, schedule.speculated_count)


class TestIdentity:
    def test_cold_and_warm_match_direct(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        for machine in (VLIW_4U, VLIW_8U):
            for heuristic in HEURISTICS:
                options = ScheduleOptions(heuristic=heuristic)
                for region in regions:
                    ref = _summary(schedule_region(
                        region, machine, options, liveness))
                    cold = memo.schedule(region, machine, options, liveness)
                    warm = memo.schedule(region, machine, options, liveness)
                    assert _summary(cold) == ref
                    assert _summary(warm) == ref
                    assert isinstance(warm, RegionSummary)
        stats = memo.stats()
        assert stats["hits"] >= stats["misses"] > 0

    def test_dominator_parallelism_memoizes(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        options = ScheduleOptions(heuristic="global_weight",
                                  dominator_parallelism=True)
        for region in regions:
            ref = _summary(schedule_region(
                region, VLIW_8U, options, liveness))
            assert _summary(memo.schedule(
                region, VLIW_8U, options, liveness)) == ref
            assert _summary(memo.schedule(
                region, VLIW_8U, options, liveness)) == ref
        assert memo.stats()["hits"] == len(regions)

    @pytest.mark.parametrize("options", [
        ScheduleOptions(heuristic="dep_height"),
        ScheduleOptions(heuristic="dep_height", dominator_parallelism=True),
        ScheduleOptions(heuristic="dep_height", schedule_copies=True),
        ScheduleOptions(heuristic="dep_height", backend="exact",
                        exact_budget=200),
    ], ids=["default", "dominator_parallelism", "schedule_copies", "exact"])
    def test_counter_replay_is_lossless(self, options, tmp_path):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)

        def counters(memo):
            registry = MetricsRegistry()
            with metrics_scope(registry):
                for region in regions:
                    if memo is None:
                        schedule_region(region, VLIW_4U, options, liveness)
                    else:
                        memo.schedule(region, VLIW_4U, options, liveness)
            snapshot = registry.deterministic_snapshot()
            snapshot["counters"] = {
                name: value for name, value in snapshot["counters"].items()
                if not name.startswith("serve.store.")
            }
            return snapshot

        direct = counters(None)
        memo = RegionMemo(store=ArtifactStore(str(tmp_path)))
        assert counters(memo) == direct  # cold, filling the store
        assert counters(memo) == direct  # warm
        memo.store.close()
        revived = RegionMemo(store=ArtifactStore(str(tmp_path)))
        assert counters(revived) == direct  # every figure from disk
        assert revived.stats()["store_hits"] == len(regions)
        revived.store.close()


class TestTierOneSharing:
    def test_ddg_shared_across_same_latency_machines(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        region = regions[0]
        memo = RegionMemo()
        options = ScheduleOptions()
        memo.schedule(region, VLIW_4U, options, liveness)
        memo.schedule(region, VLIW_8U, options, liveness)
        # One prep and one DDG build serve both machines: prep reads
        # only use_btr, the DDG only the latency table.
        assert len(memo._problems) == 1
        assert len(memo._ddgs) == 1

    def test_heuristic_sweep_shares_problem_and_ddg(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        region = regions[0]
        memo = RegionMemo()
        for heuristic in HEURISTICS:
            memo.schedule(region, VLIW_4U,
                          ScheduleOptions(heuristic=heuristic), liveness)
        assert len(memo._problems) == 1
        assert len(memo._ddgs) == 1
        assert memo.stats()["misses"] == len(HEURISTICS)

    def test_begin_group_clears_tier_one_only(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        memo.schedule(regions[0], VLIW_4U, ScheduleOptions(), liveness)

        def tables():
            return (memo._problems, memo._ddgs, memo._regions,
                    memo._orders, memo._schedules)
        assert all(tables())
        memo.begin_group()
        assert not any(tables())
        assert memo.stats()["entries"] > 0  # tier 2 is content-addressed

    def test_hyperblock_and_dp_cells_match_memo_off(self, tmp_path):
        """Hyperblock and dominator-parallelism cells go through both
        tiers: cold, warm and store-revived passes equal the memo-off
        results and counters, and none bypasses."""
        cells = [GridCell("li", scheme, machine, heuristic, dp, sc)
                 for scheme, dp, sc in (("hyperblock", False, False),
                                        ("hyperblock", True, True),
                                        ("treegion-td:2.0", True, False),
                                        ("treegion-td:2.0", True, True))
                 for machine in ("4U", "8U")
                 for heuristic in HEURISTICS]

        def run(region_memo, store=None):
            metrics = MetricsRegistry()
            misses = region_memo.stats()["misses"] if region_memo else 0
            results = evaluate_grid(cells, jobs=1, metrics=metrics,
                                    region_memo=region_memo,
                                    region_store=store)
            snapshot = metrics.deterministic_snapshot()
            snapshot["counters"] = {
                name: value for name, value in snapshot["counters"].items()
                if not name.startswith("serve.store.")}
            if region_memo:
                misses = region_memo.stats()["misses"] - misses
            return ([(r.time, r.code_expansion, r.schedule_lengths,
                      r.total_copies, r.total_merged, r.total_speculated)
                     for r in results], snapshot), misses

        off, _ = run(False)
        assert off[1]["counters"]["ddg.nodes"] > 0
        assert sum(merged for *_, merged, _ in off[0]) > 0
        memo = RegionMemo()
        cold, cold_misses = run(memo, str(tmp_path))
        warm, warm_misses = run(memo)
        revived = RegionMemo()
        served, revived_misses = run(revived, str(tmp_path))
        assert cold == warm == served == off
        assert cold_misses > 0
        assert warm_misses == revived_misses == 0
        assert memo.stats()["bypasses"] == revived.stats()["bypasses"] == 0

    def test_hyperblock_keys_ignore_schedule_copies(self, monkeypatch):
        """A hyperblock has no copies, so its problem, DDG, entry and
        pack key ignore ``schedule_copies``: li's hyperblocks scheduled
        with the flag off and then on are prepared once each, and both
        passes equal the memo-off route."""
        scheme = build_scheme("hyperblock")
        regions = []
        for fn in build_benchmark("li").functions():
            cfg = clone_function(fn).cfg
            regions.extend((region, liveness_of(cfg))
                           for region in scheme.form(cfg))
        prepared = []
        real_prepare = memo_module.prepare

        def prepare_spy(*args, **kwargs):
            prepared.append(args[0])
            return real_prepare(*args, **kwargs)
        monkeypatch.setattr(memo_module, "prepare", prepare_spy)
        memo = RegionMemo()
        for copies in (False, True):
            options = ScheduleOptions(schedule_copies=copies)
            served = [_summary(memo.schedule(region, VLIW_4U, options,
                                             liveness))
                      for region, liveness in regions]
            direct = [_summary(schedule_region(region, VLIW_4U, options,
                                               liveness))
                      for region, liveness in regions]
            assert served == direct
        assert len(regions) == 12
        assert len(prepared) == len(regions)
        assert memo.stats()["misses"] == len(regions)


def _distinct_orders(region, machine, liveness):
    """The set of priority orders the four heuristics give ``region``."""
    problem, copies = prepare(region, machine, liveness)
    ddg = dependences(problem, machine, liveness, copies)
    return {tuple(sop.index for sop in priority_order(problem, ddg, h))
            for h in HEURISTICS}


def _list_schedule_spy(monkeypatch):
    calls = []
    original = scheduler.list_schedule

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(scheduler, "list_schedule", spy)
    return calls


class TestScheduleSharing:
    """One list schedule per distinct (region, machine, order) a group
    probes; reusing it is invisible in results, counters and stats."""

    PROBES = [(machine, heuristic) for machine in (VLIW_4U, VLIW_8U)
              for heuristic in HEURISTICS]

    def test_coinciding_orders_list_schedule_once(self, monkeypatch):
        regions, liveness = _regions(build_paper_example().entry_function)
        distinct = sum(len(_distinct_orders(region, machine, liveness))
                       for region in regions
                       for machine in (VLIW_4U, VLIW_8U))
        probes = len(regions) * len(self.PROBES)
        assert distinct < probes  # some heuristics coincide

        def sweep(schedule_one):
            registry = MetricsRegistry()
            with metrics_scope(registry):
                summaries = [
                    _summary(schedule_one(
                        region, machine, ScheduleOptions(heuristic=h),
                        liveness))
                    for machine, h in self.PROBES for region in regions
                ]
            return summaries, registry.deterministic_snapshot()

        direct = sweep(schedule_region)
        memo = RegionMemo()
        calls = _list_schedule_spy(monkeypatch)
        assert sweep(memo.schedule) == direct
        assert len(calls) == distinct
        # A reused schedule is still a miss: every probe of the sweep
        # is a distinct tier-2 key.
        assert memo.stats()["misses"] == probes
        assert memo.stats()["hits"] == memo.stats()["store_hits"] == 0
        assert memo.stats()["entries"] == probes

    def test_grid_matches_memo_off(self):
        cells = [GridCell("li", scheme, machine, heuristic)
                 for scheme in ("bb", "treegion-td:2.0")
                 for machine in ("4U", "8U")
                 for heuristic in HEURISTICS]

        def run(region_memo):
            metrics = MetricsRegistry()
            results = evaluate_grid(cells, jobs=1, metrics=metrics,
                                    region_memo=region_memo)
            return ([(r.time, r.code_expansion, r.schedule_lengths,
                      r.total_copies, r.total_merged, r.total_speculated)
                     for r in results], metrics.deterministic_snapshot())

        assert run(RegionMemo()) == run(False)

    def test_fingerprint_once_per_region_per_group(self, monkeypatch):
        cells = [GridCell("compress", scheme, machine, heuristic)
                 for scheme in ("bb", "treegion")
                 for machine in ("4U", "8U")
                 for heuristic in HEURISTICS]
        calls = []
        original = memo_module.region_fingerprint
        monkeypatch.setattr(
            memo_module, "region_fingerprint",
            lambda *args: calls.append(args) or original(*args))
        evaluate_grid(cells, jobs=1, region_memo=RegionMemo())
        cfgs = [fn.cfg for fn in build_benchmark("compress").functions()]
        formed = sum(len(build_scheme(spec).form(cfg))
                     for spec in ("bb", "treegion") for cfg in cfgs)
        assert len(calls) == formed

    def test_dp_shares_tier_one(self, monkeypatch):
        """Cells with and without dominator parallelism share the
        group's prepared problems: ``prepare`` runs once per region.
        Their finished schedules key on the flag."""
        formed = form_program(build_paper_example(),
                              SchemeSpec.parse("treegion-td:2.0").build())[1]
        regions = [region for f in formed for region in f.partition]
        liveness = liveness_of(formed[0].function.cfg)
        probes = [(region, machine, ScheduleOptions(
            heuristic=heuristic, dominator_parallelism=dp))
            for dp in (False, True)
            for machine, heuristic in self.PROBES for region in regions]
        direct = [_summary(schedule_region(region, machine, options,
                                           liveness))
                  for region, machine, options in probes]
        prepared = []
        original = memo_module.prepare
        monkeypatch.setattr(
            memo_module, "prepare",
            lambda *a, **k: prepared.append(a[0]) or original(*a, **k))
        memo = RegionMemo()
        served = [_summary(memo.schedule(region, machine, options,
                                         liveness))
                  for region, machine, options in probes]
        assert served == direct
        assert sum(summary[3] for summary in served) > 0  # dp merged
        assert sorted(map(id, prepared)) == sorted(map(id, regions))
        assert {key[3] for key in memo._schedules} == {False, True}

    def test_exact_never_reuses(self, monkeypatch):
        regions, liveness = _regions(build_paper_example().entry_function)
        memo = RegionMemo()
        for region in regions:
            memo.schedule(region, VLIW_4U,
                          ScheduleOptions(heuristic="dep_height"), liveness)
        shared = dict(memo._schedules)
        runs = []
        original = memo_module.schedule_prepared
        monkeypatch.setattr(
            memo_module, "schedule_prepared",
            lambda *a, **k: runs.append(a) or original(*a, **k))
        options = ScheduleOptions(heuristic="dep_height", backend="exact")
        for region in regions:
            summary = memo.schedule(region, VLIW_4U, options, liveness)
            # A miss returns figures on every route, exact too.
            assert isinstance(summary, RegionSummary)
        assert len(runs) == len(regions)
        assert memo._schedules == shared


class TestStorePersistence:
    def test_fresh_memo_revives_from_disk(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        options = ScheduleOptions(heuristic="global_weight")
        reference = [
            _summary(schedule_region(r, VLIW_4U, options, liveness))
            for r in regions
        ]
        with tempfile.TemporaryDirectory(prefix="repro-memo-") as tmp:
            seeding = RegionMemo(store=ArtifactStore(tmp))
            for region in regions:
                seeding.schedule(region, VLIW_4U, options, liveness)
            seeding.store.close()  # region writes wait for the sync

            revived = RegionMemo(store=ArtifactStore(tmp))
            served = [
                _summary(revived.schedule(region, VLIW_4U, options,
                                          liveness))
                for region in regions
            ]
            revived.store.close()
        assert served == reference
        stats = revived.stats()
        assert stats["store_hits"] == len(regions)
        assert stats["misses"] == 0

    def test_wrong_exit_count_is_recomputed(self, tmp_path):
        """A pack entry whose exit cycles do not match the region's exits
        is corrupt: the probe recomputes it and writes it back into the
        pack rather than weighting a truncated list."""
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        options = ScheduleOptions(heuristic="global_weight")
        reference = [
            _summary(schedule_region(r, VLIW_4U, options, liveness))
            for r in regions
        ]
        seeding = RegionMemo(store=ArtifactStore(str(tmp_path)))
        for region in regions:
            seeding.schedule(region, VLIW_4U, options, liveness)
        store = seeding.store
        store.sync()
        damaged = {}
        for key in store.keys():
            (entry_id, entry), = store.get_payload(key)["entries"].items()
            if len(entry["exit_cycles"]) > 1:
                damaged[key, entry_id] = entry["exit_cycles"]
                # A later record wins per entry: append a truncated one.
                store.put_payload(key, region_pack({entry_id: dict(
                    entry, exit_cycles=entry["exit_cycles"][:-1])}))
        store.close()
        assert damaged

        revived = RegionMemo(store=ArtifactStore(str(tmp_path)))
        served = [
            _summary(revived.schedule(region, VLIW_4U, options, liveness))
            for region in regions
        ]
        assert served == reference
        assert revived.stats()["misses"] == len(damaged)
        revived.store.close()
        with ArtifactStore(str(tmp_path)) as reopened:
            for (key, entry_id), cycles in damaged.items():
                entries = reopened.get_payload(key)["entries"]
                assert entries[entry_id]["exit_cycles"] == cycles

    def test_store_revived_grid_reads_once_per_probe(self, tmp_path,
                                                    monkeypatch):
        """A store-warm group reads each region pack it needs once, and
        never more than once per formed region; each probe decodes its
        own entry, and the region's exits are taken once per formed
        region per group, not once per probe."""
        schemes = ("bb", "treegion", "treegion-td:2.0")
        cells = [GridCell("compress", scheme, machine, heuristic)
                 for scheme in schemes
                 for machine in ("4U", "8U")
                 for heuristic in HEURISTICS]

        def run(memo):
            metrics = MetricsRegistry()
            results = evaluate_grid(cells, jobs=1, metrics=metrics,
                                    region_memo=memo,
                                    region_store=str(tmp_path))
            snapshot = metrics.deterministic_snapshot()
            snapshot["counters"] = {
                name: value for name, value in snapshot["counters"].items()
                if not name.startswith("serve.store.")
            }
            return results, snapshot

        cold_memo = RegionMemo()
        cold = run(cold_memo)
        # Tail duplication mutates what it forms: form over clones.
        formed = sum(len(build_scheme(spec).form(clone_function(fn).cfg))
                     for spec in schemes
                     for fn in build_benchmark("compress").functions())
        calls = {"exits": 0, "get_payload": 0}
        for owner, name in ((Region, "exits"),
                            (ArtifactStore, "get_payload")):
            def spy(*args, _name=name, _original=getattr(owner, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(owner, name, spy)
        groups = []
        begin_group = RegionMemo.begin_group

        def begin_group_spy(memo, *state):
            groups.append(set())
            return begin_group(memo, *state)
        monkeypatch.setattr(RegionMemo, "begin_group", begin_group_spy)
        pack = RegionMemo._pack

        def pack_spy(memo, key):
            found = pack(memo, key)
            groups[-1].add(found[0])
            return found
        monkeypatch.setattr(RegionMemo, "_pack", pack_spy)
        memo = RegionMemo()
        assert run(memo) == cold
        stats, cold_stats = memo.stats(), cold_memo.stats()
        assert calls["exits"] == formed
        assert calls["get_payload"] == sum(map(len, groups)) > 0
        assert calls["get_payload"] <= formed
        assert calls["get_payload"] < stats["store_hits"]
        assert stats["misses"] == 0
        assert stats["hits"] == cold_stats["hits"] + cold_stats["misses"]
        assert (stats["entries"], stats["bytes"]) == \
            (cold_stats["entries"], cold_stats["bytes"])

    def test_lru_bound_respected(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        memo = RegionMemo(max_entries=1)
        for heuristic in HEURISTICS:
            for region in regions:
                memo.schedule(region, VLIW_4U,
                              ScheduleOptions(heuristic=heuristic), liveness)
        stats = memo.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


_FIGURE = st.none() | st.integers(min_value=0, max_value=10 ** 12)


class TestEntrySize:
    @settings(max_examples=200, deadline=None)
    @given(cycles=st.lists(st.integers(min_value=0, max_value=10 ** 9),
                           max_size=12).map(tuple),
           counts=st.tuples(*[_FIGURE] * len(RegionCounts._fields)).map(
               lambda figures: RegionCounts(*figures)))
    def test_size_is_the_payload_json_length(self, cycles, counts):
        entry = _Level2Entry(cycles, counts)
        assert entry.size == len(json.dumps(entry.payload(), sort_keys=True))


class TestBypasses:
    def test_certify_bypasses(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        schedule = memo.schedule(regions[0], VLIW_4U,
                                 ScheduleOptions(certify=True), liveness)
        assert memo.stats()["bypasses"] == 1
        assert memo.stats()["misses"] == 0
        assert hasattr(schedule, "cycles")  # the full schedule object


class TestEngineWiring:
    GRID = [
        GridCell("compress", scheme, machine, heuristic)
        for scheme in ("bb", "treegion")
        for machine in ("4U", "8U")
        for heuristic in ("dep_height", "global_weight")
    ]

    def test_grid_records_region_gauges(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics,
                      region_memo=RegionMemo())
        gauges = metrics.snapshot()["gauges"]
        for name in ("cache.region.hits", "cache.region.misses",
                     "cache.region.bytes"):
            assert name in gauges, name
        assert gauges["cache.region.misses"] > 0
        assert gauges["cache.region.bytes"] > 0

    def test_gauges_outside_determinism_contract(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics,
                      region_memo=RegionMemo())
        assert "gauges" not in metrics.deterministic_snapshot()

    def test_region_memo_false_disables(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics, region_memo=False)
        assert "cache.region.hits" not in metrics.snapshot()["gauges"]

    def test_parallel_grid_merges_memo_gauges(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=2, metrics=metrics)
        gauges = metrics.snapshot()["gauges"]
        assert "cache.region.misses" in gauges

    def test_unknown_heuristic_is_one_error_on_every_route(self):
        """Memo off, memo on (cold and after the region's other
        heuristics are cached) and pool workers raise the direct
        route's ValueError, never a bare KeyError."""
        bad = [GridCell(bench, "treegion", "4U", "dependence_height")
               for bench in ("compress", "li")]
        message = ("unknown heuristic 'dependence_height'; "
                   f"choose one of {HEURISTICS}")
        memo = RegionMemo()
        evaluate_grid([GridCell("compress", "treegion", "4U", heuristic)
                       for heuristic in HEURISTICS], region_memo=memo)
        for route in (dict(region_memo=False),
                      dict(region_memo=RegionMemo()),
                      dict(region_memo=memo),
                      dict(jobs=2)):
            with pytest.raises(ValueError) as caught:
                evaluate_grid(bad, **route)
            assert str(caught.value) == message, route

    def test_global_memo_is_default(self):
        before = global_memo().stats()
        evaluate_grid(self.GRID[:2], jobs=1)
        after = global_memo().stats()
        assert (after["hits"] + after["misses"]
                > before["hits"] + before["misses"])
