"""The persistent artifact store: keys, durability, eviction, recovery.

The store's contract is "caching can cost time, never wrong answers":
a stored result must deserialize bit-identical to the computed one, a
corrupt entry must degrade to a miss, concurrent writers of one key
must race atomically, and the LRU bound must evict oldest-first.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import form_treegions
from repro.evaluation.engine import (
    CellResult,
    GridCell,
    evaluate_cell,
    evaluate_grid,
)
from repro.ir.analysis_cache import liveness_of
from repro.machine import VLIW_4U, VLIW_8U
from repro.obs import MetricsRegistry, metrics_scope
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import HEURISTICS
from repro.schedule.scheduler import RegionCounts
from repro.serve import (
    ArtifactStore,
    cell_key,
    machine_fingerprint,
    result_from_payload,
    result_to_payload,
    store_schema,
)
from repro.serve.store import pack_entries, region_entry_id, region_pack
from repro.serve.router import _builtin_text
from repro.workloads.paper_example import build_paper_example


def _result(benchmark: str = "b", time: float = 1.5,
            lengths=(3, 4)) -> CellResult:
    return CellResult(
        cell=GridCell(benchmark, "treegion", "4U", "global_weight"),
        time=time,
        code_expansion=1.25,
        schedule_lengths=tuple(lengths),
        total_copies=2,
        total_merged=1,
        total_speculated=7,
    )


KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestKeys:
    def test_key_is_stable_and_content_addressed(self):
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        text = _builtin_text("compress")
        assert cell_key(text, cell) == cell_key(text, cell)
        # Any input perturbation changes the key.
        assert cell_key(text + " ", cell) != cell_key(text, cell)
        for other in (
            GridCell("compress", "bb", "4U", "global_weight"),
            GridCell("compress", "treegion", "8U", "global_weight"),
            GridCell("compress", "treegion", "4U", "dep_height"),
            GridCell("compress", "treegion", "4U", "global_weight",
                     dominator_parallelism=True),
            GridCell("compress", "treegion", "4U", "global_weight",
                     schedule_copies=True),
        ):
            assert cell_key(text, other) != cell_key(text, cell)

    def test_scheme_spec_aliases_share_a_key(self):
        text = _builtin_text("compress")
        explicit = GridCell("compress", "treegion-td:2.0", "4U",
                            "global_weight")
        spelled = GridCell("compress", " treegion-td:2.0 ", "4U",
                           "global_weight")
        assert cell_key(text, explicit) == cell_key(text, spelled)

    def test_schema_version_is_part_of_the_key(self):
        assert store_schema() in json.dumps(
            result_to_payload(KEY_A, _result())
        )

    def test_machine_fingerprint_covers_latencies(self):
        from repro.machine.presets import VLIW_4U, universal_machine

        assert machine_fingerprint(VLIW_4U) != \
            machine_fingerprint(universal_machine(8))
        assert "ld=2" in machine_fingerprint(VLIW_4U)


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self):
        # An awkward float that must survive JSON exactly.
        result = _result(time=390814.5466726795, lengths=(6, 2, 14))
        payload = json.loads(json.dumps(result_to_payload(KEY_A, result)))
        assert result_from_payload(payload) == result

    def test_real_result_round_trip(self, tmp_path):
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        result = evaluate_cell(cell)
        store = ArtifactStore(str(tmp_path))
        key = cell_key(_builtin_text("compress"), cell)
        store.put(key, result)
        assert store.get(key) == result


class TestDurability:
    def test_process_restart_hit(self, tmp_path):
        """An entry written by one store instance is served by a fresh
        instance on the same directory (the disk is the cache)."""
        first = ArtifactStore(str(tmp_path))
        first.put(KEY_A, _result())
        first.close()
        second = ArtifactStore(str(tmp_path))
        assert second.get(KEY_A) == _result()
        assert second.hits == 1

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get(KEY_A) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_index_rebuild_after_index_loss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        store.close()
        os.unlink(store.index_path)
        rebuilt = ArtifactStore(str(tmp_path))
        assert len(rebuilt) == 1
        assert rebuilt.get(KEY_A) == _result()

    def test_index_corruption_is_tolerated(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        store.close()
        with open(store.index_path, "w") as handle:
            handle.write("{ not json")
        rebuilt = ArtifactStore(str(tmp_path))
        assert rebuilt.get(KEY_A) == _result()


class TestWriteBack:
    def test_pending_payload_is_read_before_sync(self, tmp_path):
        """A payload put is served to the store's own reads before it
        reaches the disk, and is on disk after close."""
        store = ArtifactStore(str(tmp_path))
        store.put_payload(KEY_A, {"value": 1})
        assert not os.path.exists(store._object_path(KEY_A))
        assert KEY_A in store and store.keys() == (KEY_A,)
        payload = store.get_payload(KEY_A)
        assert (payload["value"], payload["key"]) == (1, KEY_A)
        assert store.hits == 1
        store.close()
        assert os.path.exists(store._object_path(KEY_A))
        assert ArtifactStore(str(tmp_path)).get_payload(KEY_A) == payload

    def test_put_writes_pending_payloads(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_payload(KEY_A, {"value": 1})
        store.put(KEY_B, _result())
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.keys() == (KEY_A, KEY_B)
        assert reopened.get_payload(KEY_A)["value"] == 1

    def test_index_written_only_when_changed(self, tmp_path, monkeypatch):
        """A repeat grid whose probes all hit in memory writes neither
        objects nor the index."""
        cells = [GridCell("compress", "treegion", machine, "global_weight")
                 for machine in ("4U", "8U")]
        memo = RegionMemo()
        store = ArtifactStore(str(tmp_path))
        cold = evaluate_grid(cells, region_memo=memo, region_store=store)
        assert len(store) > 0
        writes = []
        monkeypatch.setattr(ArtifactStore, "_atomic_write",
                            lambda self, path, text: writes.append(path))
        assert evaluate_grid(cells, region_memo=memo,
                             region_store=store) == cold
        assert writes == []
        store.get_payload(store.keys()[0])  # a touch changes the index
        store.sync()
        assert writes == [store.index_path]


class TestEviction:
    def _sized_store(self, tmp_path, entries: int) -> ArtifactStore:
        """A store whose bound holds about ``entries`` result payloads."""
        size = len(json.dumps(result_to_payload(KEY_A, _result())))
        return ArtifactStore(str(tmp_path),
                             max_mb=(size * entries + size // 2) / 2**20)

    def test_lru_eviction_order(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(KEY_A, _result())
        store.put(KEY_B, _result())
        assert store.get(KEY_A) is not None  # A is now most recent
        store.put(KEY_C, _result())          # evicts B, not A
        assert store.evictions == 1
        assert KEY_B not in store
        assert store.get(KEY_A) is not None
        assert store.get(KEY_C) is not None

    def test_eviction_never_empties_the_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_mb=0.0)
        store.put(KEY_A, _result())
        assert KEY_A in store  # the newest entry always survives

    def test_eviction_counter_and_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            store = self._sized_store(tmp_path, 1)
            store.put(KEY_A, _result())
            store.put(KEY_B, _result())
        assert store.evictions == 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serve.store.evictions"] == 1
        assert snapshot["counters"]["serve.store.puts"] == 2


def _lru_victims(index, max_bytes):
    """The store's eviction rule, one victim at a time: while more than
    one entry is left and the sizes sum past the bound, drop the entry
    with the lowest clock (the first such in index order)."""
    index = dict(index)
    victims = []
    while len(index) > 1 and \
            sum(size for size, _ in index.values()) > max_bytes:
        victim = min(index, key=lambda k: index[k][1])
        victims.append(victim)
        del index[victim]
    return victims


class TestEvictionRule:
    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(st.tuples(st.integers(0, 400),
                                      st.integers(0, 12)), max_size=40),
           max_bytes=st.integers(0, 6000))
    def test_victims_follow_the_lru_rule(self, entries, max_bytes):
        with tempfile.TemporaryDirectory() as directory:
            store = ArtifactStore(directory)
            store.max_bytes = max_bytes
            store._index = {f"{i:064x}": entry
                            for i, entry in enumerate(entries)}
            expected = _lru_victims(store._index, max_bytes)
            dropped = []
            drop = store._drop
            store._drop = lambda key, counter=None: (
                dropped.append(key) or drop(key, counter))
            store._evict_to_fit()
        assert dropped == expected
        assert store.evictions == len(expected)
        assert set(store._index) == \
            {f"{i:064x}" for i in range(len(entries))} - set(expected)


class TestCorruption:
    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        with open(store._object_path(KEY_A), "w") as handle:
            handle.write("{ truncated")
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert store.get(KEY_A) is None
        assert store.corrupt == 1
        assert store.misses == 1
        # The bad file is gone; a re-put fully heals the entry.
        assert not os.path.exists(store._object_path(KEY_A))
        store.put(KEY_A, _result())
        assert store.get(KEY_A) == _result()
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.corrupt"] == 1

    def test_wrong_key_payload_is_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        # A payload whose restated key disagrees with its filename
        # (e.g. a file copied between shards) must not be served.
        payload = result_to_payload(KEY_B, _result(time=9.9))
        with open(store._object_path(KEY_A), "w") as handle:
            json.dump(payload, handle)
        assert store.get(KEY_A) is None
        assert store.corrupt == 1

    def test_wrong_schema_payload_is_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        payload = result_to_payload(KEY_A, _result())
        payload["schema"] = "repro-0.0.0/store-0"
        with open(store._object_path(KEY_A), "w") as handle:
            json.dump(payload, handle)
        assert store.get(KEY_A) is None
        assert store.corrupt == 1


class TestMalformedJson:
    """Valid JSON of the wrong shape is as corrupt as invalid JSON."""

    @pytest.mark.parametrize("text", ["[]", "7", '"text"', "null"])
    @pytest.mark.parametrize("read", ["get", "get_payload"])
    def test_non_object_payload_is_corrupt(self, tmp_path, read, text):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        with open(store._object_path(KEY_A), "w") as handle:
            handle.write(text)
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert getattr(store, read)(KEY_A) is None
        assert (store.corrupt, store.misses) == (1, 1)
        assert not os.path.exists(store._object_path(KEY_A))
        assert metrics.counters["serve.store.corrupt"] == 1

    def test_grid_over_non_object_region_objects(self, tmp_path):
        cells = [GridCell("compress", "treegion", "4U", "global_weight")]
        direct = evaluate_grid(cells, region_memo=False)
        evaluate_grid(cells, region_memo=RegionMemo(),
                      region_store=str(tmp_path))
        store = ArtifactStore(str(tmp_path))
        assert len(store) > 0
        for key in store.keys():
            with open(store._object_path(key), "w") as handle:
                handle.write("7")
        served = evaluate_grid(cells, region_memo=RegionMemo(),
                               region_store=str(tmp_path))
        assert served == direct

    @pytest.mark.parametrize("index", [
        {"clock": 1, "entries": []},
        {"clock": 1, "entries": {KEY_A: [10]}},
        {"clock": 1, "entries": {KEY_A: "10"}},
        {"clock": -1, "entries": {}},
        {"clock": 1e400, "entries": {}},
        {"clock": 1, "entries": {"../" + KEY_A: [10, 1]}},
        [],
        7,
    ])
    def test_malformed_index_is_rebuilt(self, tmp_path, index):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        with open(store.index_path, "w") as handle:
            json.dump(index, handle)
        rebuilt = ArtifactStore(str(tmp_path))
        assert rebuilt.keys() == (KEY_A,)
        assert rebuilt.get(KEY_A) == _result()


# ----------------------------------------------------------------------
# Fuzzing the trust boundary: whatever sits on disk, the store opens,
# reads return None or a validated value, and a region memo probe
# through the store answers what the direct pipeline answers.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)

_CASES = [(machine, heuristic) for machine in (VLIW_4U, VLIW_8U)
          for heuristic in HEURISTICS]

_REGION_CASE = []


def _region_case():
    """The paper example's region with the most exits, its liveness, its
    direct-route summary per (machine, heuristic) of ``_CASES``, the
    region memo's store key for its pack, the pack holding every case's
    entry, and the entry id of the first case (built once)."""
    if not _REGION_CASE:
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        region = max(form_treegions(fn.cfg), key=lambda r: len(r.exits()))
        direct = [
            _summary(schedule_region(region, machine,
                                     ScheduleOptions(heuristic=heuristic),
                                     liveness))
            for machine, heuristic in _CASES]
        with tempfile.TemporaryDirectory() as directory:
            store = ArtifactStore(directory)
            memo = RegionMemo(store=store)
            for machine, heuristic in _CASES:
                memo.schedule(region, machine,
                              ScheduleOptions(heuristic=heuristic), liveness)
            (key,) = store.keys()
            payload = store.get_payload(key)
        assert len(payload["entries"]) == len(_CASES)
        entry_id = region_entry_id(machine_fingerprint(_CASES[0][0]),
                                   _CASES[0][1])
        _REGION_CASE.append((region, liveness, direct, key, payload,
                             entry_id))
    return _REGION_CASE[0]


def _summary(schedule):
    return (schedule.weighted_time, schedule.length, schedule.copy_count,
            schedule.merged_count, schedule.speculated_count)


def _probe(store, case: int = 0):
    """A fresh region memo's summary of the region's ``case`` over
    ``store``, and the memo."""
    region, liveness, _, _, _, _ = _region_case()
    machine, heuristic = _CASES[case]
    memo = RegionMemo(store=store)
    served = memo.schedule(region, machine,
                           ScheduleOptions(heuristic=heuristic), liveness)
    return _summary(served), memo


def _assert_store_reads_hold(plant) -> None:
    """``plant(directory)`` writes files into a fresh store directory;
    each kind of read over what it wrote must keep the contract."""
    _, _, direct, key, _, _ = _region_case()
    for read in ("get", "get_payload", "memo"):
        with tempfile.TemporaryDirectory() as directory:
            os.makedirs(os.path.join(directory, "objects"))
            plant(directory)
            store = ArtifactStore(directory)
            if read == "get":
                result = store.get(key)
                assert result is None or isinstance(result, CellResult)
            elif read == "get_payload":
                payload = store.get_payload(key)
                assert payload is None or (
                    isinstance(payload, dict) and payload["key"] == key
                    and payload["schema"] == store_schema())
            else:
                assert _probe(store)[0] == direct[0]


def _object_planter(data: bytes):
    def plant(directory):
        key = _region_case()[3]
        path = os.path.join(directory, "objects", key[:2], f"{key}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
    return plant


def _stamped(value) -> bytes:
    """``value`` as an object file's text, key and schema stamped when it
    is an object."""
    if isinstance(value, dict):
        value = dict(value, key=_region_case()[3], schema=store_schema())
    return json.dumps(value).encode()


def _pack_with(entries) -> bytes:
    """The region's pack with ``entries`` in place of its entries."""
    return _stamped({"kind": "region-pack", "entries": entries})


def _valid_for(field, value, exits: int) -> bool:
    """Whether the pack entry reader must accept ``value`` in ``field``:
    a well-typed wrong figure is indistinguishable from a real result,
    so the fuzzer only plants values it must reject."""
    if field == "kind":
        return value == "region"
    if field == "exit_cycles":
        return (isinstance(value, list) and len(value) == exits
                and all(type(c) is int and c >= 0 for c in value))
    return type(value) is int and value >= 0


#: The record fields every heuristic-backend entry holds.
_ENTRY_FIELDS = tuple(name for name in RegionCounts._fields
                      if not name.startswith("exact_"))


def _valid_entry(value, exits: int) -> bool:
    """Whether ``value`` is an entry the pack reader must accept."""
    return isinstance(value, dict) and all(
        _valid_for(field, value.get(field), exits)
        for field in ("kind", "exit_cycles") + _ENTRY_FIELDS)


def _assert_pack_serves_nothing(data: bytes) -> None:
    """Over a pack object holding ``data``, a probe misses, answers what
    the direct route answers, and the store writes a pack holding the
    recomputed entry back on close."""
    _, _, direct, key, payload, entry_id = _region_case()
    with tempfile.TemporaryDirectory() as directory:
        _object_planter(data)(directory)
        store = ArtifactStore(directory)
        served, memo = _probe(store)
        assert served == direct[0]
        assert (memo.misses, memo.store_hits) == (1, 0)
        store.close()
        written = ArtifactStore(directory).get_payload(key)
        assert written["entries"][entry_id] == payload["entries"][entry_id]


class TestFuzzTrustBoundary:
    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_object_file_of_arbitrary_bytes(self, data):
        _assert_store_reads_hold(_object_planter(data))

    @settings(max_examples=40, deadline=None)
    @given(value=_JSON)
    def test_object_file_of_arbitrary_json(self, value):
        _assert_store_reads_hold(_object_planter(_stamped(value)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_region_payload_with_one_field_replaced(self, data):
        region, _, _, _, payload, entry_id = _region_case()
        entry = payload["entries"][entry_id]
        field = data.draw(st.sampled_from(sorted(entry)))
        value = data.draw(_JSON.filter(
            lambda v: not _valid_for(field, v, len(region.exits()))))
        planted = dict(payload["entries"])
        planted[entry_id] = dict(entry, **{field: value})
        _assert_store_reads_hold(_object_planter(_pack_with(planted)))

    @settings(max_examples=40, deadline=None)
    @given(value=_JSON)
    def test_pack_of_arbitrary_json(self, value):
        _assert_pack_serves_nothing(_stamped(value))

    @settings(max_examples=40, deadline=None)
    @given(value=_JSON)
    def test_pack_entries_of_arbitrary_json(self, value):
        _assert_pack_serves_nothing(_pack_with(value))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_pack_entry_of_arbitrary_json(self, data):
        """A bad entry among valid ones is one miss, recomputed and
        written back; the valid entries still hit."""
        region, _, direct, key, payload, _ = _region_case()
        exits = len(region.exits())
        case = data.draw(st.integers(0, len(_CASES) - 1))
        machine, heuristic = _CASES[case]
        bad_id = region_entry_id(machine_fingerprint(machine), heuristic)
        value = data.draw(_JSON.filter(lambda v: not _valid_entry(v, exits)))
        with tempfile.TemporaryDirectory() as directory:
            _object_planter(_pack_with(
                dict(payload["entries"], **{bad_id: value})))(directory)
            store = ArtifactStore(directory)
            for index in range(len(_CASES)):
                served, memo = _probe(store, index)
                assert served == direct[index]
                assert (memo.misses, memo.store_hits) == \
                    ((1, 0) if index == case else (0, 1))
            store.close()
            written = ArtifactStore(directory).get_payload(key)
        assert written["entries"] == payload["entries"]

    @settings(max_examples=60, deadline=None)
    @given(index=st.binary(max_size=64) | st.one_of(
        _JSON,
        st.fixed_dictionaries({
            "clock": st.integers(min_value=-1, max_value=3) | _JSON,
            "entries": _JSON | st.dictionaries(st.text(max_size=70),
                                               _JSON, max_size=3),
        }),
    ).map(lambda v: json.dumps(v).encode()))
    def test_index_of_arbitrary_content(self, index):
        with tempfile.TemporaryDirectory() as directory:
            store = ArtifactStore(directory)
            store.put(KEY_A, _result())
            with open(store.index_path, "wb") as handle:
                handle.write(index)
            reopened = ArtifactStore(directory)
            assert reopened.get(KEY_A) == _result()
            reopened.put(KEY_B, _result())
            assert reopened.get(KEY_B) == _result()
            reopened.close()


def _hammer_writes(directory: str, time_value: float, rounds: int) -> None:
    store = ArtifactStore(directory)
    for _ in range(rounds):
        store.put(KEY_A, _result(time=time_value))


class TestConcurrency:
    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        """Two processes hammering one key: every read is a valid
        payload from one writer or the other (atomic rename), and the
        final state is the last writer's."""
        directory = str(tmp_path)
        writers = [
            multiprocessing.Process(
                target=_hammer_writes, args=(directory, float(value), 40),
            )
            for value in (1.0, 2.0)
        ]
        for proc in writers:
            proc.start()
        reader = ArtifactStore(directory)
        for _ in range(200):
            result = reader.get(KEY_A)
            if result is not None:
                assert result.time in (1.0, 2.0)  # never a torn mix
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert reader.corrupt == 0
        final = ArtifactStore(directory).get(KEY_A)
        assert final is not None and final.time in (1.0, 2.0)


class TestPackWriters:
    def test_two_handles_keep_each_others_pack_entries(self, tmp_path):
        """Two handles on one directory read one (absent) pack, each
        put a different entry and sync in turn: the later sync merges
        with the pack on disk, so both entries survive; where both hold
        one entry, the later writer's wins."""
        first, second = (ArtifactStore(str(tmp_path)) for _ in range(2))
        for store in (first, second):
            assert store.get_payload(KEY_A) is None
        first.put_payload(KEY_A, region_pack({"x": 1, "both": "first"}))
        second.put_payload(KEY_A, region_pack({"y": 2, "both": "second"}))
        first.sync()
        second.sync()
        written = ArtifactStore(str(tmp_path)).get_payload(KEY_A)
        assert written["entries"] == {"x": 1, "y": 2, "both": "second"}

    def test_pending_pack_replaces_an_object_that_is_not_a_pack(
            self, tmp_path):
        first, second = (ArtifactStore(str(tmp_path)) for _ in range(2))
        first.put_payload(KEY_A, {"value": 1})
        first.sync()
        second.put_payload(KEY_A, region_pack({"y": 2}))
        second.sync()
        written = ArtifactStore(str(tmp_path)).get_payload(KEY_A)
        assert pack_entries(written) == {"y": 2} and "value" not in written

    def test_pool_task_syncs_when_it_raises(self, tmp_path, monkeypatch):
        """A pool task whose group raises still writes what its memo
        put: store puts are write-back, and the worker syncs in a
        finally."""
        from repro.evaluation import engine
        from repro.schedule import memo as memo_module

        def failing_group(program, scheme, cells, lo, hi, tracer, memo):
            memo.store.put_payload(KEY_A, region_pack({"x": 1}))
            raise RuntimeError("task failed")

        monkeypatch.setattr(engine, "_evaluate_group", failing_group)
        monkeypatch.setattr(engine, "_worker_stores", {})
        monkeypatch.setattr(memo_module, "global_memo", RegionMemo)
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        task = ("compress", "treegion", ((0, cell),), 0, 1, None,
                (str(tmp_path), 16.0), None)
        with pytest.raises(RuntimeError):
            engine._run_task(task)
        written = ArtifactStore(str(tmp_path)).get_payload(KEY_A)
        assert pack_entries(written) == {"x": 1}


class TestHitMissMetrics:
    def test_counters_flow_to_active_registry(self, tmp_path):
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path))
        with metrics_scope(metrics):
            store.get(KEY_A)
            store.put(KEY_A, _result())
            store.get(KEY_A)
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.misses"] == 1
        assert counters["serve.store.hits"] == 1
        assert store.stats()["entries"] == 1
