"""The persistent artifact store: keys, durability, eviction, recovery.

The store's contract is "caching can cost time, never wrong answers":
a stored result must deserialize bit-identical to the computed one, a
damaged record must degrade to a miss (counted corrupt, never served),
concurrent appenders must never make a reader serve a torn record, and
compaction must keep the most recently used keys.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import zlib

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
from repro.serve.store import (
    SEGMENT_NAME,
    _HEADER,
    _MAGIC,
    _frame,
    pack_entries,
    region_entry_id,
    region_pack,
)
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
KEY_D = "d" * 64
KEY_E = "e" * 64


def _segment(directory) -> str:
    return os.path.join(str(directory), SEGMENT_NAME)


def _append(directory, data: bytes) -> None:
    """Append raw bytes to a store directory's segment."""
    os.makedirs(str(directory), exist_ok=True)
    with open(_segment(directory), "ab") as handle:
        handle.write(data)


def _record(key: str, payload) -> bytes:
    """A well-framed record of ``payload``'s JSON under ``key``."""
    return _frame(key, json.dumps(payload).encode())


def _record_size() -> int:
    """The bytes one :func:`_result` record takes in the segment."""
    return len(_record(KEY_A, result_to_payload(KEY_A, _result())))


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
        key = cell_key(_builtin_text("compress"), cell)
        with ArtifactStore(str(tmp_path)) as store:
            store.put(key, result)
            assert store.get(key) == result


class TestDurability:
    def test_process_restart_hit(self, tmp_path):
        """An entry written by one store instance is served by a fresh
        instance on the same directory (the disk is the cache)."""
        with ArtifactStore(str(tmp_path)) as first:
            first.put(KEY_A, _result())
        with ArtifactStore(str(tmp_path)) as second:
            assert second.get(KEY_A) == _result()
        assert second.hits == 1

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        with ArtifactStore(str(tmp_path)) as store:
            assert store.get(KEY_A) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_index_rebuild_after_index_loss(self, tmp_path):
        """The index lives in memory only and dies with its handle: a
        new handle rebuilds it from the segment, the one file a store
        directory holds."""
        with ArtifactStore(str(tmp_path)) as store:
            store.put(KEY_A, _result())
            store.put(KEY_B, _result(time=2.0))
        assert os.listdir(tmp_path) == [SEGMENT_NAME]
        with ArtifactStore(str(tmp_path)) as rebuilt:
            assert len(rebuilt) == 2
            assert rebuilt.get(KEY_A) == _result()
            assert rebuilt.get(KEY_B) == _result(time=2.0)

    def test_index_corruption_is_tolerated(self, tmp_path):
        """A half-written record between whole ones costs the index only
        that record: it is counted corrupt and the scan goes on."""
        with ArtifactStore(str(tmp_path)) as store:
            store.put(KEY_A, _result())
        torn = _record(KEY_B, result_to_payload(KEY_B, _result()))
        _append(tmp_path, torn[:len(torn) // 2])
        _append(tmp_path, _record(KEY_C, result_to_payload(KEY_C,
                                                           _result())))
        with ArtifactStore(str(tmp_path)) as rebuilt:
            assert rebuilt.keys() == (KEY_A, KEY_C)
            assert rebuilt.get(KEY_A) == _result()
            assert rebuilt.get(KEY_B) is None
            assert rebuilt.get(KEY_C) == _result()
        assert rebuilt.corrupt == 1


def _parse(data: bytes):
    """The (key, payload) of each record in ``data``, read without the
    store."""
    records, pos = [], 0
    while pos < len(data):
        _, _, length = _HEADER.unpack_from(data, pos)
        start = pos + _HEADER.size
        key, body = data[start:start + length].split(b"\n", 1)
        records.append((key.decode(), json.loads(body)))
        pos = start + length
    return records


class TestWriteBack:
    def test_pending_payload_is_read_before_sync(self, tmp_path):
        """A payload put is served to the store's own reads before it
        reaches the disk, and is in the segment after close."""
        store = ArtifactStore(str(tmp_path))
        store.put_payload(KEY_A, {"value": 1})
        assert os.path.getsize(_segment(tmp_path)) == 0
        assert KEY_A in store and store.keys() == (KEY_A,)
        payload = store.get_payload(KEY_A)
        assert (payload["value"], payload["key"]) == (1, KEY_A)
        assert store.hits == 1
        store.close()
        assert os.path.getsize(_segment(tmp_path)) > 0
        with ArtifactStore(str(tmp_path)) as reopened:
            assert reopened.get_payload(KEY_A) == payload

    def test_put_writes_pending_payloads(self, tmp_path):
        with ArtifactStore(str(tmp_path)) as store:
            store.put_payload(KEY_A, {"value": 1})
            store.put(KEY_B, _result())
            with ArtifactStore(str(tmp_path)) as reopened:
                assert reopened.keys() == (KEY_A, KEY_B)
                assert reopened.get_payload(KEY_A)["value"] == 1

    def test_sync_appends_one_batch(self, tmp_path, monkeypatch):
        """A sync is one write: one record per pack, holding only the
        entries put since the last sync, and one per other payload."""
        store = ArtifactStore(str(tmp_path))
        for entry in ("x", "y"):
            store.put_payload(KEY_A, region_pack({entry: 1}))
        store.put_payload(KEY_B, {"value": 2})
        writes = []
        write = os.write
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", lambda fd, data: (
                writes.append(data), write(fd, data))[1])
            store.sync()
            store.put_payload(KEY_A, region_pack({"z": 3}))
            store.sync()
            store.sync()
        store.close()
        assert [[(key, pack_entries(payload) or payload["value"])
                 for key, payload in _parse(data)] for data in writes] == [
            [(KEY_A, {"x": 1, "y": 1}), (KEY_B, 2)],
            [(KEY_A, {"z": 3})],
        ]
        with ArtifactStore(str(tmp_path)) as reopened:
            assert reopened.get_payload(KEY_A)["entries"] == \
                {"x": 1, "y": 1, "z": 3}

    def test_segment_appended_only_when_changed(self, tmp_path):
        """A repeat grid whose probes all hit in memory appends nothing,
        and neither does a read."""
        cells = [GridCell("compress", "treegion", machine, "global_weight")
                 for machine in ("4U", "8U")]
        memo = RegionMemo()
        with ArtifactStore(str(tmp_path)) as store:
            cold = evaluate_grid(cells, region_memo=memo,
                                 region_store=store)
            assert len(store) > 0
            size = os.path.getsize(_segment(tmp_path))
            assert evaluate_grid(cells, region_memo=memo,
                                 region_store=store) == cold
            store.get_payload(store.keys()[0])
            store.sync()
            assert os.path.getsize(_segment(tmp_path)) == size


class TestEviction:
    def _sized_store(self, tmp_path, records: float) -> ArtifactStore:
        """A store whose bound is ``records`` result records."""
        return ArtifactStore(str(tmp_path),
                             max_mb=records * _record_size() / 2**20)

    def test_lru_eviction_order(self, tmp_path):
        """Past the bound, compaction keeps the most recently used keys
        that fit in half of it and evicts the rest."""
        with self._sized_store(tmp_path, 4.5) as store:
            for key in (KEY_A, KEY_B, KEY_C, KEY_D):
                store.put(key, _result())
            assert store.evictions == 0
            assert store.get(KEY_A) is not None  # A is now most recent
            store.put(KEY_E, _result())          # keeps E and A
            assert store.evictions == 3
            for key in (KEY_B, KEY_C, KEY_D):
                assert key not in store
            assert store.get(KEY_A) is not None
            assert store.get(KEY_E) is not None
        assert os.path.getsize(_segment(tmp_path)) == 2 * _record_size()

    def test_eviction_never_empties_the_store(self, tmp_path):
        with ArtifactStore(str(tmp_path), max_mb=0.0) as store:
            store.put(KEY_A, _result())
            assert KEY_A in store  # the newest entry always survives
            store.put(KEY_B, _result())
            assert KEY_B in store and KEY_A not in store

    def test_eviction_counter_and_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            with self._sized_store(tmp_path, 1.5) as store:
                store.put(KEY_A, _result())
                store.put(KEY_B, _result())
        assert store.evictions == 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serve.store.evictions"] == 1
        assert snapshot["counters"]["serve.store.puts"] == 2


def _lru_survivors(sizes, touches, max_bytes):
    """The store's compaction rule: keys in recency order (put order,
    then each touched key moved to the end); keep the most recent ones
    while they fit in half the bound, and at least one."""
    order = list(range(len(sizes)))
    for key in touches:
        order.remove(key)
        order.append(key)
    kept, total = set(), 0
    for key in reversed(order):
        if kept and total + sizes[key] > max_bytes // 2:
            break
        kept.add(key)
        total += sizes[key]
    return kept


class TestEvictionRule:
    @settings(max_examples=60, deadline=None)
    @given(pads=st.lists(st.integers(0, 400), min_size=1, max_size=20),
           touches=st.lists(st.integers(0, 19), max_size=20),
           max_bytes=st.integers(0, 6000))
    def test_victims_follow_the_lru_rule(self, pads, touches, max_bytes):
        keys = [f"{i:064x}" for i in range(len(pads))]
        touches = [index for index in touches if index < len(pads)]
        with tempfile.TemporaryDirectory() as directory:
            with ArtifactStore(directory) as store:
                for key, pad in zip(keys, pads):
                    store.put_payload(key, {"pad": "x" * pad})
                store.sync()
                for index in touches:
                    assert store.get_payload(keys[index]) is not None
                sizes = [store._index[key][0][1] for key in keys]
                store.max_bytes = max_bytes
                store.sync()
                survivors = set(range(len(keys)))
                if sum(sizes) > max_bytes:
                    survivors = _lru_survivors(sizes, touches, max_bytes)
                assert store.keys() == tuple(
                    sorted(keys[index] for index in survivors))
                assert store.evictions == len(keys) - len(survivors)
                for index in survivors:
                    assert store.get_payload(keys[index])["pad"] == \
                        "x" * pads[index]


def _flip(path: str, offset: int) -> None:
    """Flip the low bit of one byte of a file in place."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 1]))


class TestCorruption:
    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        """A record whose bytes changed after it was indexed fails its
        checksum on read: a miss, counted corrupt, never served; a
        re-put heals the key."""
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        _flip(_segment(tmp_path), _record_size() - 10)
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert store.get(KEY_A) is None
        assert store.corrupt == 1
        assert store.misses == 1
        assert KEY_A not in store
        store.put(KEY_A, _result())
        assert store.get(KEY_A) == _result()
        store.close()
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.corrupt"] == 1
        # A new handle skips the damaged record and serves the new one.
        with ArtifactStore(str(tmp_path)) as reopened:
            assert reopened.get(KEY_A) == _result()
        assert reopened.corrupt == 1

    def test_wrong_key_payload_is_corrupt(self, tmp_path):
        # A payload whose restated key disagrees with its record's key
        # (e.g. a record copied between shards) must not be served.
        _append(tmp_path, _record(KEY_A, result_to_payload(
            KEY_B, _result(time=9.9))))
        with ArtifactStore(str(tmp_path)) as store:
            assert store.get(KEY_A) is None
        assert store.corrupt == 1

    def test_wrong_schema_payload_is_corrupt(self, tmp_path):
        payload = result_to_payload(KEY_A, _result())
        payload["schema"] = "repro-0.0.0/store-0"
        _append(tmp_path, _record(KEY_A, payload))
        with ArtifactStore(str(tmp_path)) as store:
            assert store.get(KEY_A) is None
        assert store.corrupt == 1


def _with_length(record: bytes, length: int) -> bytes:
    """``record`` with another data length in its header."""
    magic, crc, _ = _HEADER.unpack_from(record)
    return _HEADER.pack(magic, crc, length) + record[_HEADER.size:]


def _reframed(data: bytes) -> bytes:
    """``data`` under a header whose checksum and length match it."""
    return _HEADER.pack(_MAGIC, zlib.crc32(data), len(data)) + data


#: Ways one record can be malformed: (what, damage to its bytes).
_MALFORMED = [
    ("torn header", lambda record: record[:_HEADER.size - 2]),
    ("torn data", lambda record: record[:-5]),
    ("wrong marker", lambda record: b"\x00" + record[1:]),
    ("length too short", lambda record: _with_length(
        record, len(record) - _HEADER.size - 1)),
    ("length past the end", lambda record: _with_length(record, 1 << 30)),
    ("wrong checksum", lambda record: record[:4] + bytes(4) + record[8:]),
    ("flipped data byte", lambda record: record[:-2]
     + bytes([record[-2] ^ 1]) + record[-1:]),
    ("no newline after the key", lambda record: _reframed(
        record[_HEADER.size:].replace(b"\n", b"", 1))),
    ("a key that is not ASCII", lambda record: _reframed(
        b"\xff" + record[_HEADER.size + 1:])),
]


class TestMalformedJson:
    """Valid JSON of the wrong shape is as corrupt as invalid JSON."""

    @pytest.mark.parametrize("text", ["[]", "7", '"text"', "null"])
    @pytest.mark.parametrize("read", ["get", "get_payload"])
    def test_non_object_payload_is_corrupt(self, tmp_path, read, text):
        _append(tmp_path, _frame(KEY_A, text.encode()))
        metrics = MetricsRegistry()
        with ArtifactStore(str(tmp_path)) as store:
            with metrics_scope(metrics):
                assert getattr(store, read)(KEY_A) is None
            assert KEY_A not in store.keys()
        assert (store.corrupt, store.misses) == (1, 1)
        assert metrics.counters["serve.store.corrupt"] == 1

    def test_grid_over_non_object_region_objects(self, tmp_path):
        cells = [GridCell("compress", "treegion", "4U", "global_weight")]
        direct = evaluate_grid(cells, region_memo=False)
        evaluate_grid(cells, region_memo=RegionMemo(),
                      region_store=str(tmp_path))
        with ArtifactStore(str(tmp_path)) as store:
            keys = store.keys()
        assert keys
        with open(_segment(tmp_path), "wb") as handle:
            for key in keys:
                handle.write(_frame(key, b"7"))
        memo = RegionMemo()
        served = evaluate_grid(cells, region_memo=memo,
                               region_store=str(tmp_path))
        assert served == direct
        assert memo.stats()["store_hits"] == 0

    @pytest.mark.parametrize("index", _MALFORMED)
    def test_malformed_index_is_rebuilt(self, tmp_path, index):
        """The index a store builds at open skips a malformed record
        (``index`` names one way to malform it) and keeps the records
        around it."""
        _, damage = index
        _append(tmp_path, _record(KEY_A, result_to_payload(KEY_A,
                                                           _result())))
        _append(tmp_path, damage(_record(KEY_B, result_to_payload(
            KEY_B, _result(time=9.9)))))
        _append(tmp_path, _record(KEY_C, result_to_payload(KEY_C,
                                                           _result())))
        with ArtifactStore(str(tmp_path)) as rebuilt:
            assert rebuilt.keys() == (KEY_A, KEY_C)
            assert rebuilt.get(KEY_A) == _result()
            assert rebuilt.get(KEY_B) is None
            assert rebuilt.get(KEY_C) == _result()
        assert rebuilt.corrupt == 1


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
            with ArtifactStore(directory) as store:
                memo = RegionMemo(store=store)
                for machine, heuristic in _CASES:
                    memo.schedule(region, machine,
                                  ScheduleOptions(heuristic=heuristic),
                                  liveness)
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
    """``plant(directory)`` writes records into a fresh store directory;
    each kind of read over what it wrote must keep the contract."""
    _, _, direct, key, _, _ = _region_case()
    for read in ("get", "get_payload", "memo"):
        with tempfile.TemporaryDirectory() as directory:
            plant(directory)
            with ArtifactStore(directory) as store:
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
    """Plants one well-framed record of ``data`` under the region's
    pack key."""
    def plant(directory):
        _append(directory, _frame(_region_case()[3], data))
    return plant


def _stamped(value) -> bytes:
    """``value`` as a record's JSON, key and schema stamped when it is
    an object."""
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
    """Over a pack record holding ``data``, a probe misses, answers what
    the direct route answers, and the store appends the recomputed
    entry to the pack on close."""
    _, _, direct, key, payload, entry_id = _region_case()
    with tempfile.TemporaryDirectory() as directory:
        _object_planter(data)(directory)
        with ArtifactStore(directory) as store:
            served, memo = _probe(store)
        assert served == direct[0]
        assert (memo.misses, memo.store_hits) == (1, 0)
        with ArtifactStore(directory) as reopened:
            written = reopened.get_payload(key)
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
        appended; the valid entries still hit."""
        region, _, direct, key, payload, _ = _region_case()
        exits = len(region.exits())
        case = data.draw(st.integers(0, len(_CASES) - 1))
        machine, heuristic = _CASES[case]
        bad_id = region_entry_id(machine_fingerprint(machine), heuristic)
        value = data.draw(_JSON.filter(lambda v: not _valid_entry(v, exits)))
        with tempfile.TemporaryDirectory() as directory:
            _object_planter(_pack_with(
                dict(payload["entries"], **{bad_id: value})))(directory)
            with ArtifactStore(directory) as store:
                for index in range(len(_CASES)):
                    served, memo = _probe(store, index)
                    assert served == direct[index]
                    assert (memo.misses, memo.store_hits) == \
                        ((1, 0) if index == case else (0, 1))
            with ArtifactStore(directory) as reopened:
                written = reopened.get_payload(key)
        assert written["entries"] == payload["entries"]

    @settings(max_examples=60, deadline=None)
    @given(index=st.binary(max_size=64) | st.one_of(
        _JSON,
        st.fixed_dictionaries({
            "clock": st.integers(min_value=-1, max_value=3) | _JSON,
            "entries": _JSON | st.dictionaries(st.text(max_size=70),
                                               _JSON, max_size=3),
        }),
    ).map(lambda v: json.dumps(v).encode()) | st.builds(
        lambda head, tail: head + tail,
        st.sampled_from([_HEADER.pack(_MAGIC, 0, 1 << 20),
                         _frame(KEY_B, b"{}")[:20]]),
        st.binary(max_size=16)))
    def test_index_of_arbitrary_content(self, index):
        """Whatever bytes follow the records, the index built over them
        serves the records before them, and a record appended after them
        is found again by the next handle."""
        with tempfile.TemporaryDirectory() as directory:
            with ArtifactStore(directory) as store:
                store.put(KEY_A, _result())
            _append(directory, index)
            with ArtifactStore(directory) as reopened:
                assert reopened.get(KEY_A) == _result()
                reopened.put(KEY_B, _result())
                assert reopened.get(KEY_B) == _result()
            with ArtifactStore(directory) as third:
                assert third.get(KEY_A) == _result()
                assert third.get(KEY_B) == _result()


def _segment_of(values):
    """One record per value, each under its own key: (keys, records)."""
    keys = [f"{index:064x}" for index in range(len(values))]
    records = [_record(key, {"value": value, "key": key,
                             "schema": store_schema()})
               for key, value in zip(keys, values)]
    return keys, records


class TestSegmentFuzz:
    """One damaged record among good ones: the damaged one is never
    served (counted corrupt once something follows it), every other
    record is served intact."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_one_damaged_record(self, data):
        values = data.draw(st.lists(st.integers(), min_size=1, max_size=6,
                                    unique=True))
        keys, records = _segment_of(values)
        target = data.draw(st.integers(0, len(records) - 1))
        kind = data.draw(st.sampled_from([
            "torn tail", "flipped bit", "bad length", "bad checksum",
            "duplicate", "schema mismatch"]))
        record = records[target]
        _, crc, length = _HEADER.unpack_from(record)
        if kind == "torn tail":
            target = len(records) - 1
            record = records[target]
            cut = data.draw(st.integers(1, len(record) - 1))
            records[target] = record[:cut]
        elif kind == "flipped bit":
            at = data.draw(st.integers(0, len(record) - 1))
            bit = data.draw(st.integers(0, 7))
            records[target] = record[:at] + bytes([record[at] ^ 1 << bit]) \
                + record[at + 1:]
        elif kind == "bad length":
            records[target] = _with_length(record, data.draw(
                st.integers(0, (1 << 32) - 1).filter(lambda n: n != length)))
        elif kind == "bad checksum":
            bad = data.draw(st.integers(0, (1 << 32) - 1).filter(
                lambda n: n != crc))
            records[target] = _HEADER.pack(_MAGIC, bad, length) + \
                record[_HEADER.size:]
        elif kind == "duplicate":
            records.append(record)
        else:
            records[target] = _record(keys[target], {
                "value": values[target], "key": keys[target],
                "schema": "repro-0.0.0/store-0"})
        with tempfile.TemporaryDirectory() as directory:
            _append(directory, b"".join(records))
            with ArtifactStore(directory) as store:
                for index, key in enumerate(keys):
                    payload = store.get_payload(key)
                    if index != target or kind == "duplicate":
                        assert payload["value"] == values[index]
                    else:
                        assert payload is None
                # A record appended after the damage is found, and the
                # damage is counted by then.
                store.put_payload(KEY_A, {"value": "after"})
            with ArtifactStore(directory) as reopened:
                assert reopened.get_payload(KEY_A)["value"] == "after"
                for index, key in enumerate(keys):
                    payload = reopened.get_payload(key)
                    assert payload is None or \
                        payload["value"] == values[index]
        expect_corrupt = kind != "duplicate"
        assert (reopened.corrupt >= 1) == expect_corrupt


def _hammer_writes(directory: str, time_value: float, rounds: int) -> None:
    with ArtifactStore(directory) as store:
        for _ in range(rounds):
            store.put(KEY_A, _result(time=time_value))


def _append_many(directory: str, writer: int, count: int) -> None:
    with ArtifactStore(directory) as store:
        for index in range(count):
            store.put(f"{writer:032x}{index:032x}",
                      _result(time=float(writer), lengths=(index,)))


class TestConcurrency:
    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        """Two processes hammering one key: every read is a valid
        payload from one writer or the other, and the final state is
        one writer's."""
        directory = str(tmp_path)
        writers = [
            multiprocessing.Process(
                target=_hammer_writes, args=(directory, float(value), 40),
            )
            for value in (1.0, 2.0)
        ]
        for proc in writers:
            proc.start()
        with ArtifactStore(directory) as reader:
            for _ in range(200):
                result = reader.get(KEY_A)
                if result is not None:
                    assert result.time in (1.0, 2.0)  # never a torn mix
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert reader.corrupt == 0
        with ArtifactStore(directory) as final:
            result = final.get(KEY_A)
        assert result is not None and result.time in (1.0, 2.0)

    def test_two_processes_append_at_once(self, tmp_path):
        """Two processes appending distinct keys to one segment at once,
        while a third handle reads: every record is read back intact or
        counted corrupt, never served torn."""
        directory = str(tmp_path)
        count = 60
        writers = [multiprocessing.Process(target=_append_many,
                                           args=(directory, writer, count))
                   for writer in (1, 2)]
        for proc in writers:
            proc.start()
        expected = {f"{writer:032x}{index:032x}":
                    _result(time=float(writer), lengths=(index,))
                    for writer in (1, 2) for index in range(count)}
        with ArtifactStore(directory) as reader:
            for key in list(expected) * 2:
                result = reader.get(key)
                assert result is None or result == expected[key]
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        with ArtifactStore(directory) as final:
            served = {key: final.get(key) for key in expected}
        assert all(result == expected[key] or
                   (result is None and final.corrupt > 0)
                   for key, result in served.items())

    def test_compaction_racing_an_append_costs_a_recompute(self, tmp_path):
        """An append that lands in a segment another handle just
        replaced is lost: a fresh memo recomputes those regions and
        answers what the direct route answers."""
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        regions = form_treegions(fn.cfg)
        options = ScheduleOptions(heuristic="global_weight")
        direct = [_summary(schedule_region(region, VLIW_4U, options,
                                           liveness))
                  for region in regions]
        directory = str(tmp_path)
        with ArtifactStore(directory) as late, \
                ArtifactStore(directory, max_mb=0.0) as compacting:
            memo = RegionMemo(store=late)
            for region in regions:
                memo.schedule(region, VLIW_4U, options, liveness)
            # The race: ``late`` checked the segment just before
            # ``compacting`` renamed a new one over it.
            late._refresh = lambda: None
            compacting.put(KEY_A, _result())
            late.sync()
        with ArtifactStore(directory) as store:
            assert store.keys() == (KEY_A,)
            memo = RegionMemo(store=store)
            served = [_summary(memo.schedule(region, VLIW_4U, options,
                                             liveness))
                      for region in regions]
        assert served == direct
        assert memo.stats()["misses"] == len(regions)

    def test_a_handle_appends_to_a_segment_compacted_under_it(
            self, tmp_path):
        """Outside that race, an appender notices the replaced segment
        and appends to the new one."""
        directory = str(tmp_path)
        with ArtifactStore(directory) as late, \
                ArtifactStore(directory, max_mb=0.0) as compacting:
            late.put(KEY_B, _result())
            compacting.put(KEY_A, _result())
            late.put(KEY_C, _result())
            assert KEY_B not in late
            with ArtifactStore(directory) as store:
                assert store.keys() == (KEY_A, KEY_C)


class TestPackWriters:
    def test_two_handles_keep_each_others_pack_entries(self, tmp_path):
        """Two handles on one directory read one (absent) pack, each
        put a different entry and sync in turn: the pack is the union
        of both records, and where both hold one entry the later
        record's wins."""
        with ArtifactStore(str(tmp_path)) as first, \
                ArtifactStore(str(tmp_path)) as second:
            for store in (first, second):
                assert store.get_payload(KEY_A) is None
            first.put_payload(KEY_A, region_pack({"x": 1, "both": "first"}))
            second.put_payload(KEY_A,
                               region_pack({"y": 2, "both": "second"}))
            first.sync()
            second.sync()
        with ArtifactStore(str(tmp_path)) as reopened:
            written = reopened.get_payload(KEY_A)
        assert written["entries"] == {"x": 1, "y": 2, "both": "second"}

    def test_pending_pack_replaces_an_object_that_is_not_a_pack(
            self, tmp_path):
        with ArtifactStore(str(tmp_path)) as first, \
                ArtifactStore(str(tmp_path)) as second:
            first.put_payload(KEY_A, {"value": 1})
            first.sync()
            second.put_payload(KEY_A, region_pack({"y": 2}))
            second.sync()
        with ArtifactStore(str(tmp_path)) as reopened:
            written = reopened.get_payload(KEY_A)
        assert pack_entries(written) == {"y": 2} and "value" not in written

    def test_pool_task_syncs_when_it_raises(self, tmp_path, monkeypatch):
        """A pool task whose group raises still writes what its memo
        put: store puts are write-back, and the worker syncs in a
        finally."""
        from repro.evaluation import engine
        from repro.schedule import memo as memo_module

        def failing_group(group, cells, tracer, memo):
            memo.store.put_payload(KEY_A, region_pack({"x": 1}))
            raise RuntimeError("task failed")

        stores = {}
        monkeypatch.setattr(engine, "_evaluate_group", failing_group)
        monkeypatch.setattr(engine, "_worker_stores", stores)
        monkeypatch.setattr(memo_module, "global_memo", RegionMemo)
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        task = ("compress", "treegion", ((0, cell),), None,
                (str(tmp_path), 16.0), None)
        with pytest.raises(RuntimeError):
            engine._run_task(task)
        with ArtifactStore(str(tmp_path)) as reopened:
            written = reopened.get_payload(KEY_A)
        for store in stores.values():
            store.close()
        assert pack_entries(written) == {"x": 1}


class TestHitMissMetrics:
    def test_counters_flow_to_active_registry(self, tmp_path):
        metrics = MetricsRegistry()
        with ArtifactStore(str(tmp_path)) as store:
            with metrics_scope(metrics):
                store.get(KEY_A)
                store.put(KEY_A, _result())
                store.get(KEY_A)
            assert store.stats()["entries"] == 1
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.misses"] == 1
        assert counters["serve.store.hits"] == 1


class TestLostDirectory:
    def test_a_store_whose_directory_vanished_starts_over(self, tmp_path):
        """Removing a store's directory under an open handle costs its
        entries, never an error: the next read misses and the next sync
        writes a new segment."""
        directory = tmp_path / "store"
        with ArtifactStore(str(directory)) as store:
            store.put(KEY_A, _result())
            os.unlink(_segment(directory))
            os.rmdir(directory)
            assert store.get(KEY_B) is None
            store.put(KEY_B, _result())
            assert store.get(KEY_B) == _result()
        with ArtifactStore(str(directory)) as reopened:
            assert reopened.keys() == (KEY_B,)
