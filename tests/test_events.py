"""The fleet event log: lifecycle instants through one span writer.

``--events-log`` is a :class:`~repro.obs.tracer.SpanWriter` that keeps
instants only and rotates by size.  Rotation keeps every retained file
intact JSONL and :func:`~repro.obs.tracer.read_events` replays backups
oldest-first; the fleet emits the lifecycle instants DESIGN.md §13
lists (shard start/kill/restart, request retries, fleet close) without
ever letting a logging failure into the serving path.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    SpanWriter,
    Tracer,
    merge_traces,
    read_events,
    trace_file,
)

from repro.serve.frontend import FrontendServer
from repro.serve.soak import run_soak

from tests.test_fleet import _fast_fleet, _grid, _wait_for


class FakeClock:
    def __init__(self):
        self.now = 50.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _log(path, **kwargs) -> Tracer:
    return Tracer(FakeClock(), writers=(
        SpanWriter(str(path), instants_only=True, **kwargs),))


class TestEventLog:
    def test_emit_appends_flushed_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = _log(path)
        log.event("shard.start", shard=0, generation=0)
        with log.span("serve.batch"):  # spans stay out of the log
            log.event("hot.evict", evicted=3)
        # Records are readable before close — every write flushes.
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        log.close()
        assert [r["name"] for r in rows] == ["shard.start", "hot.evict"]
        assert all(r["kind"] == "event" and r["dur"] == 0 for r in rows)
        assert rows[0]["args"] == {"shard": 0, "generation": 0}
        assert rows[0]["start"] == 51.0
        assert all("pid" in r for r in rows)

    def test_unserializable_fields_degrade_not_raise(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = _log(path)
        # default=str covers most objects; tuple dict keys defeat even
        # that, and the log must still record the event name.
        log.event("weird", payload={(1, 2): "x"})
        log.close()
        (row,) = read_events(str(path))
        assert row.name == "weird"
        assert row.args == {"error": "unserializable fields"}

    def test_rotation_shifts_backups_and_drops_oldest(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = _log(path, max_bytes=600, backups=2)
        for index in range(12):
            log.event("tick", index=index)
        log.close()
        assert path.exists()
        assert (tmp_path / "events.jsonl.1").exists()
        assert (tmp_path / "events.jsonl.2").exists()
        assert not (tmp_path / "events.jsonl.3").exists()
        for name in ("events.jsonl", "events.jsonl.1", "events.jsonl.2"):
            size = (tmp_path / name).stat().st_size
            assert 0 < size <= 600, (name, size)
        # Every retained file is intact JSONL and the merged view is
        # oldest-first with no duplicates.
        merged = read_events(str(path))
        indices = [row.args["index"] for row in merged]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert indices[-1] == 11  # the live tail is always retained

    def test_zero_backups_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = _log(path, max_bytes=100, backups=0)
        for index in range(10):
            log.event("tick", index=index)
        log.close()
        assert not (tmp_path / "events.jsonl.1").exists()
        assert read_events(str(path))  # live file still intact

    def test_reader_skips_torn_lines_and_missing_files(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert read_events(str(path)) == []
        log = _log(path)
        log.event("ok")
        log.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "event", "span": "torn')
        assert [r.name for r in read_events(str(path))] == ["ok"]

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SpanWriter(str(tmp_path / "e.jsonl"), max_bytes=0)

    def test_null_log_is_silent(self):
        NULL_TRACER.event("anything", n=1)
        NULL_TRACER.close()


class TestFleetLifecycleEvents:
    def test_fleet_emits_start_kill_restart_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = Tracer(writers=(SpanWriter(str(path), instants_only=True),))
        fleet = _fast_fleet(tmp_path, tracer=log)
        try:
            fleet.kill_shard(0, timeout=0.5)
            _wait_for(
                lambda: fleet.health()["shards"]["0"]["generation"] >= 1,
                message="shard 0 restarted",
            )
        finally:
            fleet.close()
            log.close()
        events = [row.name for row in read_events(str(path))]
        assert events.count("shard.start") == 2
        assert "fleet.start" in events
        assert "shard.kill" in events
        assert "shard.restart" in events
        assert events[-1] == "fleet.close"
        restart = next(row for row in read_events(str(path))
                       if row.name == "shard.restart")
        assert restart.args["shard"] == 0
        assert restart.args["generation"] >= 1
        assert restart.service == "fleet"

    def test_events_log_alone_starts_no_request_traces(self, tmp_path):
        """An instants-only tracer exports no spans, so neither the soak
        clients nor the front-end start a trace per request, and the
        fleet opens no per-request spans."""
        path = tmp_path / "events.jsonl"
        log = Tracer(writers=(SpanWriter(str(path), instants_only=True),))
        fleet = _fast_fleet(tmp_path, tracer=log)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        try:
            report = run_soak(server.start(), _grid()[:2], clients=1,
                              tracer=log)
        finally:
            server.stop()
            fleet.close()
        assert report.completed == 2 and not report.errors
        stages = log.self_times()
        for name in ("client.compile", "frontend.request",
                     "shard.compile", "fleet.hot"):
            assert name not in stages
        logged = [row.name for row in read_events(str(path))]
        assert "frontend.start" in logged and logged[-1] == "fleet.close"

    def test_instants_also_land_in_the_fleet_span_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        trace_dir = tmp_path / "traces"
        log = Tracer(writers=(SpanWriter(str(path), instants_only=True),
                              SpanWriter(trace_file(str(trace_dir)))))
        fleet = _fast_fleet(tmp_path, tracer=log)
        fleet.close()
        logged = [row.name for row in read_events(str(path))]
        merged = merge_traces(str(trace_dir))
        assert [span.name for span in merged.find(service="fleet")
                if span.instant] == logged
        assert logged[-1] == "fleet.close"
