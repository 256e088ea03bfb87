"""``repro top``: the pure renderer and the polling loop.

:func:`render_top` is a pure function of the ``STATS`` payload, so the
rendering tests need no server; the loop tests run against a real
fleet front-end and against a dead endpoint.
"""

from __future__ import annotations

import io

from repro.cli import main
from repro.serve.client import Client
from repro.serve.frontend import FrontendServer
from repro.serve.top import ANSI_REFRESH, render_top, run_top

from tests.test_fleet import _fast_fleet, _grid

STATS = {
    "closed": False,
    "inflight": 2,
    "hot": {"entries": 3, "max": 4096, "bytes": 2048},
    "shards": [
        {"index": 0, "up": True, "generation": 0,
         "service": {"queued": 1, "inflight": 2,
                     "store": {"hits": 7, "misses": 3, "entries": 10}}},
        {"index": 1, "up": False, "generation": 2, "service": {}},
    ],
    "server": {"pid": 4242, "uptime_seconds": 12.5,
               "protocol_version": 1},
    "metrics": {
        "counters": {"fleet.requests": 40, "fleet.completed": 38,
                     "fleet.failed": 0, "fleet.deduped": 5,
                     "fleet.hot_hits": 9, "fleet.hot_evictions": 1,
                     "fleet.shard_restarts": 2, "fleet.shard_deaths": 1,
                     "fleet.shard_retries": 3,
                     "serve.groups.formed": 2, "serve.groups.reused": 6},
        "gauges": {"memo.entries": 14, "memo.bytes": 6067},
    },
    "latency": {
        "compile": {"count": 12, "p50": 480, "p95": 3100,
                    "p99": 45000, "max": 1_800_000},
        "stats": {"count": 3, "p50": 55, "p95": 60, "p99": 60,
                  "max": 60},
    },
}


class TestRenderTop:
    def test_frame_carries_every_section(self):
        frame = render_top(STATS, endpoint="tcp://127.0.0.1:7421")
        assert "repro top — tcp://127.0.0.1:7421" in frame
        assert "server pid 4242" in frame
        assert "protocol v1" in frame and "serving" in frame
        assert "requests       40" in frame
        assert "deduped      5" in frame
        # Shard table: one row per shard, down shards flagged.
        assert "SHARD" in frame
        lines = frame.splitlines()
        shard_rows = [line for line in lines
                      if line.strip().startswith(("0 ", "1 "))]
        assert len(shard_rows) == 2
        assert "NO" in shard_rows[1]
        assert "hot tier  3/4096 entries  ~2.0KiB" in frame
        assert "restarts 2  deaths 1  retries 3" in frame
        assert "region memo  bytes 6067  entries 14" in frame
        assert "worker groups  formed 2  reused 6" in frame
        # Latency rows format µs into human units.
        assert "480µs" in frame
        assert "45.0ms" in frame
        assert "1.80s" in frame

    def test_rates_from_previous_frame(self):
        previous = {"metrics": {"counters": {"fleet.requests": 10}}}
        frame = render_top(STATS, previous=previous, interval=2.0)
        assert "15.0 req/s" in frame
        assert "req/s" not in render_top(STATS)

    def test_degenerate_payload_still_renders(self):
        frame = render_top({})
        assert "repro top" in frame
        assert "(no requests in the rolling latency window)" in frame
        assert render_top({"closed": True}).count("CLOSED") == 1


class TestRunTop:
    def test_polls_live_fleet_and_renders_frames(self, tmp_path):
        cells = _grid()[:2]
        fleet = _fast_fleet(tmp_path)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            with Client(endpoint) as client:
                client.evaluate(cells)
            out = io.StringIO()
            code = run_top(endpoint, interval=0.01, iterations=2,
                           stream=out, clear=False)
        finally:
            server.stop()
            fleet.close()
        assert code == 0
        text = out.getvalue()
        assert ANSI_REFRESH not in text  # clear=False appends
        assert text.count("repro top —") == 2
        assert "SHARD" in text
        assert "compile" in text  # rolling latency saw our requests

    def test_clear_mode_repaints(self, tmp_path):
        fleet = _fast_fleet(tmp_path, shards=1)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            out = io.StringIO()
            run_top(endpoint, interval=0.01, iterations=1, stream=out)
        finally:
            server.stop()
            fleet.close()
        assert out.getvalue().startswith(ANSI_REFRESH)

    def test_unreachable_endpoint_reports_not_crashes(self):
        out = io.StringIO()
        code = run_top("tcp://127.0.0.1:1", interval=0.01,
                       iterations=2, stream=out, clear=False)
        assert code == 0
        assert out.getvalue().count("unreachable:") == 2


class TestTopCLI:
    def test_top_command_renders_one_frame(self, tmp_path, capsys):
        fleet = _fast_fleet(tmp_path, shards=1)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            assert main(["top", "--endpoint", str(endpoint),
                         "--iterations", "1", "--interval", "0.01",
                         "--no-clear"]) == 0
        finally:
            server.stop()
            fleet.close()
        assert "repro top —" in capsys.readouterr().out

    def test_top_rejects_bad_interval(self, capsys):
        assert main(["top", "--endpoint", "tcp://127.0.0.1:1",
                     "--interval", "0"]) == 2
        assert "error" in capsys.readouterr().err
