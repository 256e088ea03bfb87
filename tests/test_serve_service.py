"""Serving one shard: identity, dedup, faults, shutdown, wire.

A one-shard :class:`CompileFleet` is the smallest serving stack: the
fleet's policy (dedup, store tier, one retry budget) over one
:class:`~repro.serve.service.WorkerPool`.  Its one non-negotiable is
bit-identity: routing a grid cell through batching, the worker pool,
retries, and the artifact store must produce the same
:class:`CellResult` as the reference serial path.  The fault-injection
tests then kill workers, poison cache entries, and fill the intake
queue to show every recovery path preserves that identity.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time

import pytest

from repro.evaluation.engine import (
    GridCell,
    evaluate_cell,
    evaluate_grid,
)
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.obs import MetricsRegistry
from repro.serve import (
    ArtifactStore,
    JobFailedError,
    JobRequest,
    ServiceClosedError,
    ServiceSaturatedError,
    cell_key,
    resolve_program_text,
    result_from_payload,
    store_schema,
)
from repro.serve.client import Client, ClientError
from repro.serve.fleet import CompileFleet
from repro.serve.frontend import FrontendServer
from repro.serve.service import _service_worker
from repro.serve.wire import ErrorCode, send_frame
from repro.workloads.specint import build_benchmark

_NO_SLEEP = lambda seconds: None  # noqa: E731 - retry backoff stub


def _fleet(cache_dir=None, **kwargs):
    """A one-shard fleet; retries spend no wall time on backoff."""
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("sleep", _NO_SLEEP)
    return CompileFleet(shards=1, cache_dir=cache_dir, **kwargs)


def _shard_store(cache_dir) -> str:
    """The store directory of a one-shard fleet's only shard."""
    return os.path.join(str(cache_dir), "shard-00")


def _store_stats(fleet):
    return fleet.stats()["shards"][0]["service"]["store"]


def _wait_for_dispatch(metrics, count=1):
    deadline = time.monotonic() + 5.0
    while metrics.counters.get("serve.dispatches", 0) < count \
            and time.monotonic() < deadline:
        time.sleep(0.01)


def _grid(heuristics=("global_weight", "dep_height"),
          machines=("4U",), schemes=("bb", "treegion")):
    return [
        GridCell("compress", scheme, machine, heuristic)
        for scheme in schemes
        for machine in machines
        for heuristic in heuristics
    ]


# -- fault-injection workers (module level: they cross the fork) -------

def _crash_once_worker(flag_path, task):
    """Die hard on the first call ever, behave on every later one."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("crashed\n")
        os._exit(1)
    return _service_worker(task)


def _hang_once_worker(flag_path, task):
    """Overrun any reasonable job timeout once, then behave."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("hung\n")
        time.sleep(2.0)
    return _service_worker(task)


def _always_crashing_worker(task):
    os._exit(1)


def _always_failing_worker(task):
    raise ValueError("deterministically unschedulable")


def _gated_worker(gate_path, task):
    """Block until the test opens the gate (deterministic queue fill)."""
    while not os.path.exists(gate_path):
        time.sleep(0.01)
    return _service_worker(task)


class TestIdentity:
    def test_service_matches_serial_and_per_cell(self):
        cells = _grid()
        direct = evaluate_grid(cells)
        with _fleet(jobs=2) as fleet:
            served = fleet.evaluate(cells)
        assert served == direct
        assert served[0] == evaluate_cell(cells[0])

    def test_cold_and_warm_store_match_direct(self, tmp_path):
        cells = _grid()
        direct = evaluate_grid(cells)
        with _fleet(str(tmp_path), jobs=2) as fleet:
            cold = fleet.evaluate(cells)
        # A fresh fleet on the same directory answers from disk.
        with _fleet(str(tmp_path), jobs=2) as fleet:
            handles = [fleet.submit(JobRequest(cell=cell))
                       for cell in cells]
            warm = [handle.result(60.0) for handle in handles]
            assert all(handle.cached for handle in handles)
            warm_hits = _store_stats(fleet)["hits"]
        assert cold == direct
        assert warm == direct
        assert warm_hits == len(cells)

    def test_explicit_program_text_round_trips(self):
        text = format_program(build_benchmark("compress"))
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        reference = evaluate_cell(cell, program=parse_program(text))
        with _fleet() as fleet:
            [served] = fleet.evaluate([cell], program_text=text)
        assert served == reference

    def test_results_come_back_in_input_order(self):
        cells = _grid()
        with _fleet(jobs=2, batch_size=2) as fleet:
            served = fleet.evaluate(cells)
        assert [result.cell for result in served] == cells


class TestDedupAndBatching:
    def test_inflight_duplicates_share_one_handle(self, tmp_path):
        gate = str(tmp_path / "gate")
        metrics = MetricsRegistry()
        cell = _grid()[0]
        fleet = _fleet(metrics=metrics,
                       worker=functools.partial(_gated_worker, gate))
        try:
            first = fleet.submit(JobRequest(cell=cell))
            second = fleet.submit(JobRequest(cell=cell))
            assert second is first
            with open(gate, "w") as handle:
                handle.write("go\n")
            assert first.result(60.0) == evaluate_cell(cell)
        finally:
            fleet.close()
        counters = metrics.snapshot()["counters"]
        assert counters["fleet.deduped"] == 1
        assert counters["serve.dispatches"] == 1

    def test_cache_hit_skips_the_pool(self, tmp_path):
        cell = _grid()[0]
        key = cell_key(resolve_program_text(JobRequest(cell=cell)), cell)
        with ArtifactStore(_shard_store(tmp_path)) as store:
            store.put(key, evaluate_cell(cell))
        # A worker that would fail proves the pool is never consulted.
        with _fleet(str(tmp_path),
                    worker=_always_failing_worker) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            assert handle.cached
            assert handle.attempts == 0
            assert handle.result(10.0) == evaluate_cell(cell)


class TestFaults:
    def test_killed_worker_is_retried_to_success(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        metrics = MetricsRegistry()
        cell = _grid()[0]
        with _fleet(
            retries=2, metrics=metrics,
            worker=functools.partial(_crash_once_worker, flag),
        ) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            result = handle.result(60.0)
        assert result == evaluate_cell(cell)
        assert handle.attempts == 2
        counters = metrics.snapshot()["counters"]
        assert counters["serve.worker_crashes"] == 1
        assert counters["fleet.shard_retries"] == 1
        assert counters["fleet.completed"] == 1

    def test_hung_worker_times_out_and_retries(self, tmp_path):
        flag = str(tmp_path / "hung-once")
        metrics = MetricsRegistry()
        cell = _grid()[0]
        with _fleet(
            retries=2, job_timeout=0.3, metrics=metrics,
            worker=functools.partial(_hang_once_worker, flag),
        ) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            result = handle.result(60.0)
        assert result == evaluate_cell(cell)
        assert metrics.snapshot()["counters"]["serve.timeouts"] == 1

    def test_deterministic_failure_fails_fast(self):
        metrics = MetricsRegistry()
        cell = _grid()[0]
        with _fleet(retries=5, metrics=metrics,
                    worker=_always_failing_worker) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            with pytest.raises(JobFailedError, match="unschedulable"):
                handle.result(60.0)
        # No retry budget spent: replaying a deterministic job is futile.
        assert handle.attempts == 1
        counters = metrics.snapshot()["counters"]
        assert counters["fleet.failed"] == 1
        assert "fleet.shard_retries" not in counters

    def test_retry_budget_exhaustion_fails_the_job(self):
        metrics = MetricsRegistry()
        cell = _grid()[0]
        with _fleet(retries=1, metrics=metrics,
                    worker=_always_crashing_worker) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            with pytest.raises(JobFailedError, match="2 attempt"):
                handle.result(60.0)
        assert metrics.snapshot()["counters"]["serve.worker_crashes"] == 2

    def test_poisoned_cache_entry_recomputes_correctly(self, tmp_path):
        cell = _grid()[0]
        key = cell_key(resolve_program_text(JobRequest(cell=cell)), cell)
        poison = ArtifactStore(_shard_store(tmp_path))._object_path(key)
        os.makedirs(os.path.dirname(poison), exist_ok=True)
        with open(poison, "w") as handle:
            handle.write('{"schema": "evil", "time": -1}')
        with _fleet(str(tmp_path)) as fleet:
            handle = fleet.submit(JobRequest(cell=cell))
            result = handle.result(60.0)
            corrupt = _store_stats(fleet)["corrupt"]
        assert not handle.cached
        assert result == evaluate_cell(cell)
        assert corrupt == 1
        # The recompute healed the entry on disk.
        assert ArtifactStore(_shard_store(tmp_path)).get(key) == result

    def test_full_queue_applies_backpressure_then_drains(self, tmp_path):
        gate = str(tmp_path / "gate")
        cells = _grid(heuristics=("global_weight", "dep_height",
                                  "exit_count"))[:3]
        metrics = MetricsRegistry()
        fleet = _fleet(
            batch_size=1, max_pending=1, metrics=metrics,
            worker=functools.partial(_gated_worker, gate),
        )
        try:
            first = fleet.submit(JobRequest(cell=cells[0]))
            # Wait for the dispatcher to pull the first job so exactly
            # one queue slot is in play.
            _wait_for_dispatch(metrics)
            second = fleet.submit(JobRequest(cell=cells[1]))
            with pytest.raises(ServiceSaturatedError):
                fleet.submit(JobRequest(cell=cells[2]))
            with open(gate, "w") as handle:
                handle.write("go\n")
            assert first.result(60.0) == evaluate_cell(cells[0])
            assert second.result(60.0) == evaluate_cell(cells[1])
            # Pressure released: the rejected job now goes through.
            third = fleet.submit(JobRequest(cell=cells[2]))
            assert third.result(60.0) == evaluate_cell(cells[2])
        finally:
            fleet.close()
        assert metrics.snapshot()["counters"]["serve.jobs.rejected"] == 1


class TestShutdown:
    def test_non_draining_close_cancels_queued_jobs(self, tmp_path):
        gate = str(tmp_path / "gate")
        cells = _grid()
        metrics = MetricsRegistry()
        fleet = _fleet(
            batch_size=1, max_pending=4, metrics=metrics,
            worker=functools.partial(_gated_worker, gate),
        )
        dispatched = fleet.submit(JobRequest(cell=cells[0]))
        _wait_for_dispatch(metrics)
        queued = fleet.submit(JobRequest(cell=cells[1]))
        opener = threading.Timer(0.2, lambda: open(gate, "w").close())
        opener.start()
        try:
            fleet.close(drain=False, timeout=30.0)
        finally:
            opener.join()
        # The in-flight job still completed; the queued one was failed.
        assert dispatched.result(60.0) == evaluate_cell(cells[0])
        with pytest.raises(ServiceClosedError):
            queued.result(60.0)
        with pytest.raises(ServiceClosedError):
            fleet.submit(JobRequest(cell=cells[2]))

    def test_draining_close_finishes_accepted_work(self):
        cells = _grid()
        fleet = _fleet(batch_size=2)
        handles = [fleet.submit(JobRequest(cell=cell)) for cell in cells]
        fleet.close(drain=True, timeout=120.0)
        direct = evaluate_grid(cells)
        assert [handle.result(0.0) for handle in handles] == direct


class TestWire:
    """The served path over a ``unix://`` endpoint."""

    def _start_server(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        fleet = CompileFleet(shards=1, jobs=1,
                             cache_dir=str(tmp_path / "store"))
        server = FrontendServer(fleet, f"unix://{path}")
        endpoint = server.start()
        return path, endpoint, fleet, server

    def test_socket_round_trip_cold_then_warm(self, tmp_path):
        path, endpoint, fleet, server = self._start_server(tmp_path)
        try:
            with Client(endpoint) as client:
                assert client.server_info is not None
                assert client.server_info.schema == store_schema()

                cell = GridCell("compress", "treegion", "4U",
                                "global_weight")
                cold = client.submit(cell)
                assert not cold.cached and cold.source == "computed"
                warm = client.submit(cell)
                assert warm.cached and warm.source == "hot"
                expected = evaluate_cell(cell)
                for reply in (cold, warm):
                    assert result_from_payload(reply.result) == expected

                ping = client.ping()
                assert ping.healthy and ping.shards

                stats = client.stats()
                assert stats["hot"]["entries"] >= 1
                assert stats["shards"][0]["up"]

                with pytest.raises(ClientError) as failure:
                    client.submit(GridCell("compress", "no-such-scheme",
                                           "4U", "global_weight"))
                assert failure.value.code == ErrorCode.BAD_REQUEST

            with Client(endpoint) as client:
                client.shutdown()
            server.join(timeout=30.0)
        finally:
            fleet.close()
        assert not server.running
        assert not os.path.exists(path)

    def test_malformed_frame_does_not_kill_the_server(self, tmp_path):
        path, endpoint, fleet, server = self._start_server(tmp_path)
        try:
            # Garbage inside a well-formed frame: one error reply, and
            # the server keeps accepting fresh connections.
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(10.0)
                sock.connect(path)
                send_frame(sock, {"this is": "not a hello"})
                from repro.serve.wire import recv_frame

                garbage = recv_frame(sock, 1 << 20)
            assert garbage == {
                "ok": False, "code": ErrorCode.BAD_REQUEST,
                "error": garbage["error"],
            }
            with Client(endpoint) as client:
                assert client.ping().healthy
                client.shutdown()
            server.join(timeout=30.0)
        finally:
            fleet.close()
