"""The compile fleet: sharding, dedup, replica reads, fault recovery.

The fleet's contract extends the service's bit-identity guarantee with
fleet semantics: content-key routing is stable, identical in-flight
requests collapse onto one computation (so client retries are
idempotent by construction), killing one shard mid-batch drops nothing
— its keys are retried on the restarted shard while other shards never
notice — and resizing the fleet costs replica reads, not recomputes.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time

import pytest

from repro.evaluation.engine import GridCell, evaluate_grid
from repro.obs import MetricsRegistry
from repro.serve import (
    CompileFleet,
    JobFailedError,
    JobRequest,
    KeyRouter,
    ServiceSaturatedError,
    request_key,
    result_to_payload,
)
from repro.serve.client import Client, ClientError
from repro.serve.frontend import FrontendServer
from repro.serve.service import _service_worker
from repro.serve.soak import percentile, run_soak
from repro.serve.wire import ErrorCode

_NO_SLEEP = lambda seconds: None  # noqa: E731 - retry backoff stub


def _grid():
    """8 cells spread over both shards of a 2-shard router (5/3)."""
    return [
        GridCell(bench, scheme, "4U", heuristic)
        for bench in ("compress", "go")
        for scheme in ("bb", "treegion")
        for heuristic in ("global_weight", "dep_height")
    ]


def _owners(cells, shards=2):
    router = KeyRouter(shards)
    return [router.shard_for(request_key(JobRequest(cell=cell)))
            for cell in cells]


def _gated_worker(gate_path, task):
    """Block until the test opens the gate (crosses the fork)."""
    while not os.path.exists(gate_path):
        time.sleep(0.01)
    return _service_worker(task)


def _logged_crash_worker(log_path, task):
    """Record the run, then die hard, every time (crosses the fork)."""
    with open(log_path, "a") as handle:
        handle.write("ran\n")
    os._exit(1)


def _fast_fleet(tmp_path, metrics=None, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("health_interval", 0.05)
    kwargs.setdefault("retry_backoff", 0.0)
    kwargs.setdefault("sleep", _NO_SLEEP)
    if metrics is not None:
        kwargs.setdefault("metrics", metrics)
    return CompileFleet(**kwargs)


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {message}"
        time.sleep(0.01)


class TestIdentityAndRouting:
    def test_fleet_matches_direct_byte_for_byte(self, tmp_path):
        cells = _grid()
        direct = evaluate_grid(cells)
        with _fast_fleet(tmp_path) as fleet:
            served = fleet.evaluate(cells)
            stats = fleet.stats()
        assert served == direct
        for mine, reference in zip(served, direct):
            assert result_to_payload("k", mine) == \
                result_to_payload("k", reference)
        # Content keys spread the grid over both shards' stores.
        entries = [shard["service"]["store"]["entries"]
                   for shard in stats["shards"]]
        assert all(count > 0 for count in entries)
        assert sum(entries) == len(cells)

    def test_routing_is_a_pure_function_of_the_key(self):
        cells = _grid()
        assert _owners(cells) == _owners(cells)
        assert set(_owners(cells)) == {0, 1}
        with pytest.raises(ValueError):
            KeyRouter(0)


class TestHotTierAndIdempotency:
    def test_warm_resubmit_is_a_hot_hit_not_a_dispatch(self, tmp_path):
        registry = MetricsRegistry()
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        with _fast_fleet(tmp_path, metrics=registry) as fleet:
            cold = fleet.submit(JobRequest(cell=cell))
            cold.result(120.0)
            assert not cold.cached
            warm = fleet.submit(JobRequest(cell=cell))
            assert warm.done and warm.cached and warm.source == "hot"
            assert warm.result(0.0) == cold.result(0.0)
        assert registry.counters["fleet.hot_hits"] == 1
        assert registry.counters["serve.jobs.submitted"] == 1

    def test_inflight_duplicates_share_one_handle(self, tmp_path):
        registry = MetricsRegistry()
        gate = str(tmp_path / "gate")
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        fleet = _fast_fleet(
            tmp_path, metrics=registry,
            worker=functools.partial(_gated_worker, gate),
        )
        try:
            first = fleet.submit(JobRequest(cell=cell))
            # A client retry of an accepted request: same content key,
            # same handle, no second dispatch.
            second = fleet.submit(JobRequest(cell=cell))
            assert second is first
            with open(gate, "w") as handle:
                handle.write("open\n")
            assert first.result(120.0) == evaluate_grid([cell])[0]
        finally:
            fleet.close()
        assert registry.counters["fleet.deduped"] == 1
        assert registry.counters["serve.jobs.submitted"] == 1

    def test_saturated_shard_rejects_without_accepting(self, tmp_path):
        registry = MetricsRegistry()
        gate = str(tmp_path / "gate")
        cells = _grid()
        owners = _owners(cells)
        same_owner = [cell for cell, owner in zip(cells, owners)
                      if owner == owners[0]]
        assert len(same_owner) >= 3
        fleet = _fast_fleet(
            tmp_path, metrics=registry, max_pending=1, batch_size=1,
            worker=functools.partial(_gated_worker, gate),
        )
        try:
            # One job gets dispatched, one fills the intake queue; the
            # next same-shard submit must bounce with backpressure.
            handles = [fleet.submit(JobRequest(cell=same_owner[0]))]
            _wait_for(
                lambda: registry.counters.get("serve.dispatches", 0) >= 1,
                message="first job dispatched",
            )
            handles.append(fleet.submit(JobRequest(cell=same_owner[1])))
            with pytest.raises(ServiceSaturatedError):
                fleet.submit(JobRequest(cell=same_owner[2]))
            with open(gate, "w") as handle:
                handle.write("open\n")
            for handle in handles:
                handle.result(120.0)
        finally:
            fleet.close()
        # The rejected request was never accepted anywhere.
        assert registry.counters["serve.jobs.rejected"] >= 1


class TestShardFailure:
    def test_kill_one_shard_mid_batch_drops_nothing(self, tmp_path):
        registry = MetricsRegistry()
        gate = str(tmp_path / "gate")
        cells = _grid()
        owners = _owners(cells)
        assert set(owners) == {0, 1}
        direct = evaluate_grid(cells)
        fleet = _fast_fleet(
            tmp_path, metrics=registry, batch_size=1,
            worker=functools.partial(_gated_worker, gate),
        )
        try:
            handles = [fleet.submit(JobRequest(cell=cell))
                       for cell in cells]
            # Both shards have one job blocked mid-dispatch and the
            # rest queued behind it.
            _wait_for(
                lambda: registry.counters.get("serve.dispatches", 0) >= 2,
                message="both shards dispatching",
            )
            fleet.kill_shard(0, timeout=0.5)
            with open(gate, "w") as handle:
                handle.write("open\n")
            results = [handle.result(180.0) for handle in handles]
            assert results == direct
            health = fleet.health()
        finally:
            fleet.close()
        # The dead shard was restarted and its queued keys re-run there;
        # the surviving shard never noticed.
        assert registry.counters["fleet.shard_kills"] == 1
        assert registry.counters.get("fleet.shard_retries", 0) >= 1
        assert health["shards"]["0"]["generation"] >= 1
        assert health["shards"]["1"]["generation"] == 0

    def test_deterministic_failure_is_not_retried_across_shards(
            self, tmp_path):
        registry = MetricsRegistry()
        fleet = _fast_fleet(
            tmp_path, metrics=registry, retries=0,
            worker=_always_failing_worker,
        )
        try:
            handle = fleet.submit(JobRequest(
                cell=GridCell("compress", "treegion", "4U",
                              "global_weight")))
            with pytest.raises(JobFailedError) as failure:
                handle.result(60.0)
            assert not failure.value.retryable
        finally:
            fleet.close(drain=False)
        assert "fleet.shard_retries" not in registry.counters


def _always_failing_worker(task):
    raise ValueError("deterministically unschedulable")


class TestFleetResize:
    def test_resize_reads_replicas_instead_of_recomputing(self, tmp_path):
        cells = _grid()
        with _fast_fleet(tmp_path, shards=1) as small:
            first = small.evaluate(cells)
        registry = MetricsRegistry()
        # Same cache root, more shards: ~half the keyspace changes
        # owner; the new owners adopt from the old shard's store.
        with _fast_fleet(tmp_path, shards=2, metrics=registry) as grown:
            second = grown.evaluate(cells)
        assert second == first
        assert registry.counters.get("serve.dispatches", 0) == 0
        assert registry.counters["fleet.replica_reads"] >= 1
        assert registry.counters["serve.jobs.cache_hits"] == len(cells)


class TestServedRetryIdempotency:
    def test_client_deadline_retry_never_double_computes(self, tmp_path):
        registry = MetricsRegistry()
        gate = str(tmp_path / "gate")
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        fleet = _fast_fleet(
            tmp_path, metrics=registry,
            worker=functools.partial(_gated_worker, gate),
        )
        server = FrontendServer(fleet, "tcp://127.0.0.1:0",
                                metrics=registry)
        endpoint = server.start()
        try:
            outcome = {}

            def submit():
                with Client(endpoint, retries=100,
                            retry_backoff=0.05) as client:
                    # Each 0.2s deadline expires while the job is
                    # gated; every retry dedups onto the in-flight
                    # computation instead of resubmitting it.
                    outcome["reply"] = client.submit(cell, timeout=0.2)

            thread = threading.Thread(target=submit, daemon=True)
            thread.start()
            _wait_for(
                lambda: registry.counters.get(
                    "frontend.request_timeouts", 0) >= 2,
                message="client retrying after deadline timeouts",
            )
            with open(gate, "w") as handle:
                handle.write("open\n")
            thread.join(120.0)
            assert not thread.is_alive()
        finally:
            server.stop()
            fleet.close()
        reply = outcome["reply"]
        assert reply.result == result_to_payload(
            reply.result["key"], evaluate_grid([cell])[0])
        assert registry.counters["serve.jobs.submitted"] == 1
        assert registry.counters["fleet.deduped"] >= 1


class TestOneRetryBudget:
    def test_crashing_worker_runs_retries_plus_one_times_over_tcp(
            self, tmp_path):
        """Fleet, front-end and client spend one budget between them:
        the fleet retries, the client does not resend ``SHARD_DOWN``."""
        registry = MetricsRegistry()
        log = str(tmp_path / "runs.log")
        fleet = _fast_fleet(
            tmp_path, metrics=registry, shards=1,
            worker=functools.partial(_logged_crash_worker, log),
        )
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            with Client(endpoint) as client:
                with pytest.raises(ClientError) as failure:
                    client.submit(GridCell("compress", "treegion", "4U",
                                           "global_weight"))
        finally:
            server.stop()
            fleet.close(drain=False)
        assert failure.value.code == ErrorCode.SHARD_DOWN
        with open(log) as handle:
            runs = handle.read().splitlines()
        assert len(runs) == fleet.retries + 1 == 3
        assert registry.counters["fleet.shard_retries"] == fleet.retries


class TestFrontendShutdown:
    def test_stop_after_client_hangs_up_logs_no_asyncio_error(
            self, tmp_path, caplog):
        fleet = _fast_fleet(tmp_path, shards=1)
        try:
            for _ in range(10):
                server = FrontendServer(fleet, "tcp://127.0.0.1:0")
                client = Client(server.start()).connect()
                client.ping()
                client.close()
                server.stop()
        finally:
            fleet.close()
        errors = [record for record in caplog.records
                  if record.name == "asyncio"
                  and record.levelno >= logging.ERROR]
        assert not errors, errors[0].getMessage()


class TestSoakHarness:
    def test_exact_percentiles(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 50) == 7.0

    def test_soak_drives_warm_traffic_and_reports(self, tmp_path):
        registry = MetricsRegistry()
        cells = _grid()[:4]
        fleet = _fast_fleet(tmp_path, metrics=registry)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            report = run_soak(endpoint, cells, clients=6, requests=24,
                              metrics=registry)
        finally:
            server.stop()
            fleet.close()
        assert report.completed == 24 and report.dropped == 0
        assert not report.errors
        summary = report.as_dict()
        # Idempotency across the whole soak: every distinct key was
        # computed exactly once (concurrent duplicates ride along).
        assert registry.counters["serve.jobs.submitted"] == len(cells)
        assert summary["warm_latency"]["count"] >= 1
        assert (summary["warm_latency"]["count"]
                + summary["cold_latency"]["count"]) == 24
        assert summary["latency"]["p99"] >= summary["latency"]["p50"]
        assert set(summary["sources"]) <= {"computed", "store", "hot"}
        # Byte-identity through the soak path, per request index.
        direct = evaluate_grid(cells)
        for index, payload in report.payloads.items():
            expected = direct[index % len(cells)]
            assert payload == result_to_payload(payload["key"], expected)
        histogram = registry.histograms["soak.latency_us"]
        assert histogram.count == 24
        assert histogram.percentile(99) >= histogram.percentile(50)

    def test_soak_survives_a_shard_kill(self, tmp_path):
        cells = _grid()
        fleet = _fast_fleet(tmp_path)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        killed = threading.Event()

        def chaos(index):
            if index == len(cells) and not killed.is_set():
                killed.set()
                fleet.kill_shard(0, timeout=0.5)

        try:
            report = run_soak(endpoint, cells, clients=8,
                              requests=3 * len(cells), on_request=chaos)
        finally:
            server.stop()
            fleet.close()
        assert killed.is_set()
        assert report.dropped == 0 and not report.errors
        direct = evaluate_grid(cells)
        for index, payload in report.payloads.items():
            expected = direct[index % len(cells)]
            assert payload == result_to_payload(payload["key"], expected)
