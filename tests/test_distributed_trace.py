"""Distributed tracing across the fleet (:mod:`repro.obs.distributed`).

Unit coverage of the tracer/collector pair, then the two tests the
fleet observability contract hangs on: a cold soak over a 2-shard TCP
fleet whose merged trace shows every client root span fanning into
frontend → shard → worker hops, and a chaos run (shard killed
mid-batch) whose merged trace still carries the retried request's full
span tree, marked ``supervisor.restart``.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.evaluation.engine import GridCell
from repro.obs.distributed import (
    NULL_DTRACER,
    DistributedTracer,
    merge_traces,
    new_span_id,
    new_trace_id,
    read_span_file,
)
from repro.serve import JobRequest
from repro.serve.frontend import FrontendServer
from repro.serve.soak import run_soak

from tests.test_fleet import (
    _fast_fleet,
    _gated_worker,
    _grid,
    _owners,
    _wait_for,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        value = self.now
        self.now += 0.5
        return value


class TestTracerUnit:
    def test_ids_are_fresh_and_well_formed(self):
        assert new_trace_id() != new_trace_id()
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16

    def test_span_export_and_context_fields(self, tmp_path):
        tracer = DistributedTracer(str(tmp_path), "client",
                                   clock=FakeClock())
        with tracer.start_span("client.compile", benchmark="go") as span:
            span.annotate("marker")
            span.annotate("marker")  # annotations dedup
            span.set(shard=3)
        child = tracer.start_span("hop", trace_id=span.trace_id,
                                  parent_span_id=span.span_id)
        child.finish(outcome="ok")
        child.finish(outcome="overwritten")  # finish is idempotent
        tracer.close()

        (path,) = list(tmp_path.glob("trace-client-*.jsonl"))
        rows = read_span_file(str(path))
        assert [r.name for r in rows] == ["client.compile", "hop"]
        root, hop = rows
        assert root.parent_span_id is None
        assert root.annotations == ["marker"]
        assert root.args == {"benchmark": "go", "shard": 3}
        assert root.end > root.start
        assert hop.trace_id == root.trace_id
        assert hop.parent_span_id == root.span_id
        assert hop.args == {"outcome": "ok"}

    def test_exception_annotates_error(self, tmp_path):
        tracer = DistributedTracer(str(tmp_path), "client")
        with pytest.raises(RuntimeError):
            with tracer.start_span("failing"):
                raise RuntimeError("boom")
        tracer.close()
        (span,) = merge_traces(str(tmp_path)).spans
        assert "error" in span.annotations
        assert span.args["error"] == "RuntimeError: boom"

    def test_disabled_and_null_tracers_propagate_nothing(self, tmp_path):
        span = NULL_DTRACER.start_span("anything", a=1)
        assert span.trace_id is None and span.span_id is None
        with span:
            span.annotate("x")
        tracer = DistributedTracer(str(tmp_path), "client")
        tracer.set_enabled(False)
        disabled = tracer.start_span("skipped")
        assert disabled.span_id is None
        disabled.finish()
        tracer.close()
        assert not list(tmp_path.glob("trace-*.jsonl"))

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        tracer = DistributedTracer(str(tmp_path), "worker", shard=1)
        tracer.start_span("ok").finish()
        tracer.close()
        (path,) = list(tmp_path.glob("trace-worker-*.jsonl"))
        with open(path, "a") as handle:
            handle.write('{"trace": "t", "span": "truncat')
        rows = read_span_file(str(path))
        assert [r.name for r in rows] == ["ok"]
        assert rows[0].shard == 1


class TestMergedTrace:
    def _two_process_dir(self, tmp_path):
        clock = FakeClock()
        client = DistributedTracer(str(tmp_path), "client", clock=clock)
        fleet = DistributedTracer(str(tmp_path), "fleet", shard=0,
                                  clock=clock)
        root = client.start_span("client.compile")
        hop = fleet.start_span("shard.compile", trace_id=root.trace_id,
                               parent_span_id=root.span_id)
        hop.finish()
        root.finish()
        other = client.start_span("client.compile")
        other.finish()
        client.close()
        fleet.close()
        return root, hop, other

    def test_forest_queries(self, tmp_path):
        root, hop, other = self._two_process_dir(tmp_path)
        merged = merge_traces(str(tmp_path))
        assert len(merged) == 3
        assert merged.services() == ["client", "fleet"]
        assert merged.trace_ids() == [root.trace_id, other.trace_id]
        roots = merged.roots(root.trace_id)
        assert [r.span_id for r in roots] == [root.span_id]
        (child,) = merged.children(roots[0])
        assert child.span_id == hop.span_id
        (tree,) = merged.tree(root.trace_id)
        assert tree["name"] == "client.compile"
        assert tree["children"][0]["service"] == "fleet"
        assert tree["children"][0]["shard"] == 0
        assert merged.find(service="fleet")[0].name == "shard.compile"

    def test_chrome_export_has_tracks_and_flow_arrows(self, tmp_path):
        self._two_process_dir(tmp_path)
        merged = merge_traces(str(tmp_path))
        out = tmp_path / "merged.json"
        merged.write_chrome(str(out))
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"client (pid %d)" % merged.spans[0].pid,
                         "fleet shard 0"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        # One parent link -> one s/f flow pair on matching ids.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]

    def test_merge_of_empty_dir_and_explicit_paths(self, tmp_path):
        assert len(merge_traces(str(tmp_path))) == 0
        assert merge_traces([]).to_chrome()["traceEvents"] == []


class TestFleetTraceEndToEnd:
    def test_cold_soak_trace_spans_all_four_services(self, tmp_path):
        """The acceptance shape: one merged timeline per cold request,
        client.compile -> frontend.request -> shard.compile ->
        worker.run_task, across a real 2-shard TCP fleet."""
        trace_dir = tmp_path / "traces"
        cells = _grid()
        fleet = _fast_fleet(tmp_path, trace_dir=str(trace_dir))
        server = FrontendServer(fleet, "tcp://127.0.0.1:0",
                                trace_dir=str(trace_dir))
        endpoint = server.start()
        try:
            report = run_soak(endpoint, cells, clients=4,
                              trace_dir=str(trace_dir))
        finally:
            server.stop()
            fleet.close()
        assert report.dropped == 0 and not report.errors

        merged = merge_traces(str(trace_dir))
        assert merged.services() == ["client", "fleet", "frontend",
                                     "worker"]
        # One trace per request, rooted at the client span.
        assert len(merged.trace_ids()) == len(cells)
        seen_shards = set()
        for trace_id in merged.trace_ids():
            (root,) = merged.roots(trace_id)
            assert (root.service, root.name) == ("client",
                                                 "client.compile")
            (frontend,) = merged.children(root)
            assert (frontend.service, frontend.name) == \
                ("frontend", "frontend.request")
            assert frontend.args["outcome"] == "ok"
            (shard,) = merged.children(frontend)
            assert (shard.service, shard.name) == ("fleet",
                                                   "shard.compile")
            assert shard.args["outcome"] == "ok"
            seen_shards.add(shard.args["shard"])
            workers = merged.children(shard)
            assert [w.name for w in workers] == ["worker.run_task"]
            assert workers[0].service == "worker"
            # Parent/child hops are causally ordered on the shared
            # wall clock.
            assert root.start <= frontend.start <= shard.start
        assert seen_shards == {0, 1}

    def test_warm_hit_traces_as_instant_fleet_span(self, tmp_path):
        trace_dir = tmp_path / "traces"
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        fleet = _fast_fleet(tmp_path, trace_dir=str(trace_dir))
        try:
            cold = fleet.submit(JobRequest(cell=cell,
                                           trace_id=new_trace_id()))
            cold.result(120.0)
            warm_trace = new_trace_id()
            warm = fleet.submit(JobRequest(cell=cell,
                                           trace_id=warm_trace))
            assert warm.done and warm.source == "hot"
        finally:
            fleet.close()
        merged = merge_traces(str(trace_dir))
        (hot,) = merged.find(name="fleet.hot", trace_id=warm_trace)
        assert hot.args["source"] == "hot"
        # The hot hit never reached a shard or a worker.
        assert not merged.find(name="shard.compile",
                               trace_id=warm_trace)
        assert not merged.find(name="worker.run_task",
                               trace_id=warm_trace)


class TestChaosTrace:
    def test_killed_shard_trace_survives_with_restart_annotation(
            self, tmp_path):
        trace_dir = tmp_path / "traces"
        gate = str(tmp_path / "gate")
        cells = _grid()
        owners = _owners(cells)
        assert set(owners) == {0, 1}
        fleet = _fast_fleet(
            tmp_path, trace_dir=str(trace_dir), batch_size=1,
            worker=functools.partial(_gated_worker, gate),
        )
        traces = {}
        try:
            handles = []
            for cell in cells:
                trace_id = new_trace_id()
                traces[trace_id] = cell
                handles.append(fleet.submit(
                    JobRequest(cell=cell, trace_id=trace_id)))
            _wait_for(
                lambda: fleet.own_metrics.counters.get(
                    "serve.dispatches", 0) >= 2,
                message="both shards dispatching",
            )
            fleet.kill_shard(0, timeout=0.5)
            with open(gate, "w") as handle:
                handle.write("open\n")
            for handle in handles:
                handle.result(180.0)
        finally:
            fleet.close()

        merged = merge_traces(str(trace_dir))
        retried = merged.find(name="shard.compile",
                              annotation="supervisor.restart")
        assert retried, "no re-dispatched span carries the annotation"
        killed_owner_traces = {
            trace_id for trace_id, cell in traces.items()
            if _owners([cell])[0] == 0
        }
        assert {span.trace_id for span in retried} <= killed_owner_traces
        for span in retried:
            # The retried hop finished its work and its worker span
            # survived the earlier kill of the same content key.
            assert span.args["outcome"] == "ok"
            assert span.args["fleet_attempt"] >= 1
            workers = merged.children(span)
            assert [w.name for w in workers] == ["worker.run_task"]
        # The first, killed attempt of a retried key is also visible:
        # its dispatch span closed with a retry outcome.
        some_trace = retried[0].trace_id
        outcomes = [s.args.get("outcome")
                    for s in merged.find(name="shard.compile",
                                         trace_id=some_trace)]
        assert "retry" in outcomes and "ok" in outcomes
