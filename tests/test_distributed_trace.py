"""Span files across the fleet (:mod:`repro.obs.tracer`).

Unit coverage of the tracer, the writer and the one reader (including
the reader's trust boundary: torn lines, records of the wrong shape,
arbitrary bytes), then the two tests the
fleet observability contract hangs on: a cold soak over a 2-shard TCP
fleet whose merged trace shows every client root span fanning into
frontend → shard → worker hops, and a chaos run (shard killed
mid-batch) whose merged trace still carries the retried request's full
span tree, marked ``supervisor.restart``.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.evaluation.engine import GridCell
from repro.obs import (
    NULL_TRACER,
    SpanWriter,
    Tracer,
    merge_traces,
    new_trace_id,
    read_spans,
    trace_file,
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


def _tracer(directory, service, shard=None, clock=None) -> Tracer:
    return Tracer(clock or FakeClock(), service=service, shard=shard,
                  writers=(SpanWriter(trace_file(str(directory))),))


class TestTracerUnit:
    def test_ids_are_fresh_and_well_formed(self):
        assert new_trace_id() != new_trace_id()
        assert len(new_trace_id()) == 32
        tracer = Tracer()
        first, second = tracer.start("a"), tracer.start("b")
        assert first.span_id != second.span_id
        assert len(first.span_id) == 16
        # A span started with no parent begins its own trace.
        assert first.trace_id != second.trace_id

    def test_span_export_and_context_fields(self, tmp_path):
        tracer = _tracer(tmp_path, "client")
        with tracer.start("client.compile", benchmark="go") as span:
            span.annotate("marker")
            span.annotate("marker")  # annotations dedup
            span.set(shard=3)
        child = tracer.start("hop", trace_id=span.trace_id,
                             parent=span.span_id)
        child.finish(outcome="ok")
        child.finish(outcome="overwritten")  # finish is idempotent
        tracer.close()

        (path,) = list(tmp_path.glob("trace-client-*.jsonl"))
        rows, skipped = read_spans(str(path))
        assert skipped == 0
        assert [r.name for r in rows] == ["client.compile", "hop"]
        root, hop = rows
        assert root.parent_id is None
        assert root.annotations == ("marker",)
        assert root.args == {"benchmark": "go", "shard": 3}
        assert root.end > root.start
        assert hop.trace_id == root.trace_id
        assert hop.parent_id == root.span_id
        assert hop.args == {"outcome": "ok"}

    def test_exception_annotates_error(self, tmp_path):
        tracer = _tracer(tmp_path, "client")
        with pytest.raises(RuntimeError):
            with tracer.start("failing"):
                raise RuntimeError("boom")
        tracer.close()
        (span,) = merge_traces(str(tmp_path)).spans
        assert "error" in span.annotations
        assert span.args["error"] == "RuntimeError: boom"

    def test_disabled_and_null_tracers_propagate_nothing(self, tmp_path):
        span = NULL_TRACER.start("anything", a=1)
        assert span.trace_id is None and span.span_id is None
        with span:
            span.annotate("x")
        # A service stamp keeps the null tracer null.
        assert NULL_TRACER.for_service("client") is NULL_TRACER
        assert NULL_TRACER.span_path is None
        # A tracer with no writer keeps totals and writes nothing.
        tracer = Tracer(service="client")
        tracer.start("kept").finish()
        tracer.close()
        assert tracer.self_times()["kept"]["count"] == 1
        assert not list(tmp_path.glob("trace-*.jsonl"))

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        tracer = _tracer(tmp_path, "worker", shard=1)
        tracer.start("ok").finish()
        tracer.close()
        (path,) = list(tmp_path.glob("trace-worker-*.jsonl"))
        with open(path, "a") as handle:
            handle.write('{"trace": "t", "span": "truncat')
        rows, skipped = read_spans(str(path))
        assert [r.name for r in rows] == ["ok"]
        assert rows[0].shard == 1
        assert skipped == 1


class TestMergedTrace:
    def _two_process_dir(self, tmp_path):
        clock = FakeClock()
        client = _tracer(tmp_path, "client", clock=clock)
        fleet = _tracer(tmp_path, "fleet", shard=0, clock=clock)
        root = client.start("client.compile")
        hop = fleet.start("shard.compile", trace_id=root.trace_id,
                          parent=root.span_id)
        hop.finish()
        root.finish()
        other = client.start("client.compile")
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


#: Lines of the wrong shape, each of which once crashed the collector.
MALFORMED = [
    '{"span": "a", "pid": "abc"}',
    '{"span": "b", "start": {}}',
    '{"span": "c", "args": 5}',
    '{"span": ["u"], "parent": ["u"]}',
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)

#: Records shaped like span records, with any field of any JSON type.
_RECORD = st.fixed_dictionaries({}, optional={
    field: _JSON | st.text(max_size=4)
    for field in ("kind", "name", "trace", "span", "parent", "service",
                  "shard", "pid", "start", "dur", "args", "annotations")
})


def _read_back(directory, content: bytes):
    """The trust boundary: a span file of arbitrary content, merged,
    then exported.  Only an ``OSError`` may escape."""
    path = os.path.join(directory, "trace-fuzz-1.jsonl")
    with open(path, "wb") as handle:
        handle.write(content)
    merged = merge_traces(directory)
    json.dumps(merged.to_chrome())
    for trace_id in merged.trace_ids():
        merged.tree(trace_id)
    return merged


class TestReaderRobustness:
    @pytest.mark.parametrize("line", MALFORMED)
    def test_wrong_shape_line_is_skipped_and_counted(self, tmp_path,
                                                     line):
        tracer = _tracer(tmp_path, "fleet")
        tracer.start("ok").finish()
        tracer.close()
        (path,) = list(tmp_path.glob("trace-fleet-*.jsonl"))
        with open(path, "a") as handle:
            handle.write(line + "\n")
        merged = merge_traces(str(tmp_path))
        assert [span.name for span in merged.spans] == ["ok"]
        assert merged.skipped == 1
        assert merged.to_chrome()["traceEvents"]

    def test_trace_merge_reports_skipped_lines(self, tmp_path, capsys):
        tracer = _tracer(tmp_path, "fleet")
        tracer.start("ok").finish()
        tracer.close()
        (path,) = list(tmp_path.glob("trace-fleet-*.jsonl"))
        with open(path, "a") as handle:
            handle.write("\n".join(MALFORMED) + "\n{torn")
        out = tmp_path / "merged.json"
        assert main(["trace-merge", str(tmp_path), "-o", str(out)]) == 0
        assert "skipped 5 torn or malformed line(s)" in \
            capsys.readouterr().err
        assert json.loads(out.read_text())["traceEvents"]

    @settings(max_examples=60, deadline=None)
    @given(content=st.binary(max_size=200))
    def test_span_file_of_arbitrary_bytes(self, content):
        with tempfile.TemporaryDirectory() as directory:
            _read_back(directory, content)

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(_JSON | _RECORD, max_size=6))
    def test_span_file_of_arbitrary_json_lines(self, lines):
        content = "\n".join(json.dumps(line) for line in lines).encode()
        with tempfile.TemporaryDirectory() as directory:
            merged = _read_back(directory, content)
        assert len(merged) + merged.skipped == len(lines)


def _dir_tracer(trace_dir) -> Tracer:
    """What ``--trace-dir DIR`` builds: per-process span files."""
    return Tracer(writers=(SpanWriter(trace_file(str(trace_dir))),))


class TestFleetTraceEndToEnd:
    def test_cold_soak_trace_spans_all_four_services(self, tmp_path):
        """The acceptance shape: one merged timeline per cold request,
        client.compile -> frontend.request -> shard.compile ->
        worker.run_task, across a real 2-shard TCP fleet."""
        trace_dir = tmp_path / "traces"
        tracer = _dir_tracer(trace_dir)
        cells = _grid()
        fleet = _fast_fleet(tmp_path, tracer=tracer)
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()
        try:
            report = run_soak(endpoint, cells, clients=4, tracer=tracer)
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
        fleet = _fast_fleet(tmp_path, tracer=_dir_tracer(trace_dir))
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
            tmp_path, tracer=_dir_tracer(trace_dir), batch_size=1,
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
        # The fleet's lifecycle instants share its span file, so the
        # merged timeline shows the kill and the restart.
        lifecycle = {span.name for span in merged.find(service="fleet")
                     if span.instant}
        assert {"fleet.start", "shard.start", "shard.kill",
                "shard.restart", "fleet.close"} <= lifecycle
        assert any(event["ph"] == "i" and event["name"] == "shard.restart"
                   for event in merged.to_chrome()["traceEvents"])
