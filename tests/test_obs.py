"""Tests for the observability layer (:mod:`repro.obs`).

Covers the span model (nesting, exception unwinding, totals at close,
worker merging, the JSONL record schema and the Chrome export), the metrics registry (histograms, merge semantics,
snapshot round-trips, the active-registry scope), the determinism
contract (serial vs ``jobs=2`` evaluation of the same grid serializes
byte-identically), the pipeline instrumentation points, the schedule
annotations on DOT export, and the CLI surfacing (``repro trace``,
``--metrics``/``--trace``/``--timings-json``).
"""

import json
import multiprocessing

import pytest

from repro import api
from repro.api import GridCell
from repro.cli import main
from repro.core import form_treegions
from repro.evaluation.engine import evaluate_program
from repro.evaluation.schemes import treegion_scheme, treegion_td_scheme
from repro.interp import profile_program
from repro.ir.dot import cfg_to_dot
from repro.machine import VLIW_4U
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    SpanWriter,
    Tracer,
    current_metrics,
    merge_traces,
    metrics_scope,
    read_spans,
    trace_file,
)
from repro.obs.metrics import observability_snapshot
from repro.schedule import ScheduleOptions
from repro.schedule.scheduler import schedule_partition
from repro.workloads import build_benchmark

from tests.helpers import diamond_function, program_with
from tests.test_regions_formation import build_figure1_like


class FakeClock:
    """Deterministic clock: every read advances one 'second'."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


# ----------------------------------------------------------------------
# Tracer


def _worker_task(directory, trace_id, parent):
    """A forked worker's task, streamed to its own per-pid file."""
    tracer = Tracer(service="worker",
                    writers=(SpanWriter(trace_file(directory)),))
    with tracer.span("task", parent=parent, trace_id=trace_id):
        with tracer.span("ddg"):
            pass
    tracer.close()


class TestTracer:
    def test_span_nesting_and_ordering(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer(clock=FakeClock(), writers=(SpanWriter(path),))
        with tracer.span("outer", kind="test"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        tracer.close()

        spans, skipped = read_spans(path)
        assert skipped == 0
        # Records land as spans close: children before their parent.
        assert [s.name for s in spans] == ["first", "second", "outer"]
        first, second, outer = spans
        assert outer.parent_id is None
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id
        # Siblings are ordered by start time; the parent brackets both.
        assert first.start < second.start
        assert outer.start < first.start
        assert outer.end > second.end
        assert outer.args == {"kind": "test"}

    def test_span_durations_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a") as span:
            pass
        assert span.duration == pytest.approx(1.0)
        assert tracer.self_times() == {"a": {"seconds": 1.0, "count": 1}}

    def test_exception_still_closes_spans(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner") as inner:
                    raise RuntimeError("boom")
        assert sorted(tracer.self_times()) == ["inner", "outer"]
        assert inner.annotations == ("error",)
        assert inner.args["error"] == "RuntimeError: boom"
        # The stack fully unwound: a new span is a root again.
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_orphaned_span_unwound_by_ancestor_close(self):
        # A span opened without its context manager is abandoned when
        # an ancestor closes: the stack must not leak it.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            leaked = tracer.span("leaked")
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None
        assert "leaked" not in tracer.self_times()
        # Closing the orphan late neither reopens nor pops anything.
        with tracer.span("late") as late:
            leaked.finish()
            with tracer.span("inside") as inside:
                pass
        assert inside.parent_id == late.span_id

    def test_events_attach_to_current_span(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer(clock=FakeClock(), writers=(SpanWriter(path),))
        tracer.event("root_event")
        with tracer.span("outer") as outer:
            tracer.event("nested", n=3)
        tracer.close()
        events = [s for s in read_spans(path)[0] if s.instant]
        assert [(e.name, e.parent_id) for e in events] == [
            ("root_event", None), ("nested", outer.span_id)]
        assert events[1].args == {"n": 3}
        assert events[1].duration == 0.0
        # Instants are counted, not timed.
        assert tracer.format_summary().startswith("1 spans, 2 events")
        assert "nested" not in tracer.self_times()

    def test_null_tracer_is_reusable_and_silent(self):
        handle = NULL_TRACER.span("anything", a=1)
        with handle:
            with NULL_TRACER.span("nested"):
                NULL_TRACER.event("e")
        # Same singleton span every time — no allocation per call.
        assert NULL_TRACER.span("other") is handle
        assert NULL_TRACER.start("remote", trace_id="t") is handle
        assert handle.span_id is None and handle.trace_id is None

    def test_self_times_nested_and_sibling_spans(self):
        # FakeClock: every read advances one second.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:      # 100 .. 107
            with tracer.span("stage"):         # 101 .. 102
                pass
            with tracer.span("stage"):         # 103 .. 106
                with tracer.span("inner"):     # 104 .. 105
                    pass
        assert tracer.self_times() == {
            "inner": {"seconds": 1.0, "count": 1},
            "root": {"seconds": 3.0, "count": 1},
            "stage": {"seconds": 3.0, "count": 2},
        }
        total = sum(s["seconds"] for s in tracer.self_times().values())
        assert total == root.duration

    def test_merge_adopts_worker_totals_under_the_open_span(self):
        workers = []
        for _ in range(2):
            worker = Tracer(clock=FakeClock(101.0))
            with worker.span("task") as task:  # 101 .. 104
                with worker.span("ddg"):       # 102 .. 103
                    pass
            workers.append((worker.self_times(), task.duration))
        parent = Tracer(clock=FakeClock())
        with parent.span("grid"):              # 100 .. 103
            with parent.span("pool") as pool:  # 101 .. 102
                for totals, seconds in workers:
                    parent.merge(totals, parent=pool, seconds=seconds)
        assert pool.duration == 1.0
        # The concurrent tasks outlast the pool span: its self time is
        # floored at 0, and worker stage times sum across workers.
        assert parent.self_times() == {
            "ddg": {"seconds": 2.0, "count": 2},
            "grid": {"seconds": 2.0, "count": 1},
            "pool": {"seconds": 0.0, "count": 1},
            "task": {"seconds": 4.0, "count": 2},
        }

    def test_workers_export_on_their_own_tracks(self, tmp_path):
        directory = str(tmp_path)
        parent = Tracer(writers=(SpanWriter(trace_file(directory)),))
        with parent.span("pool") as pool:
            context = multiprocessing.get_context("spawn")
            workers = [context.Process(
                target=_worker_task,
                args=(directory, pool.trace_id, pool.span_id))
                for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        parent.close()
        assert all(worker.exitcode == 0 for worker in workers)
        merged = merge_traces(directory)
        tasks = merged.find(name="task")
        assert len(tasks) == 2
        assert all(task.parent_id == pool.span_id for task in tasks)
        events = merged.to_chrome()["traceEvents"]
        labels = {e["pid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M"}
        tracks = {(e["name"], e["pid"]) for e in events if e["ph"] == "X"}
        (pool_track,) = [pid for name, pid in tracks if name == "pool"]
        task_tracks = {pid for name, pid in tracks if name == "task"}
        assert len(task_tracks) == 2 and pool_track not in task_tracks
        assert {pid for name, pid in tracks if name == "ddg"} == task_tracks
        assert sorted(labels[pid].split()[0] for pid in task_tracks) == [
            "worker", "worker"]
        # Each task hangs off the pool span by one cross-track flow
        # arrow; a span nested on its own track needs none.
        assert len([e for e in events if e["ph"] == "s"]) == 2

    def test_format_summary_mentions_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("alpha"):
            pass
        text = tracer.format_summary()
        assert "1 spans" in text
        assert "alpha" in text


class TestTraceExport:
    def _traced(self, path) -> Tracer:
        tracer = Tracer(clock=FakeClock(), writers=(SpanWriter(path),))
        with tracer.span("outer", machine="4U"):
            with tracer.span("inner"):
                pass
            tracer.event("ping", n=1)
        tracer.close()
        return tracer

    def test_chrome_schema_round_trip(self, tmp_path):
        spans = str(tmp_path / "spans.jsonl")
        self._traced(spans)
        path = tmp_path / "trace.json"
        merge_traces([spans]).write_chrome(str(path))
        doc = json.loads(path.read_text())

        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert isinstance(events, list)

        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "process_name"

        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner"]
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid",
                    "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Timestamps are normalized: the first span starts at ts=0.
        assert complete[0]["ts"] == 0
        assert complete[0]["args"] == {"machine": "4U"}

        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["ping"]
        assert instants[0]["args"] == {"n": 1}

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        self._traced(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # One schema for spans and instants, written as each closes.
        assert [(row["kind"], row["name"]) for row in rows] == [
            ("span", "inner"), ("event", "ping"), ("span", "outer")]
        assert all(set(row) == {
            "kind", "name", "trace", "span", "parent", "service", "shard",
            "pid", "start", "dur", "args", "annotations"} for row in rows)
        inner, ping, outer = rows
        assert outer["parent"] is None and outer["start"] == 100.0
        assert inner["parent"] == ping["parent"] == outer["span"]
        assert outer["dur"] == 4.0 and ping["dur"] == 0.0


# ----------------------------------------------------------------------
# Metrics


class TestHistogram:
    def test_observe_stats_and_buckets(self):
        histogram = Histogram()
        for value in (0, 1, 2, 3, 7):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == 13
        assert (histogram.min, histogram.max) == (0, 7)
        assert histogram.mean == pytest.approx(13 / 5)
        # bucket = bit_length: 0 -> 0, 1 -> 1, {2,3} -> 2, {4..7} -> 3.
        assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 1}

    def test_merge_equals_union_of_observations(self):
        left, right, union = Histogram(), Histogram(), Histogram()
        for value in (1, 5, 9):
            left.observe(value)
            union.observe(value)
        for value in (2, 5):
            right.observe(value)
            union.observe(value)
        left.merge(right)
        assert left.as_dict() == union.as_dict()

    def test_dict_round_trip(self):
        histogram = Histogram()
        for value in (3, 3, 16):
            histogram.observe(value)
        clone = Histogram.from_dict(
            json.loads(json.dumps(histogram.as_dict()))
        )
        assert clone.as_dict() == histogram.as_dict()

    def test_empty_round_trip(self):
        clone = Histogram.from_dict(Histogram().as_dict())
        assert clone.count == 0 and clone.min is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("ops")
        metrics.inc("ops", 4)
        metrics.gauge("cache.hits", 17)
        metrics.observe("length", 8)
        assert metrics.counters["ops"] == 5
        assert metrics.gauges["cache.hits"] == 17
        assert metrics.histograms["length"].count == 1

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.gauge("g", 10)
        b.gauge("g", 4)
        a.observe("h", 1)
        b.observe("h", 2)
        a.merge(b)
        assert a.counters == {"n": 5, "only_b": 1}
        assert a.gauges == {"g": 10}  # max, not sum
        assert a.histograms["h"].count == 2

    def test_snapshot_keys_sorted(self):
        metrics = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            metrics.inc(name)
        snap = metrics.snapshot()
        assert list(snap["counters"]) == ["alpha", "mid", "zeta"]

    def test_deterministic_snapshot_excludes_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.gauge("g", 1.0)
        metrics.observe("h", 2)
        snap = metrics.deterministic_snapshot()
        assert set(snap) == {"counters", "histograms"}

    def test_snapshot_merge_round_trip(self):
        # Two "workers" shipped home as snapshots must equal a direct
        # in-process merge — this is the engine's worker protocol.
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.inc("n", 2)
        w1.observe("h", 4)
        w2.inc("n", 5)
        w2.observe("h", 9)

        via_snapshots = MetricsRegistry()
        via_snapshots.merge_snapshot(json.loads(json.dumps(w1.snapshot())))
        via_snapshots.merge_snapshot(json.loads(json.dumps(w2.snapshot())))

        direct = MetricsRegistry()
        direct.merge(w1)
        direct.merge(w2)
        assert via_snapshots.snapshot() == direct.snapshot()

    def test_merge_is_commutative(self):
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.inc("a", 3)
        w1.observe("h", 1)
        w2.inc("a", 4)
        w2.inc("b")
        w2.observe("h", 6)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(w1)
        ab.merge(w2)
        ba.merge(w2)
        ba.merge(w1)
        assert ab.snapshot() == ba.snapshot()

    def test_format_table_stable_order(self):
        metrics = MetricsRegistry()
        metrics.inc("b.counter", 2)
        metrics.inc("a.counter", 1)
        metrics.observe("h.hist", 3)
        metrics.gauge("z.gauge", 9)
        lines = metrics.format_table().splitlines()
        names = [line.split()[0] for line in lines]
        # Counters first (sorted), then histograms, then gauges.
        assert names == ["a.counter", "b.counter", "h.hist", "z.gauge"]
        assert metrics.format_table() == metrics.format_table()

    def test_observability_snapshot_folds_timer(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        tracer = Tracer(clock=FakeClock())
        for _ in range(2):
            with tracer.span("formation"):
                pass
        snap = observability_snapshot(metrics, tracer)
        assert snap["counters"] == {"c": 1}
        assert snap["stages"] == {"formation": {"seconds": 2.0, "count": 2}}
        assert snap["total_seconds"] == pytest.approx(2.0)
        assert "stages" not in observability_snapshot(metrics, NULL_TRACER)


class TestGaugeModes:
    def test_default_max_is_a_high_water_mark(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("memo.entries", 14, mode="max")
        b.gauge("memo.entries", 9)
        a.merge(b)
        assert a.gauges["memo.entries"] == 14

    def test_last_mode_adopts_the_incoming_value(self):
        # A shard's *current* queue depth: after the queue drains, the
        # newest snapshot must win or the stale peak pins forever.
        fleet, shard = MetricsRegistry(), MetricsRegistry()
        fleet.gauge("fleet.queued", 120, mode="last")
        shard.gauge("fleet.queued", 0, mode="last")
        fleet.merge(shard)
        assert fleet.gauges["fleet.queued"] == 0

    def test_receiver_learns_mode_from_the_incoming_side(self):
        receiver, sender = MetricsRegistry(), MetricsRegistry()
        sender.gauge("fleet.inflight", 3, mode="last")
        receiver.merge(sender)
        sender2 = MetricsRegistry()
        sender2.gauge("fleet.inflight", 1, mode="last")
        receiver.merge(sender2)
        assert receiver.gauges["fleet.inflight"] == 1

    def test_mode_is_sticky_until_changed(self):
        metrics = MetricsRegistry()
        metrics.gauge("g", 5, mode="last")
        metrics.gauge("g", 7)  # no mode -> keeps "last"
        assert metrics.gauge_modes == {"g": "last"}
        metrics.gauge("g", 9, mode="max")  # explicit reset
        assert metrics.gauge_modes == {}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().gauge("g", 1, mode="sum")

    def test_modes_round_trip_through_snapshots(self):
        worker = MetricsRegistry()
        worker.gauge("fleet.queued", 4, mode="last")
        worker.gauge("memo.entries", 10, mode="max")
        snap = json.loads(json.dumps(worker.snapshot()))
        assert snap["gauge_modes"] == {"fleet.queued": "last"}
        clone = MetricsRegistry.from_snapshot(snap)
        assert clone.gauge_modes == {"fleet.queued": "last"}
        clone.merge_snapshot(
            {"gauges": {"fleet.queued": 1, "memo.entries": 6}})
        assert clone.gauges == {"fleet.queued": 1, "memo.entries": 10}

    def test_mode_free_snapshot_keeps_the_old_shape(self):
        # Back-compat: registries that never used "last" serialize
        # exactly as before the modes existed.
        metrics = MetricsRegistry()
        metrics.gauge("g", 1)
        metrics.gauge("h", 2, mode="max")
        assert "gauge_modes" not in metrics.snapshot()
        assert set(metrics.snapshot()) == {"counters", "gauges",
                                           "histograms"}

    def test_format_table_names_the_mode(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth", 3, mode="last")
        metrics.gauge("peak", 9)
        table = metrics.format_table()
        assert "(gauge:last)" in table
        assert "(gauge:max)" in table

    def test_null_metrics_accepts_mode(self):
        NullMetrics().gauge("g", 1, mode="last")


class TestRollingHistogram:
    def _rolling(self, clock):
        from repro.obs import RollingHistogram

        return RollingHistogram(window_seconds=10.0, windows=3,
                                clock=clock)

    def test_summary_over_live_windows(self):
        now = {"t": 0.0}
        rolling = self._rolling(lambda: now["t"])
        for value in (100, 200, 400):
            rolling.observe(value)
        summary = rolling.summary()
        assert summary["count"] == 3
        assert summary["min"] == 100 and summary["max"] == 400
        assert summary["window_seconds"] == 30.0
        assert summary["p50"] >= 200
        assert summary["p99"] <= 400

    def test_old_windows_age_out(self):
        now = {"t": 0.0}
        rolling = self._rolling(lambda: now["t"])
        rolling.observe(1_000_000)  # a slow outlier at t=0
        now["t"] = 15.0
        rolling.observe(100)
        assert rolling.merged().count == 2  # still inside the horizon
        now["t"] = 35.0  # window 0 is now beyond 3x10s
        rolling.observe(100)
        merged = rolling.merged()
        assert merged.count == 2
        assert merged.max == 100  # the outlier no longer dominates p99

    def test_empty_summary(self):
        now = {"t": 0.0}
        summary = self._rolling(lambda: now["t"]).summary()
        assert summary["count"] == 0
        assert summary["p99"] is None

    def test_rejects_degenerate_config(self):
        from repro.obs import RollingHistogram

        with pytest.raises(ValueError):
            RollingHistogram(window_seconds=0)
        with pytest.raises(ValueError):
            RollingHistogram(windows=0)


class TestMetricsScope:
    def test_default_is_null(self):
        assert current_metrics() is NULL_METRICS

    def test_scope_installs_and_restores(self):
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert current_metrics() is metrics
            current_metrics().inc("seen")
        assert current_metrics() is NULL_METRICS
        assert metrics.counters == {"seen": 1}

    def test_inner_scope_wins(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metrics_scope(outer):
            with metrics_scope(inner):
                assert current_metrics() is inner
            assert current_metrics() is outer

    def test_null_scope_does_not_shadow(self):
        # An uninstrumented intermediate layer passing NULL_METRICS must
        # not hide the instrumented caller's registry.
        outer = MetricsRegistry()
        with metrics_scope(outer):
            with metrics_scope(NULL_METRICS):
                assert current_metrics() is outer

    def test_scope_restored_after_exception(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            with metrics_scope(metrics):
                raise ValueError
        assert current_metrics() is NULL_METRICS

    def test_null_metrics_api_is_silent(self):
        null = NullMetrics()
        null.inc("x")
        null.gauge("y", 1)
        null.observe("z", 2)
        null.merge(MetricsRegistry())
        null.merge_snapshot({})


# ----------------------------------------------------------------------
# Determinism contract + pipeline instrumentation


GRID = [GridCell("compress", scheme, "4U", "global_weight")
        for scheme in ("bb", "treegion", "treegion-td:2.0")]


class TestMergeDeterminism:
    def test_serial_and_parallel_metrics_byte_identical(self):
        serial_metrics = MetricsRegistry()
        parallel_metrics = MetricsRegistry()
        serial = api.evaluate_grid(GRID, jobs=1, metrics=serial_metrics)
        parallel = api.evaluate_grid(GRID, jobs=2,
                                     metrics=parallel_metrics)

        for a, b in zip(serial, parallel):
            assert a.time == b.time

        dump_serial = json.dumps(serial_metrics.deterministic_snapshot(),
                                 sort_keys=True)
        dump_parallel = json.dumps(
            parallel_metrics.deterministic_snapshot(), sort_keys=True)
        assert dump_serial == dump_parallel

        counters = serial_metrics.counters
        assert counters["engine.cells"] == len(GRID)
        assert counters["formation.regions"] > 0
        assert counters["schedule.regions"] > 0
        assert counters["ddg.nodes"] > 0


class TestPipelineCounters:
    def test_evaluate_program_populates_counters(self):
        program = build_benchmark("compress")
        metrics = MetricsRegistry()
        tracer = Tracer()
        options = ScheduleOptions(heuristic="global_weight",
                                  dominator_parallelism=True)
        evaluate_program(program, treegion_scheme(), VLIW_4U, options,
                         metrics=metrics, tracer=tracer)

        counters = metrics.counters
        assert counters["formation.regions"] >= 1
        assert counters["formation.blocks"] >= counters["formation.regions"]
        assert counters["schedule.regions"] == counters["formation.regions"]
        assert counters["schedule.cycles"] > 0
        assert counters["ddg.nodes"] > 0
        assert counters["ddg.edges"] > 0
        # One histogram sample per scheduled region.
        lengths = metrics.histograms["schedule.length"]
        assert lengths.count == counters["schedule.regions"]
        assert lengths.total == counters["schedule.cycles"]

        names = tracer.self_times()
        assert "evaluate_program" in names
        assert "schedule_region" in names
        assert "list_schedule" in names

    def test_tail_duplication_counters(self):
        program = build_benchmark("compress")
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            evaluate_program(program, treegion_td_scheme(), VLIW_4U,
                             ScheduleOptions(heuristic="global_weight"))
        assert metrics.counters.get("tail_dup.blocks", 0) > 0
        assert metrics.counters.get("tail_dup.ops", 0) > 0

    def test_simulator_records_gauges(self):
        program = program_with(diamond_function())
        profile_program(program, inputs=[[5]])
        metrics = MetricsRegistry()
        _result, simulator = api.simulate(program, "treegion", "4U",
                                          args=[5])
        simulator.record_metrics(metrics)
        assert metrics.gauges["sim.cycles"] > 0
        assert metrics.gauges["sim.region_visits"] > 0
        assert "sim.squashes" in metrics.gauges
        # Gauges stay out of the deterministic snapshot.
        assert "gauges" not in metrics.deterministic_snapshot()


# ----------------------------------------------------------------------
# DOT schedule annotation


class TestDotScheduleAnnotation:
    def _scheduled(self):
        fn = build_figure1_like()
        partition = form_treegions(fn.cfg)
        schedules = schedule_partition(
            partition, VLIW_4U, ScheduleOptions(heuristic="global_weight")
        )
        return fn, partition, schedules

    def test_blocks_annotated_with_cycles(self):
        fn, partition, schedules = self._scheduled()
        dot = cfg_to_dot(fn.cfg, partition=partition, schedules=schedules)
        assert "sched:" in dot
        assert "cycles)" in dot  # cluster labels carry schedule length

    def test_no_annotation_without_schedules(self):
        fn, partition, _schedules = self._scheduled()
        dot = cfg_to_dot(fn.cfg, partition=partition)
        assert "sched:" not in dot


# ----------------------------------------------------------------------
# CLI surfacing


SOURCE = """
func main(a) {
    var x = 0;
    if (a > 3) { x = a * 2; } else { x = a + 10; }
    return x;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(SOURCE)
    return str(path)


class TestObservabilityCLI:
    def test_trace_command_writes_chrome_json(self, source_file, tmp_path,
                                              capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        metrics_out = tmp_path / "metrics.json"
        assert main(["trace", source_file, "--args", "5",
                     "--out", str(out), "--jsonl", str(jsonl),
                     "--metrics-out", str(metrics_out)]) == 0

        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "evaluate_program" in names
        assert "list_schedule" in names

        rows = [json.loads(line)
                for line in jsonl.read_text().splitlines()]
        assert any(row["name"] == "schedule_region" for row in rows)

        metrics_doc = json.loads(metrics_out.read_text())
        assert metrics_doc["counters"]["schedule.regions"] > 0
        assert "stages" in metrics_doc

        stdout = capsys.readouterr().out
        assert "estimated time" in stdout
        assert "schedule.regions" in stdout

    def test_run_metrics_and_trace_flags(self, source_file, tmp_path):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["run", source_file, "--args", "5",
                     "--metrics", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["counters"]["schedule.regions"] > 0
        assert metrics_doc["gauges"]["sim.cycles"] > 0
        trace_doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "simulate"
                   for e in trace_doc["traceEvents"])

    def test_temporary_trace_dir_is_removed(self, source_file, tmp_path,
                                            monkeypatch, capsys):
        """``--trace`` without ``--trace-dir`` streams spans under a
        temporary directory; it goes once the command ends, also when
        the command fails."""
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        trace_path = tmp_path / "t.json"
        assert main(["run", source_file, "--args", "5",
                     "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        assert list(scratch.iterdir()) == []
        endpoint = f"unix://{tmp_path / 'missing' / 'repro.sock'}"
        assert main(["serve", "--endpoint", endpoint, "--shards", "1",
                     "--trace", str(trace_path)]) == 2
        assert "cannot listen" in capsys.readouterr().err
        assert list(scratch.iterdir()) == []

    def test_bench_timings_json(self, tmp_path, capsys):
        timings = tmp_path / "timings.json"
        assert main(["bench", "--benchmarks", "compress",
                     "--schemes", "bb,treegion", "--machine", "4U",
                     "--metrics", str(tmp_path / "m.json"),
                     "--timings-json", str(timings)]) == 0
        doc = json.loads(timings.read_text())
        assert doc["total_seconds"] > 0
        assert "formation" in doc["stages"]
        assert doc["counters"]["engine.cells"] > 0
        capsys.readouterr()

    def test_dot_schedule_flag(self, source_file, capsys):
        assert main(["dot", source_file, "--schedule"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "sched:" in out
