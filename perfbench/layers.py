"""Per-layer profile recorded from outside the program.

The benchmark times each layer by wrapping the public functions the
program calls into it.  A wrapper must sit at every place the program
looks the function up: on the class for methods, and in every ``repro``
module that imported the function by name (``prepare_region`` is bound in
both ``repro.schedule.scheduler`` and ``repro.schedule.memo``).
:meth:`Layers.install` finds those bindings by identity, so a module that
imports a function by name cannot slip past it.

Spans are kept in memory.  A worker process forked from the traced
process (the compile service's pool) inherits the wrappers; it appends
its spans to a spill file after each of its top-level spans, and the
parent merges the files once the worker has exited.  ``perf_counter``
reads the system-wide monotonic clock, so the two processes' spans share
one time line.

Every span records its parent: the innermost open span on its own
thread, else the deepest open span of any thread of the process (the
front-end hop of a request nests under the client that is blocked
waiting for it), else none.  A worker's top-level spans are adopted, when
the parent merges them, by the deepest span of the parent process open
when they start (the service wait).  A layer's self time is its span's
duration minus the time covered by its child spans.  The self times and
the time no span covers add up to the wall time only when the spans
nest: two spans that run at once without one being the other's parent
count the shared time twice, which is what the traced run's self-test
checks.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import importlib
import inspect
import json
import os
import sys
import threading
from bisect import bisect_right
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Depth added to spans recorded in a forked worker: they run while the
#: parent waits on them, so they are the deepest thing open.
WORKER_DEPTH = 1000

#: (layer, start, end, depth, span id, parent span id or None).  A span
#: id holds the recording process's pid in its high bits.
Span = Tuple[str, float, float, int, int, Optional[int]]

#: Modules whose by-name bindings the wrappers must cover; imported
#: before the scan so their bindings exist.
MODULES = (
    "repro.api",
    "repro.evaluation.engine",
    "repro.schedule.scheduler",
    "repro.schedule.memo",
    "repro.serve.service",
    "repro.serve.fleet",
    "repro.serve.frontend",
    "repro.serve.client",
)


class Recorder:
    """Spans, counters and gauges of one process (and its workers)."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.base = 0
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    def _clear(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.open: Dict[int, list] = {}   # span id -> entry
        self.next_id = os.getpid() << 32
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.gauges: Dict[str, float] = {}

    def _after_fork(self) -> None:
        # Locks and thread stacks copied from the parent are meaningless
        # here; the worker starts empty and nests under the parent.
        self._clear()
        self.base = WORKER_DEPTH

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def begin(self, layer: str, detached: bool = False) -> Optional[list]:
        """Open a span; None when ``layer`` is already open on this thread
        (a layer calling itself is one span, counted once)."""
        stack = self._stack()
        if any(entry[0] == layer for entry in stack):
            return None
        with self.lock:
            if stack:
                parent = stack[-1]
            else:
                parent = max(self.open.values(), default=None,
                             key=lambda entry: entry[1])
            depth = self.base if parent is None else parent[1] + 1
            sid = self.next_id
            self.next_id += 1
            entry = [layer, depth, perf_counter(), sid,
                     None if parent is None else parent[3]]
            self.open[sid] = entry
        if not detached:
            stack.append(entry)
        return entry

    def end(self, entry: list, detached: bool = False) -> None:
        now = perf_counter()
        layer, depth, start, sid, parent = entry
        with self.lock:
            del self.open[sid]
            self.spans.append((layer, start, now, depth, sid, parent))
        if detached:
            return
        stack = self._stack()
        stack.pop()
        if not stack and os.getpid() != self.owner:
            self._spill()

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counts[name] += value

    def gauge(self, name: str, value: float) -> None:
        with self.lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def _spill(self) -> None:
        with self.lock:
            record = {"spans": self.spans, "counts": dict(self.counts),
                      "gauges": self.gauges}
            self.spans, self.counts, self.gauges = [], Counter(), {}
        path = os.path.join(self.spill_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def merge_spills(self) -> None:
        """Fold in (and delete) what exited workers spilled, and adopt
        the workers' top-level spans."""
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(tuple(span) for span in record["spans"])
                    self.counts.update(record["counts"])
                    for key, value in record["gauges"].items():
                        self.gauge(key, value)
            os.unlink(path)
        self.spans = _adopt(self.spans, self.owner)

    def reset(self) -> None:
        """Drop everything recorded so far, workers' spills included."""
        with self.lock:
            self.spans, self.counts, self.gauges = [], Counter(), {}
        for name in os.listdir(self.spill_dir):
            if name.startswith("worker-"):
                os.unlink(os.path.join(self.spill_dir, name))


# ----------------------------------------------------------------------
# Wrappers


def _timed(recorder: Recorder, layer: str, fn: Callable,
           on_result: Optional[Callable] = None) -> Callable:
    """``fn`` inside a ``layer`` span; ``on_result(args, result)`` counts."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            entry = recorder.begin(layer)
            if entry is None:
                return await fn(*args, **kwargs)
            try:
                result = await fn(*args, **kwargs)
            finally:
                recorder.end(entry)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entry = recorder.begin(layer)
        if entry is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(entry)
        if on_result is not None:
            on_result(args, result)
        return result
    return wrapper


class Layers:
    """Installs the layer wrappers; :meth:`uninstall` restores the program."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _function(self, module: str, attr: str, layer: str,
                  on_result=None, only: Sequence[str] = ()) -> None:
        """Wrap ``module.attr`` at every ``repro`` binding of it (or only
        in the modules named in ``only``)."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = _timed(self.recorder, layer, original, on_result)
        names = only or [name for name in sys.modules
                         if name == "repro" or name.startswith("repro.")]
        for name in names:
            bound = sys.modules.get(name)
            if bound is not None and vars(bound).get(attr) is original:
                self._set(bound, attr, wrapper)

    def _method(self, cls, attr: str, layer: str, on_result=None) -> None:
        self._set(cls, attr, _timed(self.recorder, layer, vars(cls)[attr],
                                    on_result))

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(module)
        from repro.evaluation.schemes import SchemeSpec
        from repro.ir.analysis_cache import AnalysisCache
        from repro.schedule.memo import RegionMemo
        from repro.serve.client import Client
        from repro.serve.fleet import CompileFleet
        from repro.serve.frontend import FleetFrontend
        from repro.serve.store import ArtifactStore

        rec = self.recorder
        count = rec.count

        # The engine's own work, not its entry points: time inside
        # ``evaluate_grid`` that no layer covers stays unattributed.
        for name in ("build_scheme", "machine_by_name", "_resolve_program",
                     "_schedule_function_partition", "_merge_partials"):
            self._function("repro.evaluation.engine", name, "engine")
        for name in ("clone_program", "clone_function"):
            self._function("repro.ir.clone", name, "clone")
        self._method(AnalysisCache, "liveness", "liveness")

        def formed(args, partition):
            count("formation.calls")
            count("formation.regions", len(partition))

        build = vars(SchemeSpec)["build"]

        def build_timed(spec):
            scheme = build(spec)
            return dataclasses.replace(
                scheme, form=_timed(rec, "formation", scheme.form, formed))
        self._set(SchemeSpec, "build", build_timed)

        self._function("repro.schedule.fingerprint", "region_fingerprint",
                       "fingerprint",
                       lambda args, result: count("fingerprint.calls"))
        memo_schedule = vars(RegionMemo)["schedule"]
        memo_timed = _timed(rec, "memo", memo_schedule)

        def memo_probe(memo, *args, **kwargs):
            hits, store_hits = memo.hits, memo.store_hits
            result = memo_timed(memo, *args, **kwargs)
            count("memo.probes")
            count("memo.hits", memo.hits - hits)
            count("memo.store_hits", memo.store_hits - store_hits)
            rec.gauge("memo.bytes", memo.bytes)
            return result
        self._set(RegionMemo, "schedule", memo_probe)

        gets = lambda args, result: count("store.gets")  # noqa: E731
        puts = lambda args, result: count("store.puts")  # noqa: E731
        self._method(ArtifactStore, "__init__", "store.get")
        self._method(ArtifactStore, "get", "store.get", gets)
        self._method(ArtifactStore, "get_payload", "store.get", gets)
        self._method(ArtifactStore, "put", "store.put", puts)
        self._method(ArtifactStore, "put_payload", "store.put", puts)
        self._method(ArtifactStore, "sync", "store.put")

        self._function("repro.schedule.prep", "prepare_region", "prep",
                       lambda args, problem: (
                           count("prep.calls"),
                           count("prep.ops", len(problem.sched_ops))))
        self._function("repro.schedule.renaming", "rename_region",
                       "renaming",
                       lambda args, copies: (
                           count("renaming.calls"),
                           count("renaming.copies", len(copies))))
        self._function("repro.schedule.ddg", "build_ddg", "ddg",
                       lambda args, ddg: (
                           count("ddg.calls"),
                           count("ddg.edges", ddg.num_edges)))
        for name in ("all_priority_keys", "priority_order"):
            self._function("repro.schedule.priorities", name, "priorities")
        self._function("repro.schedule.list_scheduler", "list_schedule",
                       "list_schedule",
                       lambda args, schedule: (
                           count("list_schedule.calls"),
                           count("list_schedule.cycles", schedule.length)))

        self._method(Client, "submit", "client")
        for name in ("encode_frame", "decode_frame_body", "request_to_wire",
                     "request_from_wire", "reply_to_wire", "reply_from_wire"):
            self._function("repro.serve.wire", name, "wire")
        # Payload codecs are wire work only where client and front-end
        # use them; inside the store they belong to the store layer.
        self._function("repro.serve.store", "result_from_payload", "wire",
                       only=["repro.serve.client"])
        self._function("repro.serve.store", "result_to_payload", "wire",
                       only=["repro.serve.frontend"])
        self._method(FleetFrontend, "_dispatch", "frontend")

        fleet_submit = _timed(rec, "fleet", vars(CompileFleet)["submit"])

        def submit_then_wait(fleet, request):
            handle = fleet_submit(fleet, request)
            count("fleet.submits")
            if handle.source == "hot":
                count("fleet.hot_hits")
            if not handle.done:
                # Submit-to-resolution: opened on the front-end thread,
                # closed by whichever thread resolves the job.
                wait = rec.begin("service.wait", detached=True)
                handle.add_done_callback(
                    lambda _done: rec.end(wait, detached=True))
            return handle
        self._set(CompileFleet, "submit", submit_then_wait)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Attribution


def _clip(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
          ) -> List[Span]:
    """Spans cut to the measured windows (sorted, disjoint)."""
    starts = [start for start, _ in windows]
    out = []
    for layer, start, end, *rest in spans:
        index = bisect_right(starts, start) - 1
        for w_start, w_end in windows[max(index, 0):]:
            if w_start >= end:
                break
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                out.append((layer, lo, hi, *rest))
    return out


def _adopt(spans: Sequence[Span], owner: int) -> List[Span]:
    """Spans with each worker's top-level spans given a parent: the
    deepest span of process ``owner`` open when the worker span starts."""
    local = sorted((span for span in spans if span[4] >> 32 == owner),
                   key=lambda span: span[1])
    out, orphans = [], []
    for span in spans:
        if span[5] is None and span[4] >> 32 != owner:
            orphans.append(span)
        else:
            out.append(span)
    heap: List[Tuple[int, float, float, int]] = []
    position = 0
    for layer, start, end, depth, sid, _ in sorted(
            orphans, key=lambda span: span[1]):
        while position < len(local) and local[position][1] <= start:
            _, l_start, l_end, l_depth, l_sid, _ = local[position]
            heapq.heappush(heap, (-l_depth, -l_start, l_end, l_sid))
            position += 1
        while heap and heap[0][2] <= start:
            heapq.heappop(heap)
        parent = heap[0][3] if heap else None
        out.append((layer, start, end, depth, sid, parent))
    return out


def union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    low = high = None
    for start, end in sorted(intervals):
        if high is None or start > high:
            if high is not None:
                total += high - low
            low, high = start, end
        else:
            high = max(high, end)
    if high is not None:
        total += high - low
    return total


def self_times(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
               ) -> Dict[str, float]:
    """Seconds of the windows each layer spent in itself: every span's
    duration minus the part of it that its child spans cover."""
    spans = _clip(spans, windows)
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for _, start, end, _, _, parent in spans:
        children.setdefault(parent, []).append((start, end))
    owned: Counter = Counter()
    for layer, start, end, _, sid, _ in spans:
        inside = [(max(lo, start), min(hi, end))
                  for lo, hi in children.get(sid, ())
                  if lo < end and hi > start]
        owned[layer] += (end - start) - union(inside)
    return dict(owned)


def covered(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
            ) -> float:
    """Seconds of the windows inside at least one span."""
    return union((start, end) for _, start, end, *_ in _clip(spans, windows))
