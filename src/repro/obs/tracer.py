"""Hierarchical tracing: nested spans with wall time and attributes.

A :class:`Tracer` records *spans* — named, attributed intervals nested by
a span stack — so one run of the pipeline can be replayed as a tree
("evaluate_grid" → "group" → "formation" / "cell" → "schedule_region" →
"prep"/"renaming"/"ddg"/"priorities"/"list_schedule").  It is the only
stage instrumentation: :meth:`Tracer.self_times` derives the per-stage
table (self seconds and count per span name) that ``--timings``, the
observability JSON and ``repro report`` print.  Pool workers record into
their own tracer and the parent adopts their spans with
:meth:`Tracer.graft`.  Two export formats:

* **JSONL** (:meth:`Tracer.write_jsonl`): one JSON object per finished
  span with its id, parent id, depth, relative start/end, and attributes
  — grep- and pandas-friendly;
* **Chrome trace-event JSON** (:meth:`Tracer.to_chrome` /
  :meth:`Tracer.write_chrome`): the ``{"traceEvents": [...]}`` format
  that loads directly in ``chrome://tracing`` and Perfetto.

Uninstrumented code paths use :data:`NULL_TRACER`, a shared no-op:
``span()`` returns a reusable singleton context manager and never reads
the clock, so passing no tracer costs an attribute call per
instrumentation point.

Timestamps come from ``time.perf_counter`` (injectable for tests), the
system-wide monotonic clock, so spans recorded in worker processes sit
on the parent's timeline; exports normalize to the first span's start,
so absolute clock epochs never leak into the files.
"""

from __future__ import annotations

import json
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence


class Span:
    """One finished (or still-open) traced interval."""

    __slots__ = ("sid", "parent", "name", "depth", "start", "end", "args",
                 "track")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 depth: int, start: float, args: Dict[str, object]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        #: The worker that recorded a grafted span (its Chrome-trace
        #: track); None for the tracer's own thread.
        self.track: Optional[int] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None \
            else "open"
        return f"<span {self.sid} {self.name!r} depth={self.depth} {state}>"


class _SpanHandle:
    """Context manager opening one span on enter, closing it on exit."""

    __slots__ = ("_tracer", "_span", "_name", "_args")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        # The span is created on __enter__, not here, so building a
        # handle without entering it records nothing.
        self._span: Optional[Span] = None
        self._name = name
        self._args = args

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._args)
        return self._span

    def __exit__(self, *exc) -> bool:
        assert self._span is not None
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects nested spans and instant events for one run.

    Spans nest per thread; it is safe to record from several threads.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self._clock = clock
        #: Every span ever opened, in open order (start-time order).
        self.spans: List[Span] = []
        #: Instant events: (timestamp, parent span id or None, name, args).
        self.events: List[tuple] = []
        # Spans nest per thread: the fleet's shard dispatchers record
        # ``serve.batch`` spans at the same time, and one shared stack
        # would nest one shard's batch under another's.  The lock keeps
        # span ids dense and in open order across threads.
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------------

    def span(self, name: str, **args) -> _SpanHandle:
        """Context manager recording one nested span named ``name``."""
        return _SpanHandle(self, name, args)

    def event(self, name: str, **args) -> None:
        """Record an instant (zero-duration) event at the current depth."""
        stack = self._stack
        parent = stack[-1].sid if stack else None
        self.events.append((self._clock(), parent, name, args))

    def _open(self, name: str, args: Dict[str, object]) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                sid=len(self.spans),
                parent=parent.sid if parent is not None else None,
                name=name,
                depth=len(stack),
                start=self._clock(),
                args=args,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        # Exceptions can leave deeper spans open; unwind to this span.
        stack = self._stack
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()

    # ------------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]

    def _epoch(self) -> float:
        starts = [span.start for span in self.spans]
        starts.extend(ts for ts, _parent, _name, _args in self.events)
        return min(starts) if starts else 0.0

    def to_chrome(self, process_name: str = "repro") -> Dict[str, object]:
        """The Chrome trace-event JSON object (``chrome://tracing`` /
        Perfetto).  Spans become complete (``"ph": "X"``) events with
        microsecond timestamps relative to the first span.  The tracer's
        own spans sit on track (``tid``) 0; spans grafted from a worker
        sit on that worker's track, named ``worker <track>``."""
        epoch = self._epoch()
        pid = os.getpid()
        events: List[Dict[str, object]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }]
        tracks = sorted({span.track for span in self.spans
                         if span.track is not None})
        for track in tracks:
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"name": f"worker {track}"},
            })
        for span in self.finished_spans():
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": 0 if span.track is None else span.track,
                "args": dict(span.args),
            })
        for ts, _parent, name, args in self.events:
            events.append({
                "name": name,
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": (ts - epoch) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": dict(args),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str, process_name: str = "repro") -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(process_name), handle, indent=1)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        """One JSON object per finished span, in start order."""
        epoch = self._epoch()
        with open(path, "w") as handle:
            for span in self.finished_spans():
                handle.write(json.dumps({
                    "sid": span.sid,
                    "parent": span.parent,
                    "name": span.name,
                    "depth": span.depth,
                    "start": span.start - epoch,
                    "end": (span.end or span.start) - epoch,
                    "dur": span.duration,
                    "args": dict(span.args),
                }, sort_keys=True))
                handle.write("\n")

    def graft(self, spans: Sequence[Span],
              track: Optional[int] = None) -> None:
        """Adopt every span of another tracer (``other.spans``, e.g. a
        pool worker's) under the innermost open span.  Timestamps are
        kept as recorded; ids and depths shift onto this tracer.
        ``track`` names the worker that recorded them (the engine passes
        its process id): :meth:`to_chrome` draws each worker on its own
        row, so concurrent workers' spans do not overlap on one."""
        stack = self._stack
        parent = stack[-1] if stack else None
        root = parent.sid if parent is not None else None
        depth = parent.depth + 1 if parent is not None else 0
        with self._lock:
            base = len(self.spans)
            for span in spans:
                span.parent = root if span.parent is None \
                    else span.parent + base
                span.sid += base
                span.depth += depth
                span.track = track
            self.spans.extend(spans)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``{"seconds": self time, "count": spans}``,
        sorted by name.  A span's self time is its duration minus its
        direct children's, floored at 0 (grafted worker spans run
        concurrently, so they can outlast their parent).  Without
        concurrent children the self times add up to the root spans'
        wall time."""
        finished = self.finished_spans()
        inner: Dict[int, float] = {}
        for span in finished:
            if span.parent is not None:
                inner[span.parent] = inner.get(span.parent, 0.0) \
                    + span.duration
        stages: Dict[str, Dict[str, float]] = {}
        for span in finished:
            stage = stages.get(span.name)
            if stage is None:
                stage = stages[span.name] = {"seconds": 0.0, "count": 0}
            stage["seconds"] += max(
                0.0, span.duration - inner.get(span.sid, 0.0))
            stage["count"] += 1
        return {name: stages[name] for name in sorted(stages)}

    def format_summary(self, top: Optional[int] = 8) -> str:
        """Span and event counts, then the ``top`` span names by self
        time (all of them for ``top=None``)."""
        stages = self.self_times()
        lines = [f"{len(self.finished_spans())} spans, "
                 f"{len(self.events)} events"]
        ranked = sorted(stages, key=lambda name: stages[name]["seconds"],
                        reverse=True)[:top]
        width = max((len(name) for name in ranked), default=0)
        for name in ranked:
            lines.append(f"{name:>{width}s}  {stages[name]['seconds']:8.4f}s"
                         f"  x{stages[name]['count']}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.spans)} spans>"


class _NullSpanHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """No-op :class:`Tracer` stand-in; never reads the clock."""

    __slots__ = ()

    def span(self, name: str, **args) -> _NullSpanHandle:
        return _NULL_SPAN

    def event(self, name: str, **args) -> None:
        pass


#: Shared no-op tracer: ``tracer = tracer or NULL_TRACER``.
NULL_TRACER = NullTracer()
