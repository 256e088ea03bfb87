"""One span model: spans, totals kept as spans close, one JSONL export.

A :class:`Tracer` records *spans*: named, attributed intervals with a
span id, a parent id and a trace id.  There are two ways to open one,
and both give a :class:`Span`:

* ``with tracer.span(name, **args):`` takes its parent from the calling
  thread's stack of open spans, so one run of the pipeline nests as a
  tree ("evaluate_grid" → "group" → "formation" / "cell" →
  "schedule_region" → "prep"/"renaming"/"ddg"/"priorities"/
  "list_schedule");
* ``tracer.start(name, parent=..., trace_id=...)`` then ``finish()``
  names its parent explicitly (a :class:`Span` or the span id of a
  span in another process), which lets the fleet hold a dispatch span
  open across its dispatcher, supervisor and callback threads.  A span
  started with neither a parent nor a trace id begins a new trace (a
  client's request).

Instant events are spans of zero duration (:meth:`Tracer.event`): the
engine's ``task_done`` and every fleet and front-end lifecycle event
(``shard.start``, ``shard.restart``, ``request.retry`` ...).

**Totals at close.**  The tracer keeps no span objects.  As a span
closes it adds its self time (its duration minus the durations of its
children that have closed) and a count to its name's totals; those
totals are :meth:`Tracer.self_times`, the per-stage table that
``--timings``, the observability JSON and ``repro report`` print.
Pool workers return their totals with their metrics snapshot and the
parent folds them in with :meth:`Tracer.merge`.

**Export.**  A tracer built with :class:`SpanWriter` instances appends
each closed span to a JSONL file as one record (the same schema for
spans and instants), flushed at close so spans survive a killed
process.  A writer whose path holds ``{service}`` and ``{pid}`` keeps a
file per process (``trace-<service>-<pid>.jsonl`` under a trace
directory, :func:`trace_file`); a writer with ``max_bytes`` rotates its
file by size (the fleet's ``--events-log``).  :func:`read_spans` is the
one reader (it skips, and counts, torn lines and records of the wrong
shape); :func:`merge_traces` stitches a directory of span files into a
:class:`MergedTrace`, whose :meth:`~MergedTrace.to_chrome` is the one
Chrome trace-event exporter (Perfetto / ``chrome://tracing``).

Uninstrumented code paths use :data:`NULL_TRACER`, a shared no-op:
``span()`` and ``start()`` return one reusable null span whose ids are
None and never read the clock.

Timestamps come from ``time.perf_counter`` (injectable for tests);
exported records shift them onto the wall clock, the clock separate
processes share.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import threading
import time
import uuid
from time import perf_counter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (one per logical client request)."""
    return uuid.uuid4().hex


# Span ids are 64-bit: a random per-process half and a counter, unique
# across the processes of one trace directory without a syscall per
# span, and spelled as hex only when something reads them.
_IDS = itertools.count(1)
_BASE = int.from_bytes(os.urandom(4), "big") << 32
_PID = os.getpid()


def _after_fork() -> None:
    global _BASE, _PID
    _BASE = int.from_bytes(os.urandom(4), "big") << 32
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


class Span:
    """One traced interval: open until it is finished, then a record.

    Live spans come from a :class:`Tracer`; :func:`read_spans` builds
    the same class from exported records.
    """

    __slots__ = ("name", "args", "trace_id", "service", "shard", "pid",
                 "start", "end", "duration", "instant", "annotations",
                 "_id", "_up", "_tracer", "_inner", "_stack")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object],
                 parent: Union["Span", str, None], trace_id: Optional[str],
                 stack: Optional[list]):
        self.name = name
        self.args = args
        self.trace_id = trace_id
        self.service = tracer.service
        self.shard = tracer.shard
        self.pid = _PID
        self.end: Optional[float] = None
        #: Seconds from start to end; 0.0 while open.
        self.duration = 0.0
        self.instant = False
        self.annotations: Tuple[str, ...] = ()
        self._id = _BASE + next(_IDS)
        #: The parent: the open local :class:`Span` (charged this span's
        #: duration), a span id, or its 64-bit form once it is closed.
        self._up = parent
        self._tracer: Optional[Tracer] = tracer
        #: Durations of this span's closed children.
        self._inner = 0.0
        #: The opening thread's stack while this span is on it.
        self._stack = stack
        self.start = tracer._clock()

    @property
    def span_id(self) -> str:
        """16 hex chars (32 for ids other tools minted)."""
        ident = self._id
        return ident if type(ident) is str else f"{ident:016x}"

    @property
    def parent_id(self) -> Optional[str]:
        up = self._up
        if up is None or type(up) is str:
            return up
        if type(up) is int:
            return f"{up:016x}"
        return up.span_id

    def annotate(self, tag: str) -> None:
        """Attach a plain-string marker (e.g. ``supervisor.restart``)."""
        if tag not in self.annotations:
            self.annotations += (tag,)

    def set(self, **args) -> None:
        """Merge more attributes into the span."""
        self.args.update(args)

    def finish(self, **args) -> None:
        """Close the span (idempotent)."""
        if self.end is not None or self._tracer is None:
            return
        if args:
            self.args.update(args)
        self._tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.annotate("error")
            self.args.setdefault("error", f"{exc_type.__name__}: {exc}")
        if self.end is None and self._tracer is not None:
            self._tracer._close(self)
        return False

    @classmethod
    def from_record(cls, record: object) -> "Span":
        """The span an exported record describes; raises ``ValueError``
        or ``TypeError`` for a record of the wrong shape."""
        if type(record) is not dict:
            raise TypeError("a span record is a JSON object")
        get = record.get
        ident, trace, parent = get("span"), get("trace"), get("parent")
        name, service = get("name", ""), get("service", "")
        shard, pid = get("shard"), get("pid", 0)
        args, annotations = get("args", {}), get("annotations", [])
        kind = get("kind", "span")
        # JSON decodes to exact types, so ``type(...) is`` also keeps a
        # bool out of the int fields.
        if not (type(ident) is str and ident
                and (trace is None or type(trace) is str)
                and (parent is None or type(parent) is str)
                and type(name) is str and type(service) is str
                and (shard is None or type(shard) is int)
                and type(pid) is int and type(args) is dict
                and type(annotations) is list
                and (not annotations
                     or all(type(tag) is str for tag in annotations))):
            raise TypeError("a span record of the wrong shape")
        if kind != "span" and kind != "event":
            raise ValueError(f"unknown record kind {kind!r:.40}")
        span = cls.__new__(cls)
        span._id, span.trace_id, span._up = ident, trace, parent
        span.name, span.service, span.shard, span.pid = \
            name, service, shard, pid
        span.start = _number(get("start", 0.0))
        span.duration = _number(get("dur", 0.0))
        if span.duration < 0:
            raise ValueError("negative span duration")
        span.end = _number(span.start + span.duration)
        span.instant = kind == "event"
        span.args = args
        span.annotations = tuple(annotations)
        span._tracer = span._stack = None
        span._inner = 0.0
        return span

    def __repr__(self) -> str:
        state = "open" if self.end is None \
            else f"{self.duration * 1e3:.3f}ms"
        return f"<span {self.service}:{self.name} {self.span_id} {state}>"


def _number(value) -> float:
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"expected a number, got {value!r:.40}")
    number = float(value)  # OverflowError is an ArithmeticError
    if not math.isfinite(number):
        raise ValueError("non-finite timestamp")
    return number


class Tracer:
    """Opens spans, totals them as they close, and exports them.

    Args:
        clock: Time source (``time.perf_counter``; injectable for
            tests).
        service: Process role stamped on every span (``repro`` /
            ``client`` / ``frontend`` / ``fleet`` / ``worker``).
        shard: Optional shard index stamped on every span.
        writers: :class:`SpanWriter` instances receiving each closed
            span.

    Spans nest per thread; it is safe to record from several threads.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter, *,
                 service: str = "repro", shard: Optional[int] = None,
                 writers: Sequence["SpanWriter"] = ()):
        self._clock = clock
        self.service = service
        self.shard = shard
        self.writers: Tuple[SpanWriter, ...] = tuple(writers)
        # Whether any writer takes spans, not only instants: an
        # instants-only event log needs no record built per span.
        self._spans_out = any(not writer.instants_only
                              for writer in self.writers)
        # perf_counter readings move onto the wall clock on export; an
        # injected clock's readings are exported as they are.
        self._offset = time.time() - perf_counter() \
            if clock is perf_counter else 0.0
        # Spans nest per thread: the fleet's shard dispatchers record
        # ``serve.batch`` spans at the same time, and one shared stack
        # would nest one shard's batch under another's.  Totals are per
        # thread too, so closing a span takes no lock; ``self_times``
        # adds the threads' totals up.
        self._local = threading.local()
        #: Every thread's (span name -> [self seconds, count], instant
        #: name -> count).
        self._threads: List[Tuple[Dict[str, list], Dict[str, int]]] = []
        self._lock = threading.Lock()

    def _thread(self):
        """The calling thread's stack, span totals and instant counts."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.totals, local.instants = [], {}, {}
            with self._lock:
                self._threads.append((local.totals, local.instants))
        return local

    # -- opening spans ---------------------------------------------------

    def span(self, name: str, *, parent: Union[Span, str, None] = None,
             trace_id: Optional[str] = None, **args) -> Span:
        """Open a span nested under the innermost open span of this
        thread (or under ``parent``: a :class:`Span` or a span id from
        another process).  Use it as a context manager; spans opened
        inside it on this thread nest under it."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._thread().stack
        if parent is None and stack:
            parent = stack[-1]
        if trace_id is None and type(parent) is Span:
            trace_id = parent.trace_id
        span = Span(self, name, args, parent, trace_id, stack)
        stack.append(span)
        return span

    def start(self, name: str, *, parent: Union[Span, str, None] = None,
              trace_id: Optional[str] = None, **args) -> Span:
        """Open a span under an explicit ``parent`` (a :class:`Span` or
        a remote span id), or at the root of a new trace when neither a
        parent nor ``trace_id`` is given.  Close it with
        :meth:`Span.finish` from any thread."""
        if trace_id is None:
            if parent is None:
                trace_id = new_trace_id()
            elif type(parent) is Span:
                trace_id = parent.trace_id
        return Span(self, name, args, parent, trace_id, None)

    def event(self, name: str, **args) -> None:
        """Record an instant (a zero-duration span) under the innermost
        open span of this thread."""
        stack = self._thread().stack
        parent = stack[-1] if stack else None
        span = Span(self, name, args, parent,
                    parent.trace_id if parent is not None else None, None)
        span.instant = True
        self._close(span)

    # -- closing spans ---------------------------------------------------

    def _close(self, span: Span) -> None:
        end = span.end = span.start if span.instant else self._clock()
        duration = span.duration = end - span.start
        stack = span._stack
        if stack is not None:
            # Exceptions can leave deeper spans open; unwind to this span.
            while stack and stack[-1] is not span:
                stack.pop()._stack = None
            if stack:
                stack.pop()
        span._stack = None
        local = self._local
        try:
            totals = local.totals
        except AttributeError:
            totals = self._thread().totals
        if span.instant:
            local.instants[span.name] = local.instants.get(span.name, 0) + 1
        else:
            entry = totals.get(span.name)
            if entry is None:
                entry = totals[span.name] = [0.0, 0]
            own = duration - span._inner
            entry[0] += own if own > 0.0 else 0.0
            entry[1] += 1
        parent = span._up
        if type(parent) is Span:
            # Children of one span close one at a time (on its thread),
            # so ``_inner`` takes no lock.  A closed span keeps its
            # parent's id, not the parent.
            parent._inner += duration
            span._up = parent._id
        if self._spans_out or (span.instant and self.writers):
            record = {
                "kind": "event" if span.instant else "span",
                "name": span.name,
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "service": span.service,
                "shard": span.shard,
                "pid": span.pid,
                "start": span.start + self._offset,
                "dur": duration,
                "args": span.args,
                "annotations": list(span.annotations),
            }
            for writer in self.writers:
                writer.write(record)

    # -- totals ----------------------------------------------------------

    def _summed(self) -> Tuple[Dict[str, list], Dict[str, int]]:
        """Span totals and instant counts, added up over threads."""
        with self._lock:
            threads = [(dict(totals), dict(instants))
                       for totals, instants in self._threads]
        spans: Dict[str, list] = {}
        events: Dict[str, int] = {}
        for totals, instants in threads:
            for name, (seconds, count) in totals.items():
                entry = spans.setdefault(name, [0.0, 0])
                entry[0] += seconds
                entry[1] += count
            for name, count in instants.items():
                events[name] = events.get(name, 0) + count
        return spans, events

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``{"seconds": self time, "count": spans}``,
        sorted by name.  Self time is floored at 0 (a pool's workers run
        concurrently, so their tasks can outlast the pool span).
        Without concurrent children the self times add up to the root
        spans' wall time."""
        spans = self._summed()[0]
        return {name: {"seconds": spans[name][0], "count": spans[name][1]}
                for name in sorted(spans)}

    def merge(self, totals: Dict[str, Dict[str, float]],
              parent: Optional[Span] = None, seconds: float = 0.0) -> None:
        """Fold another tracer's :meth:`self_times` in (a pool worker's).
        ``seconds`` of spans that ran elsewhere under ``parent`` count as
        its closed children."""
        mine = self._thread().totals
        for name, stage in totals.items():
            entry = mine.get(name)
            if entry is None:
                entry = mine[name] = [0.0, 0]
            entry[0] += stage["seconds"]
            entry[1] += stage["count"]
        if parent is not None:
            parent._inner += seconds

    def format_summary(self, top: Optional[int] = 8) -> str:
        """Span and event counts, then the ``top`` span names by self
        time (all of them for ``top=None``)."""
        stages = self.self_times()
        spans = sum(int(stage["count"]) for stage in stages.values())
        events = sum(self._summed()[1].values())
        lines = [f"{spans} spans, {events} events"]
        ranked = sorted(stages, key=lambda name: stages[name]["seconds"],
                        reverse=True)[:top]
        width = max((len(name) for name in ranked), default=0)
        for name in ranked:
            lines.append(f"{name:>{width}s}  {stages[name]['seconds']:8.4f}s"
                         f"  x{stages[name]['count']}")
        return "\n".join(lines)

    # -- export ----------------------------------------------------------

    @property
    def span_path(self) -> Optional[str]:
        """The per-process span file template this tracer streams every
        span to (the one pool workers stream theirs to), if any."""
        for writer in self.writers:
            if not writer.instants_only and "{pid}" in writer.path:
                return writer.path
        return None

    def for_service(self, service: str) -> "Tracer":
        """A tracer for ``service`` sharing this one's totals, stacks and
        writers: its spans carry ``service``, so a per-process writer
        puts them in ``trace-<service>-<pid>.jsonl``."""
        tracer = copy.copy(self)
        tracer.service = service
        return tracer

    def close(self) -> None:
        """Release the writers' files (a later span reopens them)."""
        for writer in self.writers:
            writer.close()

    def __repr__(self) -> str:
        return f"<Tracer {self.service}>"


class _NullSpan:
    """Shared no-op span; its ids are None so nothing propagates."""

    __slots__ = ()
    trace_id = span_id = parent_id = None

    def annotate(self, tag: str) -> None:
        pass

    def set(self, **args) -> None:
        pass

    def finish(self, **args) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op :class:`Tracer` stand-in; never reads the clock."""

    __slots__ = ()
    span_path = None

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def start(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **args) -> None:
        pass

    def for_service(self, service: str) -> "NullTracer":
        return self

    def close(self) -> None:
        pass


#: Shared no-op tracer: ``tracer = tracer or NULL_TRACER``.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# The writer


#: One encoder and one decoder for every record (``json.dumps`` with
#: options builds an encoder per call).
_encode = json.JSONEncoder(sort_keys=True, default=str).encode
_decode = json.JSONDecoder().decode


def trace_file(directory: str) -> str:
    """The per-process span file template under a trace directory."""
    return os.path.join(directory, "trace-{service}-{pid}.jsonl")


class SpanWriter:
    """Appends span records to a JSONL file, one line per closed span,
    flushed at once so the file survives an abrupt kill.

    Args:
        path: The file.  ``{service}`` and ``{pid}`` in it are filled
            per record, and the writer keeps one handle per process: a
            forked worker writes its own file and never interleaves
            with its parent through an inherited handle.
        instants_only: Write instant events only (the event log).
        max_bytes: Rotate by size: when the live file would exceed
            ``max_bytes`` before a write, it is renamed to
            ``<path>.1`` (older backups shift to ``.2`` …
            ``.<backups>``, the oldest dropped) and a fresh file is
            started, so every file is intact JSONL.  None = never.
        backups: Rotated files kept.

    Writing never raises into the caller: a dying disk must not take
    the fleet with it.  Thread-safe.
    """

    def __init__(self, path: str, *, instants_only: bool = False,
                 max_bytes: Optional[int] = None, backups: int = 3):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path = path
        self.instants_only = instants_only
        self.max_bytes = max_bytes
        self.backups = max(0, backups)
        self._lock = threading.Lock()
        #: file path -> [handle, bytes written]
        self._files: Dict[str, list] = {}
        self._pid: Optional[int] = None

    def write(self, record: Dict[str, object]) -> None:
        if self.instants_only and record["kind"] != "event":
            return
        try:
            line = _encode(record)
        except (TypeError, ValueError):
            # default=str covers most objects; tuple dict keys defeat
            # even that, and the record must still name its span.
            line = _encode(dict(record, args={
                "error": "unserializable fields"}))
        line += "\n"
        with self._lock:
            try:
                entry = self._file(str(record["service"]))
                if self.max_bytes is not None and entry[1] \
                        and entry[1] + len(line) > self.max_bytes:
                    self._rotate(entry)
                entry[0].write(line)
                entry[0].flush()
                entry[1] += len(line)
            except OSError:
                pass

    def _file(self, service: str) -> list:
        if self._pid != _PID:
            # Handles inherited across a fork belong to the parent.
            self._files = {}
            self._pid = _PID
        entry = self._files.get(service)
        if entry is None:
            path = self.path.replace("{service}", service) \
                .replace("{pid}", str(_PID))
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            handle = open(path, "a")
            entry = self._files[service] = [handle, os.path.getsize(path)]
        return entry

    def _rotate(self, entry: list) -> None:
        handle = entry[0]
        path = handle.name
        handle.close()
        if self.backups > 0:
            oldest = f"{path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                if os.path.exists(f"{path}.{index}"):
                    os.replace(f"{path}.{index}", f"{path}.{index + 1}")
            os.replace(path, f"{path}.1")
        else:
            os.remove(path)
        entry[0] = open(path, "a")
        entry[1] = 0

    def close(self) -> None:
        with self._lock:
            if self._pid == _PID:
                for handle, _size in self._files.values():
                    handle.close()
            self._files = {}

    def __repr__(self) -> str:
        return f"<SpanWriter {self.path!r}>"


# ----------------------------------------------------------------------
# The reader


def read_spans(path: str) -> Tuple[List[Span], int]:
    """The spans recorded in ``path`` and its rotated backups, oldest
    file first, and the number of lines skipped: torn writes from a
    killed process and records of the wrong shape."""
    paths: List[str] = []
    index = 1
    while os.path.exists(f"{path}.{index}"):
        paths.append(f"{path}.{index}")
        index += 1
    paths.reverse()
    if os.path.exists(path):
        paths.append(path)
    spans: List[Span] = []
    skipped = 0
    for name in paths:
        with open(name, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(Span.from_record(_decode(line.decode())))
                except (ValueError, TypeError, ArithmeticError,
                        RecursionError):
                    skipped += 1
    return spans, skipped


def read_events(path: str) -> List[Span]:
    """The instants retained in an event log (``--events-log``),
    oldest first across its rotated backups."""
    return [span for span in read_spans(path)[0] if span.instant]


def merge_traces(source: Union[str, Iterable[str]]) -> "MergedTrace":
    """Stitch span files into one :class:`MergedTrace`.

    ``source`` is a trace directory (every ``trace-*.jsonl`` under it)
    or an explicit iterable of file paths.
    """
    if isinstance(source, str):
        paths = sorted(
            os.path.join(source, name)
            for name in os.listdir(source)
            if name.startswith("trace-") and name.endswith(".jsonl")
        )
    else:
        paths = list(source)
    spans: List[Span] = []
    skipped = 0
    for path in paths:
        found, bad = read_spans(path)
        spans.extend(found)
        skipped += bad
    return MergedTrace(spans, skipped)


class MergedTrace:
    """Spans read back from one or more processes, as a forest."""

    def __init__(self, spans: List[Span], skipped: int = 0):
        self.spans = sorted(spans, key=lambda s: (s.start, s.name))
        #: Lines the reader skipped (torn or of the wrong shape).
        self.skipped = skipped
        self._children: Dict[str, List[Span]] = {}
        self._by_id: Dict[str, Span] = {}
        for span in self.spans:
            self._by_id[span.span_id] = span
            if span.parent_id:
                self._children.setdefault(span.parent_id, []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def trace_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.trace_id:
                seen.setdefault(span.trace_id)
        return list(seen)

    def roots(self, trace_id: Optional[str] = None) -> List[Span]:
        """Spans with no (present) parent — client-side request roots."""
        return [
            span for span in self.spans
            if (trace_id is None or span.trace_id == trace_id)
            and span.parent_id not in self._by_id
        ]

    def children(self, span: Span) -> List[Span]:
        return self._children.get(span.span_id, [])

    def find(self, name: Optional[str] = None,
             service: Optional[str] = None,
             annotation: Optional[str] = None,
             trace_id: Optional[str] = None) -> List[Span]:
        return [
            span for span in self.spans
            if (name is None or span.name == name)
            and (service is None or span.service == service)
            and (annotation is None or annotation in span.annotations)
            and (trace_id is None or span.trace_id == trace_id)
        ]

    def tree(self, trace_id: str) -> List[Dict[str, object]]:
        """The trace's span forest as nested dicts (test-friendly)."""
        seen = set()

        def node(span: Span) -> Dict[str, object]:
            seen.add(id(span))
            return {
                "name": span.name,
                "service": span.service,
                "shard": span.shard,
                "annotations": list(span.annotations),
                "args": dict(span.args),
                "children": [node(child) for child in self.children(span)
                             if id(child) not in seen],
            }

        return [node(root) for root in self.roots(trace_id)]

    def services(self) -> List[str]:
        return sorted({span.service for span in self.spans})

    # ------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """Chrome trace-event JSON spanning every process.

        Each (service, pid) pair becomes one named Perfetto track; spans
        are complete (``"ph": "X"``) events, instants ``"ph": "i"``
        events, with microsecond timestamps relative to the first
        record.  A parent link between two tracks becomes a flow arrow
        (``"s"``/``"f"``), so a client root visibly fans into its
        frontend/shard/worker hops.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        epoch = self.spans[0].start
        tracks: Dict[tuple, int] = {}
        events: List[Dict[str, object]] = []
        for span in self.spans:
            key = (span.service, span.pid)
            if key not in tracks:
                tracks[key] = len(tracks) + 1
                label = f"{span.service} (pid {span.pid})"
                if span.shard is not None:
                    label = f"{span.service} shard {span.shard}"
                events.append({
                    "name": "process_name", "ph": "M", "pid": tracks[key],
                    "tid": 0, "args": {"name": label},
                })
        flow = 0
        for span in self.spans:
            pid = tracks[(span.service, span.pid)]
            args = dict(span.args)
            if span.trace_id:
                args["trace_id"] = span.trace_id
            if span.annotations:
                args["annotations"] = ",".join(span.annotations)
            event = {"name": span.name, "cat": span.service,
                     "ts": (span.start - epoch) * 1e6, "pid": pid,
                     "tid": 0, "args": args}
            if span.instant:
                event.update(ph="i", s="t")
            else:
                event.update(ph="X", dur=span.duration * 1e6)
            events.append(event)
            parent = self._by_id.get(span.parent_id or "")
            if parent is None:
                continue
            parent_pid = tracks[(parent.service, parent.pid)]
            if parent_pid == pid:
                continue
            flow += 1
            events.append({
                "name": "request", "cat": "flow", "ph": "s", "id": flow,
                "ts": (parent.start - epoch) * 1e6, "pid": parent_pid,
                "tid": 0,
            })
            events.append({
                "name": "request", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow, "ts": (span.start - epoch) * 1e6, "pid": pid,
                "tid": 0,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        # json.dumps encodes in C in one shot; json.dump does not.
        with open(path, "w") as handle:
            handle.write(json.dumps(self.to_chrome()) + "\n")

    def __repr__(self) -> str:
        return (f"<MergedTrace {len(self.spans)} spans, "
                f"{len(self.trace_ids())} traces, "
                f"services={self.services()}>")
