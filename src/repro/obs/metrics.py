"""Named counters, gauges, and histograms with deterministic merging.

A :class:`MetricsRegistry` is the numeric half of the observability
layer: the pipeline counts *what happened* (ops speculated, blocks tail-
duplicated, registers minted by renaming, duplicates merged by dominator
parallelism, simulator squashes) into named metrics, and the evaluation
engine merges worker registries back into the parent.  (Wall time is the
span model's half: the per-name totals of
:meth:`repro.obs.tracer.Tracer.self_times`, kept as spans close.)

**Determinism contract.**  Counters and histograms are *deterministic*:
they only record algorithmic events, merging is commutative integer
addition, and snapshots sort their keys — so a serial run and a
``jobs=N`` parallel run of the same grid serialize byte-identically
(``tests/test_obs.py`` enforces this).  Gauges are *point-in-time* facts
(analysis-cache hit counts, process-local state); they merge by ``max``
by default and are explicitly outside the determinism guarantee, which
is why :meth:`MetricsRegistry.deterministic_snapshot` excludes them.

**Gauge merge modes.**  ``max`` is right for cross-worker high-water
marks (``memo.entries``, peak queue depth across a pool), but wrong for
point-in-time facts where the *latest* writer is authoritative (a
shard's current queue depth folded into a fleet snapshot: after the
queue drains, ``max`` would pin the stale peak forever).
:meth:`MetricsRegistry.gauge` therefore takes ``mode="max"`` (default)
or ``mode="last"`` — ``last`` gauges adopt the incoming value on merge.
The fleet uses ``last`` for its own point-in-time gauges (queue depth,
in-flight dedup size, hot-tier occupancy/bytes) and ``max`` for
cross-worker marks shipped back from engine workers (``memo.*``).
Modes ride in snapshots under ``gauge_modes`` — a key emitted only
when some gauge is non-default, so mode-free registries serialize
exactly as before.

Instrumentation points deep in the pipeline (tail duplication, region
formation, the lint runner, the artifact store) would need a ``metrics``
parameter threaded through a dozen signatures; instead they read the
*active* registry via :func:`current_metrics`, which callers install
with :func:`metrics_scope`.  The region scheduling stages (prep,
renaming, the DDG builder, list and exact scheduling) do not: they
leave their figures on their outputs, and
:func:`repro.schedule.scheduler.count_region` counts each region once
from that record.  With no scope installed the active registry is
:data:`NULL_METRICS`, a shared no-op, so uninstrumented runs pay one
list lookup and a no-op method call per event — events are per-region or
per-duplication, never per scheduled op, so the overhead stays small
(CI's ``perf-smoke`` step bounds an instrumented grid at under 1.5x an
uninstrumented one).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer


class Histogram:
    """Power-of-two bucketed distribution of non-negative integers."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: bucket exponent -> count; a value lands in bucket
        #: ``value.bit_length()`` (so bucket b holds 2^(b-1) .. 2^b - 1).
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        v = int(value)
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        bucket = v.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[int]:
        """Upper-bound estimate of the ``q``-th percentile (0 < q <= 100).

        Power-of-two buckets bound a value to within 2x: the answer is
        the largest value the bucket holding that rank can contain,
        clamped to the observed min/max.  Exact-percentile callers (the
        load benchmark's latency gate) keep raw samples instead; this
        is for merged histograms where the samples are gone.
        """
        if not self.count:
            return None
        rank = max(1, int(-(-self.count * q // 100)))  # ceil(count*q/100)
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                upper = (1 << bucket) - 1 if bucket else 0
                if self.max is not None:
                    upper = min(upper, self.max)
                if self.min is not None:
                    upper = max(upper, self.min)
                return int(upper)
        return self.max

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): self.buckets[b] for b in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        histogram = cls()
        histogram.count = int(data["count"])
        histogram.total = int(data["sum"])
        histogram.min = None if data["min"] is None else int(data["min"])
        histogram.max = None if data["max"] is None else int(data["max"])
        histogram.buckets = {
            int(bucket): int(count)
            for bucket, count in dict(data["buckets"]).items()
        }
        return histogram

    def __repr__(self) -> str:
        return (f"<Histogram n={self.count} sum={self.total} "
                f"min={self.min} max={self.max}>")


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    __slots__ = ("counters", "gauges", "histograms", "gauge_modes")

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: gauge name -> merge mode, recorded only for non-default
        #: ("last") gauges so mode-free snapshots keep the old shape.
        self.gauge_modes: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float,
              mode: Optional[str] = None) -> None:
        """Set gauge ``name`` to a point-in-time ``value``.

        ``mode`` fixes how the gauge merges: ``"max"`` (default —
        cross-worker high-water mark) or ``"last"`` (incoming value
        wins — current state of a single authoritative writer).
        Omitting ``mode`` keeps whatever mode the gauge already has.
        """
        if mode is not None:
            if mode not in ("max", "last"):
                raise ValueError(f"unknown gauge merge mode: {mode!r}")
            if mode == "last":
                self.gauge_modes[name] = "last"
            else:
                self.gauge_modes.pop(name, None)
        self.gauges[name] = value

    def observe(self, name: str, value) -> None:
        """Record ``value`` into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (worker merge): counters and
        histogram buckets add; gauges take the max, unless either side
        marked the gauge ``last``, in which case the incoming value
        wins."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        other_modes = getattr(other, "gauge_modes", {})
        for name in other_modes:
            self.gauge_modes.setdefault(name, other_modes[name])
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            if current is None or self.gauge_modes.get(name) == "last":
                self.gauges[name] = value
            else:
                self.gauges[name] = max(current, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot with sorted keys (the wire format workers
        ship back to the engine parent)."""
        snap = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }
        if self.gauge_modes:
            snap["gauge_modes"] = {
                k: self.gauge_modes[k] for k in sorted(self.gauge_modes)
            }
        return snap

    def deterministic_snapshot(self) -> Dict[str, object]:
        """Counters + histograms only — the part guaranteed byte-identical
        between serial and parallel evaluation of the same grid."""
        snap = self.snapshot()
        return {"counters": snap["counters"], "histograms": snap["histograms"]}

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry.counters = dict(data.get("counters", {}))
        registry.gauges = dict(data.get("gauges", {}))
        registry.gauge_modes = dict(data.get("gauge_modes", {}))
        registry.histograms = {
            name: Histogram.from_dict(hist)
            for name, hist in dict(data.get("histograms", {})).items()
        }
        return registry

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        self.merge(MetricsRegistry.from_snapshot(data))

    # ------------------------------------------------------------------

    def format_table(self) -> str:
        """Plain-text table, stable row and column order for diffing."""
        lines: List[str] = []
        for name in sorted(self.counters):
            lines.append(f"{name:>32s}  {self.counters[name]:>12d}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            lines.append(
                f"{name:>32s}  n={histogram.count} sum={histogram.total} "
                f"min={histogram.min} max={histogram.max} "
                f"mean={histogram.mean:.2f}"
            )
        for name in sorted(self.gauges):
            mode = self.gauge_modes.get(name, "max")
            lines.append(
                f"{name:>32s}  {self.gauges[name]:>12g}  (gauge:{mode})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MetricsRegistry {len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self.histograms)} histograms>")


class NullMetrics:
    """No-op :class:`MetricsRegistry` stand-in."""

    __slots__ = ()

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float,
              mode: Optional[str] = None) -> None:
        pass

    def observe(self, name: str, value) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def merge_snapshot(self, data) -> None:
        pass


#: Shared no-op registry: ``metrics = metrics or NULL_METRICS``.
NULL_METRICS = NullMetrics()


# ----------------------------------------------------------------------
# Rolling-window histograms (the live stats plane's latency view)


class RollingHistogram:
    """A histogram over the last ``window_seconds * windows`` seconds.

    The stats plane wants *recent* latency percentiles — "p99 over the
    last minute", not since process start.  Samples land in the
    :class:`Histogram` for the current time window; windows older than
    the horizon are discarded on the next touch, and
    :meth:`summary` merges the surviving windows.  Percentiles inherit
    the power-of-two upper-bound semantics of
    :meth:`Histogram.percentile`.

    Not thread-safe by design: each instance belongs to one owner (the
    front-end's event loop observes and snapshots from the same
    thread).
    """

    __slots__ = ("window_seconds", "windows", "_clock", "_live")

    def __init__(self, window_seconds: float = 10.0, windows: int = 6,
                 clock: Callable[[], float] = time.monotonic):
        if window_seconds <= 0 or windows <= 0:
            raise ValueError("window_seconds and windows must be positive")
        self.window_seconds = window_seconds
        self.windows = windows
        self._clock = clock
        #: (window index, histogram), oldest first.
        self._live: List[Tuple[int, Histogram]] = []

    def _roll(self) -> int:
        current = int(self._clock() / self.window_seconds)
        horizon = current - self.windows + 1
        while self._live and self._live[0][0] < horizon:
            self._live.pop(0)
        return current

    def observe(self, value) -> None:
        current = self._roll()
        if not self._live or self._live[-1][0] != current:
            self._live.append((current, Histogram()))
        self._live[-1][1].observe(value)

    def merged(self) -> Histogram:
        """One histogram folding every live window together."""
        self._roll()
        merged = Histogram()
        for _, histogram in self._live:
            merged.merge(histogram)
        return merged

    def summary(self) -> Dict[str, object]:
        """JSON-ready recent-latency summary (p50/p95/p99 upper bounds)."""
        merged = self.merged()
        return {
            "count": merged.count,
            "mean": round(merged.mean, 3),
            "min": merged.min,
            "max": merged.max,
            "p50": merged.percentile(50),
            "p95": merged.percentile(95),
            "p99": merged.percentile(99),
            "window_seconds": self.window_seconds * self.windows,
        }

    def __repr__(self) -> str:
        return (f"<RollingHistogram {len(self._live)} live windows "
                f"x {self.window_seconds}s>")


# ----------------------------------------------------------------------
# Active-registry scope (how deep pipeline internals find the registry)

_ACTIVE: List[MetricsRegistry] = []


def current_metrics():
    """The innermost registry installed by :func:`metrics_scope`, or
    :data:`NULL_METRICS` when none is active."""
    return _ACTIVE[-1] if _ACTIVE else NULL_METRICS


@contextmanager
def metrics_scope(registry):
    """Install ``registry`` as the active registry for the dynamic extent.

    Passing :data:`NULL_METRICS` (or any :class:`NullMetrics`) is a
    no-op: it does *not* mask an outer scope, so an instrumented caller
    keeps collecting through uninstrumented intermediate layers.
    """
    if isinstance(registry, NullMetrics):
        yield registry
        return
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.pop()


# ----------------------------------------------------------------------
# Shared serialization helpers (CLI --metrics / --timings-json files)


def observability_snapshot(metrics=None, tracer=None) -> Dict[str, object]:
    """One JSON document folding a metrics registry and a tracer's
    per-name span totals (:meth:`~repro.obs.tracer.Tracer.self_times`)
    together (the ``--metrics`` and ``--timings-json`` file format)."""
    snap: Dict[str, object] = {}
    if metrics is not None and not isinstance(metrics, NullMetrics):
        snap.update(metrics.snapshot())
    if isinstance(tracer, Tracer):
        stages = tracer.self_times()
        snap["stages"] = stages
        snap["total_seconds"] = sum(s["seconds"] for s in stages.values())
    return snap


def write_observability_json(path: str, metrics=None, tracer=None) -> None:
    with open(path, "w") as handle:
        json.dump(observability_snapshot(metrics, tracer), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
