"""Lightweight wall-time stage instrumentation.

The evaluation pipeline is a chain of well-separated stages — region
formation, renaming, DDG construction, list scheduling, time estimation —
and performance work needs per-stage numbers, not just end-to-end totals.
:class:`StageTimer` accumulates wall time (``time.perf_counter``) per named
stage and can merge timers coming back from worker processes.

The hot paths accept an *optional* timer; :data:`NULL_TIMER` is a shared
no-op stand-in so instrumented code never branches on ``None``::

    timer = timer or NULL_TIMER
    with timer.stage("ddg"):
        ddg = build_ddg(...)

``NullTimer.stage`` returns a reusable singleton context manager and never
touches the clock, so uninstrumented runs pay only an attribute call.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict


class _StageHandle:
    """Context manager accumulating one stage interval into a timer."""

    __slots__ = ("_timer", "_name", "_start")

    def __init__(self, timer: "StageTimer", name: str):
        self._timer = timer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageHandle":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._timer.add(self._name, perf_counter() - self._start)
        return False


class StageTimer:
    """Accumulates wall-time and entry counts per named stage."""

    __slots__ = ("totals", "counts")

    def __init__(self):
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def stage(self, name: str) -> _StageHandle:
        """Context manager timing one entry of ``name``."""
        return _StageHandle(self, name)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Credit ``seconds`` of wall time to ``name`` directly."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    def merge(self, other: "StageTimer") -> None:
        """Fold another timer's stages into this one (worker merge)."""
        for name, seconds in other.totals.items():
            self.add(name, seconds, other.counts.get(name, 0))

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready snapshot: stage -> {seconds, count}."""
        return {
            name: {"seconds": self.totals[name],
                   "count": self.counts.get(name, 0)}
            for name in sorted(self.totals)
        }

    def format(self) -> str:
        lines = []
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            lines.append(
                f"{name:>16s}  {self.totals[name]:8.3f}s"
                f"  x{self.counts.get(name, 0)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<StageTimer {self.total:.3f}s over {len(self.totals)} stages>"


class _NullStage:
    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_STAGE = _NullStage()


class NullTimer:
    """No-op :class:`StageTimer` stand-in; never reads the clock."""

    __slots__ = ()

    def stage(self, name: str) -> _NullStage:
        return _NULL_STAGE

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def merge(self, other) -> None:
        pass


#: Shared no-op timer: ``timer = timer or NULL_TIMER``.
NULL_TIMER = NullTimer()
