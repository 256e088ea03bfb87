"""Job-layer types for the compile fleet and its worker pools.

A :class:`JobRequest` names one unit of work — one program under one
grid cell — in plain, hashable data, so identical requests submitted
while the first is still in flight collapse onto one computation.  A
:class:`JobHandle` is the caller's ticket: it resolves exactly once,
either with a :class:`~repro.evaluation.engine.CellResult` or with an
error, and :meth:`JobHandle.result` blocks until then.  Completion
callbacks (:meth:`JobHandle.add_done_callback`) let event-driven
callers — the asyncio front-end, the fleet's retry chain — react
without parking a thread per pending job.

The error taxonomy mirrors the serving failure edges:

* :class:`ServiceSaturatedError` — the bounded intake queue is full
  (backpressure; resend later or raise ``max_pending``);
* :class:`ServiceClosedError` — submitted after shutdown began, or the
  job was cancelled by a non-draining shutdown;
* :class:`JobFailedError` — a dispatch failed.  Its ``retryable`` flag
  separates infrastructure failures (worker crash or timeout — a
  restarted pool may well succeed, and the fleet retries while its
  budget lasts) from deterministic job failures (replaying the job
  fails identically, so nothing retries it);
* :class:`ShardDownError` — the fleet spent a request's retry budget
  on shard deaths or lost submit races.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.evaluation.engine import CellResult, GridCell


class ServeError(Exception):
    """Base class for compilation-service errors."""


class ServiceSaturatedError(ServeError):
    """The bounded intake queue is full (backpressure)."""


class ServiceClosedError(ServeError):
    """The service no longer accepts or will not finish this work."""


class JobFailedError(ServeError):
    """A job's dispatch failed.

    ``retryable=True`` means the failure was infrastructural (crash or
    timeout) — a fresh pool may succeed.  ``retryable=False`` means the
    job itself raised deterministically.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class ShardDownError(ServeError):
    """The fleet spent the request's retry budget on a failing shard."""


@dataclass(frozen=True)
class JobRequest:
    """One compile request: a program (by text) under one grid cell.

    ``program_text`` is the canonical textual IR
    (:func:`repro.ir.printer.format_program`); None means "the built-in
    benchmark named by ``cell.benchmark``" and the fleet resolves the
    text itself for keying.

    ``trace_id``/``parent_span_id`` carry the distributed trace context
    (:mod:`repro.obs.distributed`) down through the fleet and its pools.
    They are observability-only: content keying
    (:func:`repro.serve.router.request_key`) ignores them, so two
    requests for the same work still dedup onto one computation even
    when they belong to different traces.
    """

    cell: GridCell
    program_text: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None


@dataclass
class JobHandle:
    """The resolvable future of one submitted job."""

    key: str
    request: JobRequest
    #: True when the result came from a cache tier (store/hot), not the
    #: worker pool.
    cached: bool = False
    #: Dispatch attempts actually spent on this job (0 for cache hits).
    attempts: int = 0
    _event: threading.Event = field(default_factory=threading.Event,
                                    repr=False)
    _result: Optional[CellResult] = field(default=None, repr=False)
    _error: Optional[BaseException] = field(default=None, repr=False)
    _callbacks: List[Callable[["JobHandle"], None]] = field(
        default_factory=list, repr=False)
    _cb_lock: threading.Lock = field(default_factory=threading.Lock,
                                     repr=False)

    def resolve(self, result: CellResult) -> None:
        self._result = result
        self._settle()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._settle()

    def _settle(self) -> None:
        with self._cb_lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(
        self, callback: Callable[["JobHandle"], None],
    ) -> None:
        """Run ``callback(handle)`` once the job settles.

        Fires immediately (in the calling thread) when the job already
        settled; otherwise fires in whichever thread resolves the job.
        Callbacks must not block — the fleet and front-end use them to
        hand completions to their own executors.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The failure, if the job settled unsuccessfully (else None)."""
        return self._error

    def result(self, timeout: Optional[float] = None) -> CellResult:
        """Block until the job resolves; raise its error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.key[:12]} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result
