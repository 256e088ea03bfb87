"""The batched compilation service.

:class:`CompileService` turns individual compile requests (one program
under one grid cell) into batched, cached, fault-tolerant work:

* **dedup** — a request whose key is already in flight shares the
  existing :class:`~repro.serve.jobs.JobHandle` instead of recomputing;
* **store first** — with an :class:`~repro.serve.store.ArtifactStore`
  attached, submission checks the store before queueing anything, so a
  warm cache answers without touching the worker pool;
* **batching** — queued jobs are coalesced into batches and grouped by
  (program, scheme) exactly like the PR-1 engine's parallel path, so
  one dispatch clones and forms each program once and schedules it for
  every (machine, heuristic) of the group; the worker *is* the engine's
  (:func:`repro.evaluation.engine._run_task`), which is what makes
  service results bit-identical to :func:`~repro.api.evaluate_grid`;
* **retry** — a dispatch that times out or loses its worker process
  (``BrokenProcessPool``) is retried with exponential backoff up to a
  bounded attempt budget; the pool is recycled first, so one poisoned
  worker cannot wedge the service.  Deterministic worker exceptions
  (the job itself is broken) fail immediately — retrying cannot fix
  them;
* **backpressure** — the intake queue is bounded; a full queue makes
  ``submit`` raise :class:`~repro.serve.jobs.ServiceSaturatedError`
  rather than buffering unboundedly;
* **graceful shutdown** — ``close(drain=True)`` finishes everything
  already accepted, ``close(drain=False)`` fails queued jobs with
  :class:`~repro.serve.jobs.ServiceClosedError`; either way the
  dispatcher exits and the pool is torn down.

Every job resolution happens under a trace span
(``serve.job``), and the service counts submissions, dedups, cache
hits, dispatches, retries, timeouts, and failures into its metrics
registry.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.engine import (
    CellResult,
    GridCell,
    _merge_partials,
    _run_task,
)
from repro.ir.function import Program
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.serve.store import ArtifactStore, cell_key

#: Per-process cache of built-in benchmark texts (format_program of the
#: built workload), so keying a benchmark cell builds it at most once.
_builtin_texts: Dict[str, str] = {}


def _builtin_text(name: str) -> str:
    text = _builtin_texts.get(name)
    if text is None:
        from repro.ir.printer import format_program
        from repro.workloads.specint import build_benchmark

        text = format_program(build_benchmark(name))
        _builtin_texts[name] = text
    return text


def resolve_program_text(request: JobRequest) -> str:
    """The canonical IR text a request is keyed (and shipped) by."""
    if request.program_text is not None:
        return request.program_text
    return _builtin_text(request.cell.benchmark)


class _Job:
    """Internal pairing of a handle with its shipping text.

    ``ship_text`` is what crosses the process boundary: the caller's
    program text verbatim, or None for a built-in benchmark — workers
    rebuild those by name, exactly like the engine's parallel path (the
    printed text is canonical for *keying* but rounds profile weights
    to ``%g``, so shipping it would perturb the estimate).
    """

    __slots__ = ("handle", "ship_text")

    def __init__(self, handle: JobHandle, ship_text: Optional[str]):
        self.handle = handle
        self.ship_text = ship_text


def _service_worker(task):
    """Default pool worker: exactly the engine's group-task worker."""
    return _run_task(task)


#: Per-process cache of worker-side distributed tracers, keyed by
#: (trace directory, shard, pid).  The pid key matters: a pool worker is
#: forked from the service process and must not write through an
#: inherited parent handle.
_worker_tracers: Dict[Tuple[Optional[str], Optional[int], int], object] = {}


def _worker_tracer(trace_dir: str, shard: Optional[int]):
    from repro.obs.distributed import DistributedTracer

    key = (trace_dir, shard, os.getpid())
    tracer = _worker_tracers.get(key)
    if tracer is None:
        tracer = DistributedTracer(trace_dir, "worker", shard=shard)
        _worker_tracers[key] = tracer
    return tracer


def _traced_call(worker, trace_dir, shard, specs, task):
    """Run ``worker(task)`` inside per-request ``worker.run_task`` spans.

    ``specs`` is a list of ``(trace_id, parent_span_id)`` pairs — one
    per traced job coalesced into this group task.  The wrapper lives
    *around* the injected worker rather than inside it, so test workers
    (crashers, gated workers) keep their exact signature and payload.
    With no specs or no trace directory this is a plain passthrough.
    """
    if not trace_dir or not specs:
        return worker(task)
    tracer = _worker_tracer(trace_dir, shard)
    bench, scheme = task[0], task[1]
    spans = [
        tracer.start_span("worker.run_task", trace_id=trace_id,
                          parent_span_id=parent, benchmark=bench,
                          scheme=scheme, group_jobs=len(specs))
        for trace_id, parent in specs
    ]
    try:
        return worker(task)
    finally:
        for span in spans:
            span.finish()


class CompileService:
    """Batched, cached, retrying front end over the engine worker pool.

    Args:
        store: Optional artifact store consulted before dispatch and
            populated after; None disables caching.
        jobs: Worker processes in the pool.
        batch_size: Max jobs coalesced into one dispatch round.
        max_pending: Bound of the intake queue (backpressure).
        job_timeout: Seconds one dispatched group may take before the
            attempt counts as failed (None = no timeout).
        retries: Extra attempts after the first for crashed/timed-out
            dispatches.
        backoff: Base of the exponential retry delay (seconds).
        worker: Override of the pool worker function (tests inject
            crashing workers through this seam; must be picklable).
        sleep: Override of the backoff sleep (tests pass a no-op).
        trace_dir: Distributed-trace export directory; when set, jobs
            that carry a trace context get a ``worker.run_task`` span
            written from inside the pool worker process.
        shard: Shard identity stamped on worker spans (None outside a
            fleet).
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        jobs: int = 2,
        batch_size: int = 16,
        max_pending: int = 256,
        job_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        worker: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        trace_dir: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> None:
        self.store = store
        self.trace_dir = trace_dir
        self.shard = shard
        self.jobs = max(1, jobs)
        self.batch_size = max(1, batch_size)
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.metrics = metrics
        self.tracer = tracer
        self._worker = worker if worker is not None else _service_worker
        self._sleep = sleep
        self._queue: "queue.Queue[_Job]" = queue.Queue(maxsize=max_pending)
        self._inflight: Dict[str, JobHandle] = {}
        self._lock = threading.Lock()
        self._obs_lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- submission ------------------------------------------------------

    def submit(self, request: JobRequest) -> JobHandle:
        """Enqueue one job; returns its (possibly shared) handle.

        Raises :class:`ServiceClosedError` after shutdown began and
        :class:`ServiceSaturatedError` when the intake queue is full.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        self.metrics.inc("serve.jobs.submitted")
        text = resolve_program_text(request)
        key = cell_key(text, request.cell)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.inc("serve.jobs.deduped")
                return existing
            handle = JobHandle(key=key, request=request)
            if self.store is not None:
                cached = self.store.get(key)
                if cached is not None:
                    handle.cached = True
                    handle.resolve(cached)
                    self.metrics.inc("serve.jobs.cache_hits")
                    with self._obs_lock:
                        self.tracer.event("serve.job", key=key[:12],
                                          cached=True)
                    return handle
            self._inflight[key] = handle
        try:
            self._queue.put_nowait(_Job(handle, request.program_text))
        except queue.Full:
            with self._lock:
                self._inflight.pop(key, None)
            self.metrics.inc("serve.jobs.rejected")
            raise ServiceSaturatedError(
                f"intake queue full ({self._queue.maxsize} pending)"
            )
        return handle

    def evaluate(
        self,
        cells: Sequence[GridCell],
        program: Optional[Program] = None,
        program_text: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[CellResult]:
        """Submit every cell and block for the results, in input order.

        ``program``/``program_text`` override the built-in benchmark
        lookup for *all* cells (the single-program convenience the
        socket server and the oracle use).
        """
        if program is not None and program_text is None:
            from repro.ir.printer import format_program

            program_text = format_program(program)
        handles = [
            self.submit(JobRequest(cell=cell, program_text=program_text))
            for cell in cells
        ]
        return [handle.result(timeout) for handle in handles]

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            batch = [first]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._dispatch_batch(batch)
        # A non-draining close fails whatever is still queued.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            self._resolve_failure(
                job.handle, ServiceClosedError("service shut down"),
                counter="serve.jobs.cancelled",
            )

    def _group_batch(
        self, batch: Sequence[_Job],
    ) -> Dict[Tuple[str, str, Optional[str]], List[_Job]]:
        groups: Dict[Tuple[str, str, Optional[str]], List[_Job]] = {}
        for job in batch:
            cell = job.handle.request.cell
            groups.setdefault(
                (cell.benchmark, cell.scheme, job.ship_text), []
            ).append(job)
        return groups

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _recycle_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _dispatch_batch(self, batch: Sequence[_Job]) -> None:
        groups = self._group_batch(batch)
        with self._obs_lock:
            span = self.tracer.span("serve.batch", jobs=len(batch),
                                    groups=len(groups))
            span.__enter__()
        try:
            for (bench, scheme, text), jobs in groups.items():
                self._dispatch_group(bench, scheme, text, jobs)
        finally:
            with self._obs_lock:
                span.__exit__(None, None, None)

    def _dispatch_group(self, bench: str, scheme: str,
                        text: Optional[str],
                        jobs: List[_Job]) -> None:
        """Run one (program, scheme) group, retrying crash/timeout."""
        indexed = tuple(
            (index, job.handle.request.cell)
            for index, job in enumerate(jobs)
        )
        # The engine group-task over the whole function range; passing
        # None as the slice end means "all functions" without knowing
        # the count parent-side.  Workers keep a region memo, backed by
        # a store sub-directory when the service is store-backed.
        if self.store is not None:
            memo_spec = (os.path.join(self.store.directory, "regions"),
                         self.store.max_bytes / (1024 * 1024))
        else:
            memo_spec = (None, 0.0)
        task = (bench, scheme, indexed, 0, None, text, memo_spec, False)
        trace_specs = []
        if self.trace_dir is not None:
            trace_specs = [
                (job.handle.request.trace_id,
                 job.handle.request.parent_span_id)
                for job in jobs
                if getattr(job.handle.request, "trace_id", None)
            ]
        attempts = self.retries + 1
        error: Optional[BaseException] = None
        retryable = True
        for attempt in range(attempts):
            for job in jobs:
                job.handle.attempts = attempt + 1
            if attempt > 0:
                self.metrics.inc("serve.jobs.retries", len(jobs))
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            self.metrics.inc("serve.dispatches")
            try:
                if trace_specs:
                    future = self._ensure_executor().submit(
                        _traced_call, self._worker, self.trace_dir,
                        self.shard, trace_specs, task,
                    )
                else:
                    future = self._ensure_executor().submit(
                        self._worker, task)
                out, _, _, snapshot, _memo_stats = future.result(
                    timeout=self.job_timeout
                )
            except _FutureTimeout as exc:
                # The worker is wedged mid-task; recycle the pool so the
                # retry does not queue behind it.
                self.metrics.inc("serve.timeouts")
                self._recycle_executor()
                error = exc
                continue
            except BrokenProcessPool as exc:
                self.metrics.inc("serve.worker_crashes")
                self._recycle_executor()
                error = exc
                continue
            except Exception as exc:
                # Deterministic failure inside the job itself: retrying
                # replays it byte-identically, so fail fast — and tell
                # upper layers (the fleet) not to retry either.
                error = exc
                retryable = False
                break
            self.metrics.merge_snapshot(snapshot)
            by_index = dict(out)
            for index, job in enumerate(jobs):
                result = _merge_partials(
                    job.handle.request.cell, by_index[index]
                )
                self._resolve_success(job.handle, result,
                                      attempt=attempt + 1)
            return
        cause = error if error is not None else RuntimeError("dispatch")
        for job in jobs:
            self._resolve_failure(
                job.handle,
                JobFailedError(
                    f"job failed after {attempts} attempt(s): "
                    f"{type(cause).__name__}: {cause}",
                    retryable=retryable,
                ),
                counter="serve.jobs.failed",
            )

    def _resolve_success(self, handle: JobHandle, result: CellResult,
                         attempt: int) -> None:
        if self.store is not None:
            self.store.put(handle.key, result)
        with self._lock:
            self._inflight.pop(handle.key, None)
        with self._obs_lock:
            with self.tracer.span("serve.job", key=handle.key[:12],
                                  benchmark=handle.request.cell.benchmark,
                                  scheme=handle.request.cell.scheme,
                                  machine=handle.request.cell.machine,
                                  heuristic=handle.request.cell.heuristic,
                                  attempt=attempt, cached=False):
                pass
        handle.resolve(result)
        self.metrics.inc("serve.jobs.completed")

    def _resolve_failure(self, handle: JobHandle, error: BaseException,
                         counter: str) -> None:
        with self._lock:
            self._inflight.pop(handle.key, None)
        handle.fail(error)
        self.metrics.inc(counter)

    # -- lifecycle -------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the service accepts work and its dispatcher runs
        (the fleet's health checks poll this)."""
        return not self._closed and self._dispatcher.is_alive()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything currently accepted has resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = list(self._inflight.values())
            if not pending and self._queue.empty():
                return
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            for handle in pending:
                handle._event.wait(remaining)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("flush timed out")

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` finishes all accepted work first; ``drain=False``
        fails still-queued jobs with :class:`ServiceClosedError` (jobs
        already dispatched still complete).
        """
        if self._closed and not self._dispatcher.is_alive():
            return
        self._closed = True
        if drain:
            self.flush(timeout)
        self._stop.set()
        self._dispatcher.join(timeout)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
            self._executor = None
        if self.store is not None:
            self.store.sync()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            inflight = len(self._inflight)
        out: Dict[str, object] = {
            "inflight": inflight,
            "queued": self._queue.qsize(),
            "closed": self._closed,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out
