"""One shard's worker pool.

A :class:`WorkerPool` runs the compile jobs the fleet
(:mod:`repro.serve.fleet`) hands it and nothing else.  Dedup, cache
tiers, retries and supervision all live in the fleet; the pool keeps
only what is specific to running work on processes:

* **backpressure** — the intake queue is bounded; a full queue makes
  ``submit`` raise :class:`~repro.serve.jobs.ServiceSaturatedError`
  rather than buffering unboundedly;
* **batching** — queued jobs are coalesced into batches and grouped by
  (program, scheme) exactly like the engine's parallel path, so one
  dispatch schedules a formed program for every (machine, heuristic) of
  the group; the worker *is* the engine's
  (:func:`repro.evaluation.engine._run_task`), which is what makes
  served results bit-identical to :func:`~repro.api.evaluate_grid`;
* **kept groups** — each worker process keeps the groups it formed,
  with their region-memo tier-1 state (prepared problems, DDGs,
  priority orders, finished schedules), in a :class:`KeptGroups` LRU
  bounded by op count, so a later request for another cell of the same
  (program, scheme) skips formation and the stages the first one ran,
  and the collector never walks them again (:meth:`KeptGroups.freeze`);
* **one attempt per dispatch** — a dispatch that times out or loses its
  worker process (``BrokenProcessPool``) recycles the executor, so one
  poisoned worker cannot wedge the pool, and fails every job of the
  group with ``JobFailedError(retryable=True)``; a job that raises
  fails with ``retryable=False``.  Whether to try again is the fleet's
  call;
* **shutdown** — ``close(drain=True)`` finishes everything already
  accepted, ``close(drain=False)`` fails queued jobs with
  :class:`~repro.serve.jobs.ServiceClosedError`; either way the
  dispatcher exits and the executor is torn down.
"""

from __future__ import annotations

import gc
import queue
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.engine import _merge_partials, _run_task
from repro.obs.metrics import NULL_METRICS, current_metrics
from repro.obs.tracer import NULL_TRACER, SpanWriter, Tracer
from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    ServiceClosedError,
    ServiceSaturatedError,
)


#: Op bound of the groups one worker process keeps.  A kept group's
#: RSS was measured at about 1.45 KB per op once its cells ran, so the
#: bound is about 45 MiB; the serve benchmark's 24 (program, scheme)
#: groups hold about 12,800 ops.
MAX_KEPT_OPS = 1 << 15


class KeptGroups:
    """A worker process's formed groups, kept between tasks.

    Keys are :func:`~repro.evaluation.engine._run_task`'s (program id,
    scheme spec); the kept group pins its program, so
    the id cannot name another program while the entry lives, and two
    texts under one benchmark name parse to two programs.  The least
    recently used groups go first once the kept groups' total op count
    passes ``max_ops``.  A hit counts ``serve.groups.reused`` and a put
    ``serve.groups.formed``; a key is put only after ``get`` missed it.
    """

    def __init__(self, max_ops: int = MAX_KEPT_OPS) -> None:
        self.max_ops = max_ops
        self.ops = 0
        self.formed = 0  # groups put so far
        self._groups: "OrderedDict[Tuple, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._groups)

    def get(self, key: Tuple):
        group = self._groups.get(key)
        if group is not None:
            self._groups.move_to_end(key)
            current_metrics().inc("serve.groups.reused")
        return group

    def put(self, key: Tuple, group) -> None:
        current_metrics().inc("serve.groups.formed")
        self.formed += 1
        self._groups[key] = group
        self.ops += group.ops
        while self.ops > self.max_ops:
            _, evicted = self._groups.popitem(last=False)
            self.ops -= evicted.ops
            gc.unfreeze()

    def drop(self, key: Tuple) -> None:
        group = self._groups.pop(key, None)
        if group is not None:
            self.ops -= group.ops
            gc.unfreeze()

    @staticmethod
    def freeze() -> None:
        """Collect, then move every live object to the permanent
        generation, so later collections skip the kept tier-1 state.  A
        group that leaves unfreezes everything, so it can be freed."""
        gc.collect()
        gc.freeze()


#: The kept groups of this process (only pool workers fill it).
_kept_groups = KeptGroups()


def _service_worker(task):
    """Default pool worker: the engine's group-task worker, keeping
    formed groups in this process across tasks."""
    formed = _kept_groups.formed
    if not formed:
        gc.freeze()  # what this process inherited at fork
    try:
        return _run_task(task, _kept_groups)
    finally:
        if _kept_groups.formed != formed:
            _kept_groups.freeze()


#: Per-process cache of worker-side tracers, keyed by (span file
#: template, shard).  Their writer keeps a file per pid, so a forked
#: worker never writes through a handle inherited from the serving
#: process.
_worker_tracers: Dict[Tuple[str, Optional[int]], Tracer] = {}


def _worker_tracer(span_path: str, shard: Optional[int]) -> Tracer:
    tracer = _worker_tracers.get((span_path, shard))
    if tracer is None:
        tracer = _worker_tracers[(span_path, shard)] = Tracer(
            service="worker", shard=shard,
            writers=(SpanWriter(span_path),))
    return tracer


def _traced_call(worker, span_path, shard, specs, task):
    """Run ``worker(task)`` inside per-request ``worker.run_task`` spans.

    ``specs`` is a list of ``(trace_id, parent_span_id)`` pairs — one
    per traced job coalesced into this group task.  The wrapper lives
    *around* the injected worker rather than inside it, so test workers
    (crashers, gated workers) keep their exact signature and payload.
    """
    tracer = _worker_tracer(span_path, shard)
    bench, scheme = task[0], task[1]
    spans = [
        tracer.start("worker.run_task", trace_id=trace_id, parent=parent,
                     benchmark=bench, scheme=scheme, group_jobs=len(specs))
        for trace_id, parent in specs
    ]
    try:
        return worker(task)
    finally:
        for span in spans:
            span.finish()


class WorkerPool:
    """A bounded queue and a batching dispatcher over a process pool.

    Args:
        jobs: Worker processes in the pool.
        batch_size: Max jobs coalesced into one dispatch round.
        max_pending: Bound of the intake queue (backpressure).
        job_timeout: Seconds one dispatched group may take before it
            fails as retryable (None = no timeout).
        memo_spec: ``(directory, max_mb)`` of the workers' region-memo
            store (``(None, 0.0)`` keeps the memo in memory only).
        worker: Override of the pool worker function (tests inject
            crashing workers through this seam; must be picklable).
        tracer: Receives the ``serve.batch`` spans.  When it streams
            spans to a per-process file
            (:attr:`~repro.obs.tracer.Tracer.span_path`), jobs that
            carry a trace context get a ``worker.run_task`` span written
            beside it from inside the pool worker process.
        shard: Shard identity stamped on worker spans.
    """

    def __init__(
        self,
        jobs: int = 1,
        batch_size: int = 16,
        max_pending: int = 256,
        job_timeout: Optional[float] = None,
        memo_spec: Tuple[Optional[str], float] = (None, 0.0),
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        worker: Optional[Callable] = None,
        shard: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.batch_size = max(1, batch_size)
        self.job_timeout = job_timeout
        self.memo_spec = memo_spec
        self.metrics = metrics
        self.tracer = tracer
        self.shard = shard
        self._worker = worker if worker is not None else _service_worker
        self._queue: "queue.Queue[JobHandle]" = queue.Queue(
            maxsize=max_pending)
        self._running = 0
        self._closed = False
        self._drain = True
        self._stop = threading.Event()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def submit(self, handle: JobHandle) -> None:
        """Enqueue one job; ``handle`` settles when its dispatch ends.

        Raises :class:`ServiceClosedError` after shutdown began and
        :class:`ServiceSaturatedError` when the intake queue is full.
        """
        if self._closed:
            raise ServiceClosedError("worker pool is shut down")
        try:
            self._queue.put_nowait(handle)
        except queue.Full:
            self.metrics.inc("serve.jobs.rejected")
            raise ServiceSaturatedError(
                f"intake queue full ({self._queue.maxsize} pending)"
            )

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                if self._stop.is_set():
                    break
                continue
            if self._stop.is_set() and not self._drain:
                self._cancel(first)
                break
            batch = [first]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._dispatch_batch(batch)
        # Whatever is still queued (a non-draining close, or a submit
        # that raced the close) fails.
        while True:
            try:
                self._cancel(self._queue.get_nowait())
            except queue.Empty:
                break

    def _cancel(self, handle: JobHandle) -> None:
        handle.fail(ServiceClosedError("worker pool shut down"))
        self.metrics.inc("serve.jobs.cancelled")

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _recycle_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _dispatch_batch(self, batch: Sequence[JobHandle]) -> None:
        groups: Dict[Tuple[str, str, Optional[str]], List[JobHandle]] = {}
        for handle in batch:
            cell = handle.request.cell
            groups.setdefault(
                (cell.benchmark, cell.scheme, handle.request.program_text),
                [],
            ).append(handle)
        self._running = len(batch)
        try:
            with self.tracer.span("serve.batch", jobs=len(batch),
                                  groups=len(groups)):
                for (bench, scheme, text), handles in groups.items():
                    if self._stop.is_set() and not self._drain:
                        for handle in handles:
                            self._cancel(handle)
                    else:
                        self._dispatch_group(bench, scheme, text, handles)
        finally:
            self._running = 0

    def _dispatch_group(self, bench: str, scheme: str,
                        text: Optional[str],
                        handles: List[JobHandle]) -> None:
        """Run one (program, scheme) group once; settle every handle.

        ``text`` is what crosses the process boundary: the caller's
        program text verbatim, or None for a built-in benchmark — workers
        rebuild those by name, exactly like the engine's parallel path
        (the printed text is canonical for *keying* but rounds profile
        weights to ``%g``, so shipping it would perturb the estimate).
        """
        indexed = tuple(
            (index, handle.request.cell)
            for index, handle in enumerate(handles)
        )
        task = (bench, scheme, indexed, text, self.memo_spec, None)
        specs = [
            (handle.request.trace_id, handle.request.parent_span_id)
            for handle in handles if handle.request.trace_id
        ] if self.tracer.span_path is not None else []
        self.metrics.inc("serve.dispatches")
        try:
            if specs:
                future = self._ensure_executor().submit(
                    _traced_call, self._worker, self.tracer.span_path,
                    self.shard, specs, task,
                )
            else:
                future = self._ensure_executor().submit(self._worker, task)
            out, _, snapshot, _memo_stats = future.result(
                timeout=self.job_timeout
            )
        except (_FutureTimeout, BrokenProcessPool) as error:
            # A wedged or dead worker: recycle the executor so the next
            # dispatch does not queue behind it.
            self.metrics.inc("serve.timeouts"
                             if isinstance(error, _FutureTimeout)
                             else "serve.worker_crashes")
            self._recycle_executor()
            self._fail(handles, error, retryable=True)
            return
        except Exception as error:
            # The job itself raised: replaying it fails identically.
            self._fail(handles, error, retryable=False)
            return
        self.metrics.merge_snapshot(snapshot)
        by_index = dict(out)
        for index, handle in enumerate(handles):
            handle.resolve(_merge_partials(handle.request.cell,
                                           by_index[index]))

    @staticmethod
    def _fail(handles: List[JobHandle], error: BaseException,
              retryable: bool) -> None:
        for handle in handles:
            handle.fail(JobFailedError(
                f"{type(error).__name__}: {error}", retryable=retryable))

    # -- lifecycle -------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the pool accepts work and its dispatcher runs
        (the fleet's health checks poll this)."""
        return not self._closed and self._dispatcher.is_alive()

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop the pool.

        ``drain=True`` finishes all accepted work first; ``drain=False``
        fails still-queued jobs with :class:`ServiceClosedError` (a
        dispatch already running still completes).
        """
        if self._closed and not self._dispatcher.is_alive():
            return
        self._closed = True
        self._drain = drain
        self._stop.set()
        self._dispatcher.join(timeout)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
            self._executor = None

    def stats(self) -> Dict[str, object]:
        queued = self._queue.qsize()
        return {
            "inflight": queued + self._running,
            "queued": queued,
            "closed": self._closed,
        }
