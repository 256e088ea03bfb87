"""The compile fleet: the one place serving policy lives.

:class:`CompileFleet` owns N worker shards.  Each shard is a
:class:`~repro.serve.service.WorkerPool` plus the
:class:`~repro.serve.store.ArtifactStore` shard it exclusively owns
(``<cache>/shard-00``, ``shard-01``, ...).  Requests route by content
key (:mod:`repro.serve.router`), which makes the whole design correct
by construction: the key determines the answer, so the owner shard is a
pure function of the request and identical requests always meet at the
same shard.

The pools only run jobs.  Everything that decides *whether* and *how
often* a job runs is here, once:

* **hot tier** — a bounded in-memory LRU of finished results; the
  steady-state warm hit costs one dict lookup, no disk, no shard;
* **idempotent dedup** — one in-flight map keyed by content key.  A
  client that resends a request the fleet already accepted (dropped
  connection, request deadline) collapses onto the existing handle;
  nothing is ever computed or dispatched twice (``fleet.deduped``);
* **store tier** — a hot miss reads the owner shard's store
  (``serve.jobs.cache_hits``).  When the owner misses, the other
  shards' stores are probed read-only and a hit is adopted into the
  owner (``fleet.replica_reads``), which makes resizing the fleet
  cheap: a key whose owner changed is re-read, not recomputed.  A
  computed result is written to the owner's store;
* **one retry budget** — each request gets ``retries`` extra
  dispatches, spaced by exponential backoff from ``retry_backoff``,
  spent on infrastructure failures: a worker crash or dispatch timeout
  (:class:`JobFailedError` with ``retryable``), the shard dying under
  queued work, or a submit that lost a race with the shard going down.
  Every retry counts in ``fleet.shard_retries``.  A job that raises
  fails fast, exactly once; a request whose budget is spent fails with
  :class:`ShardDownError` (``SHARD_DOWN`` on the wire);
* **supervision** — a supervisor thread runs the retries,
  health-checks every shard and restarts dead ones (a fresh pool over
  the same store).  A shard dying mid-batch fails only its queued
  keys; those are retried on the restarted shard, every other shard's
  queue untouched;
* **per-shard backpressure** — a saturated shard raises
  :class:`ServiceSaturatedError` from ``submit`` without touching the
  other shards, so one hot key range cannot wedge the fleet.

Results remain bit-identical to :func:`repro.api.evaluate_grid` on
every path: the shards run the engine's own worker, the stores
round-trip losslessly, and the hot tier holds the very objects the
shards resolved.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.engine import CellResult, GridCell
from repro.ir.function import Program
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServiceClosedError,
    ServiceSaturatedError,
    ShardDownError,
    retry_delay,
)
from repro.serve.router import KeyRouter, request_key
from repro.serve.service import WorkerPool
from repro.serve.store import ArtifactStore

_STOP = object()


class _FleetMetrics:
    """The fleet's own registry and the caller's, behind one lock.

    The fleet must be able to answer ``STATS`` with a metrics snapshot
    whether or not the embedding application passed a registry of its
    own, so it always keeps one; a user registry (the CLI's
    ``--metrics`` file, the benchmarks') sees the same stream.  A plain
    :class:`~repro.obs.metrics.MetricsRegistry` is mutated lock-free on
    the (single-threaded) pipeline hot path; a fleet has N dispatcher
    threads, the supervisor, and the front-end loop all counting, so
    read-modify-write updates take the lock to stay exact.
    """

    __slots__ = ("_sinks", "_lock")

    def __init__(self, *sinks):
        self._sinks = [
            sink for sink in sinks
            if sink is not None and sink is not NULL_METRICS
        ]
        self._lock = threading.Lock()

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.inc(name, value)

    def gauge(self, name: str, value: float, mode=None) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.gauge(name, value, mode=mode)

    def merge_snapshot(self, data) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.merge_snapshot(data)


@dataclass
class FleetHandle(JobHandle):
    """A fleet-level job handle with routing provenance.

    ``attempts`` counts the dispatches spent on the request: 0 for a
    cache hit, ``retries + 1`` at most.
    """

    #: Index of the shard that (last) ran the job; -1 for hot hits.
    shard: int = -1
    #: Where the result came from: ``hot`` | ``store`` | ``computed``.
    source: str = "computed"
    #: The open ``shard.compile`` span of the current dispatch attempt
    #: (observability only; None when the request is untraced).
    span: object = field(default=None, repr=False)


class _Shard:
    """One worker shard: a worker pool plus the store it exclusively
    owns."""

    __slots__ = ("index", "store", "pool", "up", "generation")

    def __init__(self, index: int, store: Optional[ArtifactStore]):
        self.index = index
        self.store = store
        self.pool: Optional[WorkerPool] = None
        self.up = True
        self.generation = 0

    def stats(self) -> Dict[str, object]:
        out = self.pool.stats()
        if self.store is not None:
            out["store"] = self.store.stats()
        return out


class CompileFleet:
    """Content-key-sharded fleet of worker pools.

    Args:
        shards: Worker shard count (each shard = one worker pool + one
            store shard).
        cache_dir: Root of the sharded persistent store; None disables
            the disk tier (hot tier and dedup still apply).
        cache_max_mb: Total store bound, split evenly across shards.
        jobs: Worker processes *per shard*.
        batch_size / max_pending / job_timeout: Per-shard
            :class:`~repro.serve.service.WorkerPool` knobs (see its
            docstring).
        retries: Extra dispatches per request after an infrastructure
            failure (worker crash, dispatch timeout, shard death, a
            submit that raced a shard going down).  The fleet's one
            retry budget.
        hot_cache: Entry bound of the in-memory result tier (0 = off).
        health_interval: Seconds between supervisor health sweeps.
        retry_backoff: Delay before the first retry; it doubles for
            each further retry of the same request.
        sleep: Override of the backoff sleep (tests pass a no-op).
        worker: Override of the pool worker function (tests inject
            crashing and gated workers here; must be picklable).
        tracer: A :class:`~repro.obs.tracer.Tracer` receiving the
            fleet's spans (``serve.batch``, and ``shard.compile`` /
            ``fleet.hot`` / ``fleet.store`` for requests that carry a
            trace context) and its lifecycle instants (shard
            start/kill/death/restart, retries, evictions, fleet
            start/close).  A tracer with an instants-only writer is the
            ``--events-log``; one with a per-process span writer
            (:func:`~repro.obs.tracer.trace_file`) streams the fleet's
            spans and instants to ``trace-fleet-<pid>.jsonl`` and has
            the pools write ``worker.run_task`` spans beside them.
    """

    def __init__(
        self,
        shards: int = 2,
        cache_dir: Optional[str] = None,
        cache_max_mb: float = 256.0,
        jobs: int = 1,
        batch_size: int = 16,
        max_pending: int = 256,
        job_timeout: Optional[float] = None,
        retries: int = 2,
        hot_cache: int = 4096,
        health_interval: float = 0.5,
        retry_backoff: float = 0.02,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        sleep: Callable[[float], None] = time.sleep,
        worker: Optional[Callable] = None,
    ) -> None:
        self.router = KeyRouter(shards)
        #: The fleet's own registry — always live, so the stats plane
        #: can snapshot counters/gauges even when the embedder passed no
        #: registry.  User metrics see the same stream through the tee.
        self.own_metrics = MetricsRegistry()
        self.metrics = _FleetMetrics(self.own_metrics, metrics)
        self.tracer = tracer.for_service("fleet")
        self.jobs = jobs
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.hot_cache = max(0, hot_cache)
        self.health_interval = health_interval
        self.retry_backoff = retry_backoff
        self._sleep = sleep
        self._worker = worker
        self._hot: "OrderedDict[str, CellResult]" = OrderedDict()
        self._hot_bytes = 0
        self._hot_lock = threading.Lock()
        self._inflight: Dict[str, FleetHandle] = {}
        self._lock = threading.Lock()
        self._restart_lock = threading.Lock()
        self._closed = False       # no new submissions
        self._stopping = False     # no more retries
        self._shards: List[_Shard] = []
        for index in range(shards):
            store = None
            if cache_dir is not None:
                store = ArtifactStore(
                    os.path.join(cache_dir, f"shard-{index:02d}"),
                    max_mb=cache_max_mb / shards,
                )
            shard = _Shard(index, store)
            shard.pool = self._make_pool(shard)
            self._shards.append(shard)
            self.tracer.event("shard.start", shard=index, generation=0)
        self._retry_queue: "queue.Queue[object]" = queue.Queue()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        self.tracer.event("fleet.start", shards=shards, jobs=jobs)

    # -- shard lifecycle -------------------------------------------------

    def _make_pool(self, shard: _Shard) -> WorkerPool:
        # Workers keep a region memo, backed by a sub-directory of the
        # shard's store when the fleet has a disk tier.
        memo_spec: Tuple[Optional[str], float] = (None, 0.0)
        if shard.store is not None:
            memo_spec = (os.path.join(shard.store.directory, "regions"),
                         shard.store.max_bytes / (1024 * 1024))
        return WorkerPool(
            jobs=self.jobs, batch_size=self.batch_size,
            max_pending=self.max_pending, job_timeout=self.job_timeout,
            memo_spec=memo_spec, metrics=self.metrics, tracer=self.tracer,
            worker=self._worker, shard=shard.index,
        )

    def _restart_shard(self, shard: _Shard) -> None:
        with self._restart_lock:
            if shard.up and shard.pool.alive:
                return
            try:
                shard.pool.close(drain=False, timeout=5.0)
            except Exception:
                pass
            shard.pool = self._make_pool(shard)
            shard.generation += 1
            shard.up = True
        self.metrics.inc("fleet.shard_restarts")
        self.tracer.event("shard.restart", shard=shard.index,
                          generation=shard.generation)

    def kill_shard(self, index: int, timeout: float = 30.0) -> None:
        """Abruptly take one shard down (fault injection / ops drills).

        Its queued jobs fail with :class:`ServiceClosedError` and are
        retried on the restarted shard; jobs already dispatched to the
        pool still complete.  Other shards never notice.
        """
        shard = self._shards[index]
        shard.up = False
        self.metrics.inc("fleet.shard_kills")
        self.tracer.event("shard.kill", shard=index,
                          generation=shard.generation)
        shard.pool.close(drain=False, timeout=timeout)

    def health(self) -> Dict[str, object]:
        """Liveness of every shard (the ``ping`` op's payload)."""
        shards = {}
        healthy = True
        for shard in self._shards:
            alive = shard.up and shard.pool.alive
            healthy = healthy and alive
            shards[str(shard.index)] = {
                "up": shard.up,
                "alive": shard.pool.alive,
                "generation": shard.generation,
            }
        return {"healthy": healthy and not self._closed, "shards": shards}

    # -- the hot tier ----------------------------------------------------

    def _hot_get(self, key: str) -> Optional[CellResult]:
        if not self.hot_cache:
            return None
        with self._hot_lock:
            result = self._hot.get(key)
            if result is not None:
                self._hot.move_to_end(key)
            return result

    @staticmethod
    def _estimate_bytes(result: CellResult) -> int:
        # Flat-cost estimate of one hot entry: the CellResult object +
        # its per-region schedule-length tuple.  Exact accounting would
        # need sys.getsizeof recursion on the hot path; occupancy
        # trends, not audits, are what the stats plane wants.
        return 200 + 8 * len(result.schedule_lengths)

    def _hot_put(self, key: str, result: CellResult) -> None:
        if not self.hot_cache:
            return
        evicted = 0
        with self._hot_lock:
            if key not in self._hot:
                self._hot_bytes += self._estimate_bytes(result)
            self._hot[key] = result
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_cache:
                _, old = self._hot.popitem(last=False)
                self._hot_bytes -= self._estimate_bytes(old)
                evicted += 1
        if evicted:
            self.metrics.inc("fleet.hot_evictions", evicted)
            self.tracer.event("hot.evict", evicted=evicted)

    # -- the store tier --------------------------------------------------

    def _store_get(self, owner: _Shard, key: str) -> Optional[CellResult]:
        """``key`` from the owner's store, else adopted into it from any
        warm replica (a resize moves keys; they are re-read, not
        recomputed)."""
        store = owner.store
        if store is None:
            return None
        result = store.get(key)
        if result is not None:
            return result
        for other in self._shards:
            replica = other.store
            if other is owner or replica is None or key not in replica:
                continue
            result = replica.get(key)
            if result is not None:
                store.put(key, result)
                self.metrics.inc("fleet.replica_reads")
                return result
        return None

    # -- submission ------------------------------------------------------

    def submit(self, request: JobRequest) -> FleetHandle:
        """Answer one request from a cache tier or its owner shard.

        Identical in-flight requests share one handle (idempotency by
        content key); hot and store hits resolve immediately.  Raises
        :class:`ServiceSaturatedError` when the owner shard's intake is
        full (the request was NOT accepted — safe to retry) and
        :class:`ServiceClosedError` after shutdown began.
        """
        if self._closed:
            raise ServiceClosedError("fleet is shut down")
        self.metrics.inc("fleet.requests")
        key = request_key(request)
        hot = self._hot_get(key)
        if hot is not None:
            self.metrics.inc("fleet.hot_hits")
            if request.trace_id:
                self.tracer.start(
                    "fleet.hot", trace_id=request.trace_id,
                    parent=request.parent_span_id, key=key[:12],
                ).finish(source="hot")
            handle = FleetHandle(key=key, request=request, cached=True,
                                 source="hot")
            handle.resolve(hot)
            return handle
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.inc("fleet.deduped")
                return existing
            handle = FleetHandle(key=key, request=request)
            self._inflight[key] = handle
        self.metrics.inc("serve.jobs.submitted")
        owner = self._shards[self.router.shard_for(key)]
        try:
            cached = self._store_get(owner, key)
            if cached is None:
                self._dispatch(handle)
                return handle
        except Exception as error:
            with self._lock:
                self._inflight.pop(key, None)
            if isinstance(error, ServiceSaturatedError):
                self.tracer.event("request.saturated", key=key[:12])
            raise
        self.metrics.inc("serve.jobs.cache_hits")
        if request.trace_id:
            self.tracer.start(
                "fleet.store", trace_id=request.trace_id,
                parent=request.parent_span_id, key=key[:12],
                shard=owner.index,
            ).finish(source="store")
        handle.cached = True
        handle.source = "store"
        handle.shard = owner.index
        self._finish(handle, cached)
        return handle

    def evaluate(
        self,
        cells: Sequence[GridCell],
        program: Optional[Program] = None,
        program_text: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[CellResult]:
        """Submit every cell and block for the results, in input order."""
        if program is not None and program_text is None:
            from repro.ir.printer import format_program

            program_text = format_program(program)
        handles = [
            self.submit(JobRequest(cell=cell, program_text=program_text))
            for cell in cells
        ]
        return [handle.result(timeout) for handle in handles]

    # -- dispatch and retry ----------------------------------------------

    def _dispatch(self, handle: FleetHandle) -> None:
        """Spend one attempt: hand ``handle`` to its owner shard's pool
        (restarting the shard first if it is down).

        Raises :class:`ServiceSaturatedError` when the pool's intake is
        full; every other failure goes through :meth:`_retry_or_fail`.
        """
        shard = self._shards[self.router.shard_for(handle.key)]
        attempt = handle.attempts
        handle.attempts += 1
        handle.shard = shard.index
        span = None
        if handle.request.trace_id:
            # One span per dispatch attempt; a retry opens a fresh one
            # carrying the restart mark.
            span = self.tracer.start(
                "shard.compile", trace_id=handle.request.trace_id,
                parent=handle.request.parent_span_id,
                shard=shard.index, generation=shard.generation,
                fleet_attempt=attempt,
            )
            if attempt > 0:
                span.annotate("supervisor.restart")
        handle.span = span
        if not shard.up or not shard.pool.alive:
            self._restart_shard(shard)
            if span is not None:
                span.annotate("supervisor.restart")
                span.set(generation=shard.generation)
        request = handle.request
        if span is not None and span.span_id is not None:
            # Reparent the pool's job under this dispatch span so the
            # worker's span nests beneath it.
            request = _dc_replace(request, parent_span_id=span.span_id)
        job = JobHandle(key=handle.key, request=request)
        try:
            shard.pool.submit(job)
        except ServiceSaturatedError:
            handle.span = None
            if span is not None:
                span.finish(outcome="saturated")
            raise
        except ServiceClosedError as error:
            # Lost a race with the shard going down.
            shard.up = False
            self._retry_or_fail(handle, error)
            return
        job.add_done_callback(
            lambda done, h=handle: self._on_job_done(h, done)
        )

    def _on_job_done(self, handle: FleetHandle, job: JobHandle) -> None:
        if job.error is not None:
            self._retry_or_fail(handle, job.error)
            return
        result = job.result(0)
        span, handle.span = handle.span, None
        if span is not None:
            span.finish(outcome="ok", source="computed",
                        attempts=handle.attempts)
        store = self._shards[handle.shard].store
        if store is not None:
            store.put(handle.key, result)
        self._finish(handle, result)

    def _retry_or_fail(self, handle: FleetHandle,
                       error: BaseException) -> None:
        """Schedule another attempt while the budget lasts; else fail.

        Infrastructure failures are retried: a retryable
        :class:`JobFailedError` (worker crash or timeout), a
        :class:`ServiceClosedError` (the shard went down under the job)
        and a :class:`ServiceSaturatedError` met on a retry.  A job that
        raised fails at once.
        """
        span, handle.span = handle.span, None
        name = type(error).__name__
        retryable = isinstance(
            error, (ServiceClosedError, ServiceSaturatedError)
        ) or (isinstance(error, JobFailedError) and error.retryable)
        if retryable and not self._stopping \
                and handle.attempts <= self.retries:
            self.metrics.inc("fleet.shard_retries")
            self.tracer.event("request.retry", key=handle.key[:12],
                              shard=handle.shard, attempt=handle.attempts,
                              error=name)
            if span is not None:
                span.annotate("retry.scheduled")
                span.finish(outcome="retry", error=name)
            delay = retry_delay(self.retry_backoff, handle.attempts)
            self._retry_queue.put((handle, time.monotonic() + delay))
            return
        if span is not None:
            span.finish(outcome="failed", error=name)
        if isinstance(error, JobFailedError):
            error = JobFailedError(
                f"job failed after {handle.attempts} attempt(s): {error}",
                retryable=error.retryable,
            )
        elif retryable and not self._stopping:
            error = ShardDownError(
                f"shard {handle.shard} failed {handle.attempts} "
                f"attempt(s): {name}: {error}"
            )
        self._fail(handle, error)

    def _finish(self, handle: FleetHandle, result: CellResult) -> None:
        self._hot_put(handle.key, result)
        with self._lock:
            self._inflight.pop(handle.key, None)
        self.metrics.inc("fleet.completed")
        handle.resolve(result)

    def _fail(self, handle: FleetHandle, error: BaseException) -> None:
        with self._lock:
            self._inflight.pop(handle.key, None)
        self.metrics.inc("fleet.failed")
        self.tracer.event("request.failed", key=handle.key[:12],
                          shard=handle.shard,
                          error=type(error).__name__)
        handle.fail(error)

    # -- supervision -----------------------------------------------------

    def _supervise(self) -> None:
        while True:
            try:
                event = self._retry_queue.get(timeout=self.health_interval)
            except queue.Empty:
                self._health_sweep()
                continue
            if event is _STOP:
                break
            handle, due = event
            self._sleep(max(0.0, due - time.monotonic()))
            try:
                self._dispatch(handle)
            except ServiceSaturatedError as error:
                self._retry_or_fail(handle, error)
            except Exception as error:
                self._fail(handle, error)
        # Fail whatever retries were still queued behind the sentinel.
        while True:
            try:
                event = self._retry_queue.get_nowait()
            except queue.Empty:
                break
            if event is not _STOP:
                self._fail(event[0], ServiceClosedError("fleet shut down"))

    def _health_sweep(self) -> None:
        for shard in self._shards:
            if shard.up and not shard.pool.alive:
                shard.up = False
                self.metrics.inc("fleet.shard_deaths")
                self.tracer.event("shard.death", shard=shard.index,
                                  generation=shard.generation)
            if not shard.up and not self._closed:
                self._restart_shard(shard)

    # -- lifecycle -------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything currently accepted has resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = list(self._inflight.values())
            if not pending:
                return
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            for handle in pending:
                handle._event.wait(remaining)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("fleet flush timed out")

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop the fleet.

        ``drain=True`` finishes accepted work first (retries stay live
        until the drain completes); ``drain=False`` fails queued and
        retrying jobs with :class:`ServiceClosedError`.
        """
        if self._closed and not self._supervisor.is_alive():
            return
        self._closed = True
        if drain:
            self.flush(timeout)
        self._stopping = True
        self._retry_queue.put(_STOP)
        self._supervisor.join(timeout)
        for shard in self._shards:
            shard.pool.close(drain=drain, timeout=timeout)
            if shard.store is not None:
                shard.store.close()
        self.tracer.event("fleet.close", drained=drain)
        self.tracer.close()

    def __enter__(self) -> "CompileFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    # -- introspection ---------------------------------------------------

    @property
    def shards(self) -> int:
        return self.router.shards

    def stats(self) -> Dict[str, object]:
        with self._lock:
            inflight = len(self._inflight)
        with self._hot_lock:
            hot_entries = len(self._hot)
            hot_bytes = self._hot_bytes
        return {
            "shards": [
                {
                    "index": shard.index,
                    "up": shard.up,
                    "generation": shard.generation,
                    "service": shard.stats(),
                }
                for shard in self._shards
            ],
            "router": {"shards": self.router.shards},
            "hot": {"entries": hot_entries, "max": self.hot_cache,
                    "bytes": hot_bytes},
            "inflight": inflight,
            "closed": self._closed,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The fleet's own registry as a JSON-ready snapshot (the
        ``STATS`` op's ``metrics`` section), with point-in-time fleet
        state refreshed as ``last``-mode gauges first.

        Counters (requests, dedups, restarts, retries) accumulate over
        the fleet's life; ``memo.*`` gauges arrive through worker
        snapshot merges in ``max`` mode; the gauges set here describe
        *now* and therefore overwrite on every refresh.
        """
        with self._lock:
            inflight = len(self._inflight)
        with self._hot_lock:
            hot_entries = len(self._hot)
            hot_bytes = self._hot_bytes
        queued = sum(shard.pool.stats()["queued"] for shard in self._shards)
        self.metrics.gauge("fleet.inflight", inflight, mode="last")
        self.metrics.gauge("fleet.queued", queued, mode="last")
        self.metrics.gauge("fleet.hot.entries", hot_entries,
                           mode="last")
        self.metrics.gauge("fleet.hot.bytes", hot_bytes, mode="last")
        with self.metrics._lock:
            return self.own_metrics.snapshot()
