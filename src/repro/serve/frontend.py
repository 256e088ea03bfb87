"""Asyncio front-end: thousands of clients multiplexed onto the fleet.

:class:`FleetFrontend` listens on one :class:`~repro.serve.wire.Endpoint`
(``unix://`` or ``tcp://``) and speaks the framed, versioned protocol of
:mod:`repro.serve.wire`.  Each connection is one coroutine: handshake,
then a request/reply loop.  Compiles never block the event loop — the
fleet's ``submit`` is a queue put, and completion comes back through
:meth:`~repro.serve.jobs.JobHandle.add_done_callback` bridged onto an
asyncio future with ``call_soon_threadsafe``, so ten thousand pending
compiles cost ten thousand futures, not ten thousand threads.

Failure edges map to structured error codes.  The front-end adds no
policy of its own; retries happen in the fleet, once.  A saturated
shard answers ``SATURATED`` (the request was not accepted, so a client
resend is safe), a request that outlives its own deadline ``TIMEOUT``
(the job keeps running; a resend dedups onto it by content key), a
request whose retry budget the fleet spent ``SHARD_DOWN``, a
deterministically failing job ``JOB_FAILED``, and a malformed message
``BAD_REQUEST``.  Framing-level corruption closes the connection;
in-frame garbage only costs an error reply.

:class:`FrontendServer` wraps the async front-end in a background
thread with its own event loop — the shape the CLI, the tests, and the
soak harness use.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Dict, Optional

from repro.obs.metrics import NULL_METRICS, RollingHistogram
from repro.obs.tracer import NULL_TRACER
from repro.serve.fleet import CompileFleet
from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServeError,
    ServiceClosedError,
    ServiceSaturatedError,
    ShardDownError,
)
from repro.serve.store import result_to_payload, store_schema
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CompileReply,
    CompileRequest,
    Endpoint,
    ErrorCode,
    ErrorReply,
    FrameError,
    HealthReply,
    HealthRequest,
    Hello,
    HelloReply,
    PingReply,
    PingRequest,
    ProtocolError,
    Reply,
    ShutdownReply,
    ShutdownRequest,
    StatsReply,
    StatsRequest,
    parse_endpoint,
    read_frame,
    reply_to_wire,
    request_from_wire,
    write_frame,
)


def error_code_for(error: BaseException) -> str:
    """Map a service/fleet exception onto its wire error code."""
    if isinstance(error, ServiceSaturatedError):
        return ErrorCode.SATURATED
    if isinstance(error, ShardDownError):
        return ErrorCode.SHARD_DOWN
    if isinstance(error, ServiceClosedError):
        return ErrorCode.SHUTTING_DOWN
    if isinstance(error, JobFailedError):
        return ErrorCode.SHARD_DOWN if error.retryable \
            else ErrorCode.JOB_FAILED
    return ErrorCode.INTERNAL


class FleetFrontend:
    """The asyncio server half; run it inside a running event loop."""

    def __init__(
        self,
        fleet: CompileFleet,
        endpoint,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        metrics=NULL_METRICS,
        allow_remote_shutdown: bool = True,
        backlog: int = 2048,
    ) -> None:
        self.fleet = fleet
        self.endpoint = parse_endpoint(endpoint)
        self.max_frame_bytes = max_frame_bytes
        self.metrics = metrics
        self.allow_remote_shutdown = allow_remote_shutdown
        self.backlog = backlog
        #: The fleet's tracer, stamped ``frontend``: the front-end's
        #: lifecycle instants share the fleet's writers and its event
        #: log, and with a trace directory its spans land in
        #: ``trace-frontend-<pid>.jsonl``.
        self.tracer = fleet.tracer.for_service("frontend")
        #: ``frontend.request`` spans are recorded only when they are
        #: exported; otherwise a request's trace context (if any)
        #: passes through untouched and no trace is started for it.
        self._request_tracer = self.tracer \
            if self.tracer.span_path is not None else NULL_TRACER
        #: Rolling per-op latency (µs) over the last minute — the
        #: ``STATS`` reply's ``latency`` section.  Touched only from
        #: the event loop, so no lock.
        self._latency: Dict[str, RollingHistogram] = {}
        self._started_at = time.time()
        #: The actually-bound endpoint (tcp port 0 resolves on start).
        self.bound: Optional[Endpoint] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Endpoint:
        """Bind and start accepting; returns the bound endpoint."""
        if self.endpoint.scheme == "unix":
            path = self.endpoint.path
            if os.path.exists(path):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path, backlog=self.backlog,
            )
            self.bound = self.endpoint
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.endpoint.host,
                port=self.endpoint.port, backlog=self.backlog,
            )
            sock = self._server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.bound = Endpoint(scheme="tcp", host=host, port=port)
        self._started_at = time.time()
        self.tracer.event("frontend.start", endpoint=str(self.bound))
        return self.bound

    def request_shutdown(self) -> None:
        """Make :meth:`wait_shutdown` return (call from the loop)."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.tracer.event("frontend.stop", endpoint=str(self.bound))
            self.tracer.close()
        if self.endpoint.scheme == "unix" and self.endpoint.path:
            try:
                os.unlink(self.endpoint.path)
            except OSError:
                pass

    # -- one connection --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.metrics.inc("frontend.connections")
        try:
            if not await self._handshake(reader, writer):
                return
            while True:
                try:
                    raw = await read_frame(reader, self.max_frame_bytes)
                except ProtocolError as error:
                    # Bad JSON inside an intact frame: answer, carry on.
                    self.metrics.inc("frontend.bad_requests")
                    self.tracer.event("protocol.error", kind="message",
                                      detail=str(error))
                    await write_frame(writer, reply_to_wire(
                        ErrorReply(error.code, str(error))))
                    continue
                except FrameError as error:
                    # Broken byte stream: best-effort answer, hang up.
                    self.metrics.inc("frontend.frame_errors")
                    self.tracer.event("protocol.error", kind="frame",
                                      detail=str(error))
                    await write_frame(writer, reply_to_wire(
                        ErrorReply(error.code, str(error))))
                    return
                if raw is None:
                    return
                reply = await self._dispatch(raw)
                await write_frame(writer, reply_to_wire(reply))
                if isinstance(reply, ShutdownReply):
                    self.request_shutdown()
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # Cancelled when the loop is torn down right after the
                # peer hung up; a handler task that ends cancelled makes
                # asyncio log an unhandled CancelledError.
                pass

    async def _handshake(self, reader, writer) -> bool:
        try:
            raw = await read_frame(reader, self.max_frame_bytes)
        except FrameError as error:
            self.metrics.inc("frontend.frame_errors")
            await write_frame(writer, reply_to_wire(
                ErrorReply(error.code, str(error))))
            return False
        if raw is None:
            return False
        try:
            hello = request_from_wire(raw)
        except ProtocolError:
            hello = None
        if not isinstance(hello, Hello):
            self.metrics.inc("frontend.bad_requests")
            await write_frame(writer, reply_to_wire(ErrorReply(
                ErrorCode.BAD_REQUEST,
                "the first frame must be a hello handshake",
            )))
            return False
        if hello.protocol_version != PROTOCOL_VERSION:
            self.metrics.inc("frontend.version_rejects")
            await write_frame(writer, reply_to_wire(ErrorReply(
                ErrorCode.UNSUPPORTED_VERSION,
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client sent {hello.protocol_version}",
            )))
            return False
        await write_frame(writer, reply_to_wire(HelloReply(
            protocol_version=PROTOCOL_VERSION,
            schema=store_schema(),
            shards=self.fleet.shards,
        )))
        return True

    # -- request dispatch ------------------------------------------------

    def _observe_latency(self, op: str, began: float) -> None:
        histogram = self._latency.get(op)
        if histogram is None:
            histogram = self._latency[op] = RollingHistogram()
        histogram.observe(int((time.perf_counter() - began) * 1e6))

    async def _dispatch(self, raw) -> Reply:
        self.metrics.inc("frontend.requests")
        began = time.perf_counter()
        try:
            request = request_from_wire(raw)
        except ProtocolError as error:
            self.metrics.inc("frontend.bad_requests")
            self.tracer.event("protocol.error", kind="request",
                              detail=str(error))
            return ErrorReply(error.code, str(error))
        op = str(raw.get("op", "?"))
        try:
            return await self._dispatch_typed(request)
        finally:
            self._observe_latency(op, began)

    async def _dispatch_typed(self, request) -> Reply:
        if isinstance(request, CompileRequest):
            return await self._compile(request)
        if isinstance(request, PingRequest):
            health = self.fleet.health()
            return PingReply(
                protocol_version=PROTOCOL_VERSION,
                schema=store_schema(),
                healthy=bool(health["healthy"]),
                shards=health["shards"],
            )
        if isinstance(request, StatsRequest):
            return StatsReply(self._stats())
        if isinstance(request, HealthRequest):
            health = self.fleet.health()
            return HealthReply(
                healthy=bool(health["healthy"]),
                shards=health["shards"],
                uptime_seconds=round(time.time() - self._started_at, 3),
                pid=os.getpid(),
            )
        if isinstance(request, ShutdownRequest):
            if not self.allow_remote_shutdown:
                return ErrorReply(ErrorCode.BAD_REQUEST,
                                  "remote shutdown is disabled")
            return ShutdownReply()
        if isinstance(request, Hello):
            return ErrorReply(ErrorCode.BAD_REQUEST,
                              "hello is only valid as the first frame")
        return ErrorReply(ErrorCode.INTERNAL, "unroutable request")

    def _stats(self) -> Dict[str, object]:
        """The ``STATS`` payload: the fleet's structural stats at the
        top level (shape-compatible with PR 7 clients) plus ``server``
        identity, the fleet ``metrics`` snapshot, and rolling per-op
        ``latency`` summaries.  Everything here reads state — nothing
        enters the compute path's queues or pools.
        """
        stats = dict(self.fleet.stats())
        stats["server"] = {
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "protocol_version": PROTOCOL_VERSION,
            "schema": store_schema(),
            "endpoint": str(self.bound or self.endpoint),
        }
        snapshot = getattr(self.fleet, "metrics_snapshot", None)
        if callable(snapshot):
            stats["metrics"] = snapshot()
        stats["latency"] = {
            op: self._latency[op].summary()
            for op in sorted(self._latency)
        }
        return stats

    async def _compile(self, request: CompileRequest) -> Reply:
        loop = asyncio.get_running_loop()
        # The frontend hop of the distributed trace.  A client-sent
        # context is adopted; with none, a server that exports spans
        # starts its own trace here.  Otherwise the null span's ids are
        # None and the incoming context passes through to the fleet
        # untouched.
        span = self._request_tracer.start(
            "frontend.request",
            trace_id=request.trace_id,
            parent=request.parent_span_id,
            benchmark=request.cell.benchmark,
            scheme=request.cell.scheme,
        )
        trace_id = span.trace_id or request.trace_id
        parent_id = span.span_id or request.parent_span_id
        try:
            handle = self.fleet.submit(JobRequest(
                cell=request.cell, program_text=request.program_text,
                trace_id=trace_id, parent_span_id=parent_id,
            ))
        except ServeError as error:
            self.metrics.inc("frontend.rejected")
            span.finish(outcome="rejected",
                        error=type(error).__name__)
            return ErrorReply(error_code_for(error), str(error))
        except Exception as error:
            # The request cannot even be content-keyed (unknown scheme,
            # bad benchmark name, unparsable program): a client bug, not
            # a fleet failure — resending it verbatim cannot succeed.
            self.metrics.inc("frontend.bad_requests")
            span.finish(outcome="bad_request")
            return ErrorReply(ErrorCode.BAD_REQUEST, str(error))
        future: "asyncio.Future[JobHandle]" = loop.create_future()

        def _done(settled: JobHandle) -> None:
            def _complete() -> None:
                if not future.done():
                    future.set_result(settled)
            try:
                loop.call_soon_threadsafe(_complete)
            except RuntimeError:
                pass  # loop already closed mid-shutdown

        handle.add_done_callback(_done)
        try:
            settled = await asyncio.wait_for(future, request.timeout)
        except asyncio.TimeoutError:
            self.metrics.inc("frontend.request_timeouts")
            span.annotate("timeout")
            span.finish(outcome="timeout")
            return ErrorReply(
                ErrorCode.TIMEOUT,
                f"request deadline of {request.timeout}s expired; the "
                f"job is still in flight and a retry will dedup onto it",
            )
        error = settled.error
        if error is not None:
            self.metrics.inc("frontend.failed")
            span.finish(outcome="failed", error=type(error).__name__)
            return ErrorReply(error_code_for(error), str(error))
        self.metrics.inc("frontend.compiles")
        span.finish(
            outcome="ok",
            shard=getattr(settled, "shard", -1),
            source=getattr(settled, "source", "computed"),
            attempts=settled.attempts,
        )
        return CompileReply(
            result=result_to_payload(settled.key, settled.result(0)),
            cached=settled.cached,
            attempts=settled.attempts,
            shard=getattr(settled, "shard", -1),
            source=getattr(settled, "source", "computed"),
        )


class FrontendServer:
    """A front-end on its own thread + event loop (sync facade).

    ::

        fleet = CompileFleet(shards=2, cache_dir=".repro-cache")
        server = FrontendServer(fleet, "tcp://127.0.0.1:0")
        endpoint = server.start()      # the actually-bound endpoint
        ...
        server.stop()                  # or a client sends shutdown
    """

    def __init__(self, fleet: CompileFleet, endpoint, **kwargs) -> None:
        self.frontend = FleetFrontend(fleet, endpoint, **kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> Endpoint:
        """Start serving; returns the bound endpoint once listening."""
        self._thread = threading.Thread(
            target=self._run, name="repro-frontend", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("front-end failed to start in time")
        if self._error is not None:
            raise self._error
        assert self.frontend.bound is not None
        return self.frontend.bound

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.frontend.start()
        except BaseException as error:  # bind failures surface in start()
            self._error = error
            self._started.set()
            return
        self._started.set()
        try:
            await self.frontend.wait_shutdown()
        finally:
            await self.frontend.close()

    @property
    def endpoint(self) -> Optional[Endpoint]:
        return self.frontend.bound

    def stop(self, timeout: float = 30.0) -> None:
        """Stop accepting connections and join the server thread."""
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    self.frontend.request_shutdown)
            except RuntimeError:
                pass
        self.join(timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the server thread (a client shutdown op ends it)."""
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "FrontendServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
