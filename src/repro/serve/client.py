"""Transport-agnostic client for the compile fleet.

:func:`repro.api.connect` returns a :class:`Client`; the endpoint
string (``unix:///path`` or ``tcp://host:port``) is the only thing
that distinguishes a local socket from a TCP fleet.  One client owns
one connection, performs the versioned handshake on connect, and
resends a request only when it was neither completed nor failed: after
a dropped connection, or a ``SATURATED`` (not accepted) or ``TIMEOUT``
(still in flight) reply.  Every compile is keyed by content, so the
server dedups a resend onto the in-flight job or answers it from its
caches; it never runs the same job twice.  Failure policy is the
fleet's: a ``SHARD_DOWN`` reply means the fleet already spent its retry
budget, and the client passes it on.

The client is deliberately synchronous — one request outstanding per
connection.  Fleet-scale concurrency comes from many clients (see
:mod:`repro.serve.soak`), which is also the shape real callers have.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.evaluation.engine import CellResult, GridCell
from repro.ir.printer import format_program
from repro.obs.distributed import NULL_DTRACER
from repro.serve.jobs import ServeError
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CompileReply,
    CompileRequest,
    ErrorCode,
    ErrorReply,
    FrameError,
    HealthReply,
    HealthRequest,
    Hello,
    HelloReply,
    PingReply,
    PingRequest,
    Reply,
    Request,
    ShutdownReply,
    ShutdownRequest,
    StatsReply,
    StatsRequest,
    parse_endpoint,
    recv_frame,
    reply_from_wire,
    request_to_wire,
    send_frame,
)
from repro.serve.store import result_from_payload


class ClientError(ServeError):
    """The server answered with a structured error reply."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


#: Error codes worth a resend: the request was neither completed nor
#: failed (``SATURATED``: not accepted; ``TIMEOUT``: still in flight),
#: and content keying makes the resend join it.  ``SHARD_DOWN`` is
#: final: the fleet has already spent its retry budget.
RETRYABLE_CODES = frozenset({
    ErrorCode.SATURATED,
    ErrorCode.TIMEOUT,
})


class Client:
    """One connection to a compile front-end.

    ::

        with connect("tcp://127.0.0.1:7421") as client:
            results = client.evaluate(cells, program)
    """

    def __init__(
        self,
        endpoint,
        *,
        timeout: float = 120.0,
        connect_timeout: float = 10.0,
        retries: int = 3,
        retry_backoff: float = 0.05,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        client_name: str = "repro-client",
        sleep=time.sleep,
        tracer=NULL_DTRACER,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_frame_bytes = max_frame_bytes
        self.client_name = client_name
        self._sleep = sleep
        #: A :class:`~repro.obs.distributed.DistributedTracer` (service
        #: ``client``).  Each :meth:`submit` opens the trace's *root*
        #: span and ships its context on the wire, so the merged trace
        #: hangs every server-side hop under the client's view of the
        #: request.  Defaults to the no-op tracer (no wire overhead).
        self.tracer = tracer if tracer is not None else NULL_DTRACER
        self._sock: Optional[socket.socket] = None
        #: The server's handshake reply (protocol, schema, shard count).
        self.server_info: Optional[HelloReply] = None

    # -- connection ------------------------------------------------------

    def connect(self) -> "Client":
        """Dial the endpoint and perform the version handshake."""
        if self._sock is not None:
            return self
        if self.endpoint.scheme == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            sock.connect(self.endpoint.path)
        else:
            sock = socket.create_connection(
                (self.endpoint.host, self.endpoint.port),
                timeout=self.connect_timeout,
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        self._sock = sock
        try:
            reply = self._roundtrip(Hello(
                protocol_version=PROTOCOL_VERSION, client=self.client_name,
            ))
        except BaseException:
            self.close()
            raise
        if isinstance(reply, ErrorReply):
            self.close()
            raise ClientError(reply.code, reply.message)
        if not isinstance(reply, HelloReply):
            self.close()
            raise ClientError(ErrorCode.INTERNAL,
                              f"unexpected handshake reply: {reply!r}")
        self.server_info = reply
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self.server_info = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def __enter__(self) -> "Client":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------

    def _roundtrip(self, request: Request) -> Reply:
        assert self._sock is not None, "client is not connected"
        send_frame(self._sock, request_to_wire(request))
        raw = recv_frame(self._sock, self.max_frame_bytes)
        if raw is None:
            raise ConnectionError("server closed the connection")
        return reply_from_wire(raw)

    def _call(self, request: Request) -> Reply:
        """One request with reconnect-and-resend on transient failure."""
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.retry_backoff * attempt)
            try:
                self.connect()
                reply = self._roundtrip(request)
            except (ConnectionError, socket.timeout, OSError,
                    FrameError) as error:
                self.close()
                last = error
                continue
            if isinstance(reply, ErrorReply):
                if reply.code in RETRYABLE_CODES:
                    last = ClientError(reply.code, reply.message)
                    continue
                raise ClientError(reply.code, reply.message)
            return reply
        assert last is not None
        raise last

    # -- operations ------------------------------------------------------

    def submit(
        self,
        cell: GridCell,
        *,
        program_text: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> CompileReply:
        """Compile one cell; returns the full reply (result + metadata)."""
        with self.tracer.start_span(
            "client.compile", benchmark=cell.benchmark,
            scheme=cell.scheme, machine=cell.machine,
            heuristic=cell.heuristic, client=self.client_name,
        ) as span:
            reply = self._call(CompileRequest(
                cell=cell, program_text=program_text, timeout=timeout,
                trace_id=span.trace_id, parent_span_id=span.span_id,
            ))
            if not isinstance(reply, CompileReply):
                raise ClientError(ErrorCode.INTERNAL,
                                  f"unexpected compile reply: {reply!r}")
            span.set(shard=reply.shard, source=reply.source,
                     cached=reply.cached)
            return reply

    def evaluate(
        self,
        cells: Sequence[GridCell],
        program=None,
        *,
        program_text: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[CellResult]:
        """Compile a batch of cells, preserving order."""
        if program is not None and program_text is None:
            program_text = format_program(program)
        return [
            result_from_payload(
                self.submit(cell, program_text=program_text,
                            timeout=timeout).result)
            for cell in cells
        ]

    def warm(
        self,
        cells: Sequence[GridCell],
        program=None,
        *,
        program_text: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, int]:
        """Drive ``cells`` through the fleet to populate its caches.

        Returns ``{"cells": n, "cached": hits, "computed": misses}``.
        """
        if program is not None and program_text is None:
            program_text = format_program(program)
        cached = computed = 0
        for cell in cells:
            reply = self.submit(cell, program_text=program_text,
                                timeout=timeout)
            if reply.cached:
                cached += 1
            else:
                computed += 1
        return {"cells": cached + computed, "cached": cached,
                "computed": computed}

    def ping(self) -> PingReply:
        reply = self._call(PingRequest())
        if not isinstance(reply, PingReply):
            raise ClientError(ErrorCode.INTERNAL,
                              f"unexpected ping reply: {reply!r}")
        return reply

    def stats(self) -> Dict:
        reply = self._call(StatsRequest())
        if not isinstance(reply, StatsReply):
            raise ClientError(ErrorCode.INTERNAL,
                              f"unexpected stats reply: {reply!r}")
        return reply.stats

    def health(self) -> HealthReply:
        """The server's cheap liveness probe (``health`` op)."""
        reply = self._call(HealthRequest())
        if not isinstance(reply, HealthReply):
            raise ClientError(ErrorCode.INTERNAL,
                              f"unexpected health reply: {reply!r}")
        return reply

    def shutdown(self) -> None:
        """Ask the server to stop (no retry — shutdown is not idempotent
        against a server that already went away)."""
        self.connect()
        reply = self._roundtrip(ShutdownRequest())
        if isinstance(reply, ErrorReply):
            raise ClientError(reply.code, reply.message)
        if not isinstance(reply, ShutdownReply):
            raise ClientError(ErrorCode.INTERNAL,
                              f"unexpected shutdown reply: {reply!r}")
        self.close()


def connect(endpoint, **kwargs) -> Client:
    """Dial a compile front-end and return a connected :class:`Client`.

    Accepts ``unix:///path/to.sock``, ``tcp://host:port``, or an
    :class:`~repro.serve.wire.Endpoint`.
    """
    return Client(endpoint, **kwargs).connect()
