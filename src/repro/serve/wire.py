"""Versioned, length-prefixed JSON wire protocol for the compile fleet.

This module is the transport contract between
:class:`~repro.serve.client.Client` (or any foreign client) and
the asyncio front-end (:mod:`repro.serve.frontend`).  It has three
layers, all stdlib-only:

* **Endpoints** — one textual scheme names both transports:
  ``unix:///path/to.sock`` and ``tcp://host:port`` parse to an
  :class:`Endpoint`.

* **Framing** — every message is one JSON object inside a
  length-prefixed frame: a 4-byte big-endian length followed by that
  many bytes of UTF-8 JSON.  Unlike PR 5's newline-delimited protocol,
  frames carry embedded newlines (program texts!) without escaping
  games, a reader always knows exactly how much to read, and a frame
  whose declared length exceeds :data:`MAX_FRAME_BYTES` is rejected
  *before* its body is read (:class:`FrameTooLargeError`).  A stream
  that ends mid-frame raises :class:`TruncatedFrameError`; a clean EOF
  at a frame boundary is a normal connection close.

* **Messages** — ad-hoc dicts are promoted to typed request/response
  dataclasses (:class:`CompileRequest`, :class:`CompileReply`, ...)
  with explicit ``to``/``from`` wire codecs, so client and fleet can
  evolve independently.  Every connection opens with a
  :class:`Hello`/:class:`HelloReply` handshake carrying
  :data:`PROTOCOL_VERSION`; a mismatch is answered with the structured
  error code ``UNSUPPORTED_VERSION`` and the connection is closed.
  Failures travel as :class:`ErrorReply` with a machine-readable
  :class:`ErrorCode` (``SATURATED`` = back off and retry, ``SHARD_DOWN``
  = infrastructure failure, ``BAD_REQUEST`` = client bug, ...), never
  as free-text-only strings.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.evaluation.engine import GridCell
from repro.schedule.scheduler import BACKENDS
from repro.serve.jobs import ServeError

#: Version of the framed protocol.  Bump on any incompatible change to
#: the frame layout or message shapes; the handshake then rejects the
#: peer with ``UNSUPPORTED_VERSION`` instead of misparsing frames.
PROTOCOL_VERSION = 1

#: Hard bound on one frame's body.  Program texts are tens of KiB;
#: 16 MiB leaves three orders of magnitude of headroom while keeping a
#: garbage length prefix (e.g. a peer speaking a different protocol)
#: from making the reader buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ErrorCode:
    """Machine-readable failure categories carried by :class:`ErrorReply`.

    * ``BAD_REQUEST`` — the request was malformed; retrying it verbatim
      cannot succeed.
    * ``UNSUPPORTED_VERSION`` — handshake version mismatch; the
      connection is closed after this reply.
    * ``SATURATED`` — backpressure: the target shard's intake queue is
      full.  Retry after a backoff; the request was *not* accepted.
    * ``SHARD_DOWN`` — the owning shard failed (crash/timeout budget
      exhausted) and fleet-level retries ran out.
    * ``JOB_FAILED`` — the job itself fails deterministically;
      retrying replays the same failure.
    * ``TIMEOUT`` — the request's own deadline expired while the job
      was still in flight (the job keeps running; a retry dedups onto
      it by content key).
    * ``SHUTTING_DOWN`` — the fleet no longer accepts work.
    * ``INTERNAL`` — anything else; a server-side bug.
    """

    BAD_REQUEST = "BAD_REQUEST"
    UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
    SATURATED = "SATURATED"
    SHARD_DOWN = "SHARD_DOWN"
    JOB_FAILED = "JOB_FAILED"
    TIMEOUT = "TIMEOUT"
    SHUTTING_DOWN = "SHUTTING_DOWN"
    INTERNAL = "INTERNAL"

    ALL = frozenset({
        "BAD_REQUEST", "UNSUPPORTED_VERSION", "SATURATED", "SHARD_DOWN",
        "JOB_FAILED", "TIMEOUT", "SHUTTING_DOWN", "INTERNAL",
    })


class WireError(ServeError):
    """Base of all wire-layer failures; carries an :class:`ErrorCode`."""

    code = ErrorCode.INTERNAL

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ProtocolError(WireError):
    """The peer sent a structurally invalid message (bad JSON inside a
    valid frame, unknown op, missing fields, version mismatch).  The
    framing itself is intact, so the connection can continue."""

    code = ErrorCode.BAD_REQUEST


class FrameError(WireError):
    """The byte stream itself is broken; the connection must close."""


class TruncatedFrameError(FrameError):
    """EOF in the middle of a frame (header or body)."""

    code = ErrorCode.BAD_REQUEST


class FrameTooLargeError(FrameError):
    """A frame header declares a body beyond :data:`MAX_FRAME_BYTES`."""

    code = ErrorCode.BAD_REQUEST


# ----------------------------------------------------------------------
# Endpoints


@dataclass(frozen=True)
class Endpoint:
    """One service address under the unified endpoint scheme."""

    scheme: str  # "unix" | "tcp"
    path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    def __str__(self) -> str:
        if self.scheme == "unix":
            return f"unix://{self.path}"
        return f"tcp://{self.host}:{self.port}"


def parse_endpoint(value: Union[str, Endpoint]) -> Endpoint:
    """Parse ``unix:///path`` / ``tcp://host:port``.

    Anything else, a bare filesystem path included, raises
    :class:`ValueError`.
    """
    if isinstance(value, Endpoint):
        return value
    text = value.strip()
    if not text:
        raise ValueError("empty endpoint")
    if text.startswith("unix://"):
        path = text[len("unix://"):]
        if not path:
            raise ValueError(f"unix endpoint needs a path: {value!r}")
        return Endpoint(scheme="unix", path=path)
    if text.startswith("tcp://"):
        rest = text[len("tcp://"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host or not port_text.isdigit():
            raise ValueError(
                f"tcp endpoint must be tcp://host:port: {value!r}"
            )
        port = int(port_text)
        if port > 65535:
            raise ValueError(f"tcp port out of range: {value!r}")
        return Endpoint(scheme="tcp", host=host, port=port)
    if "://" in text:
        raise ValueError(
            f"unknown endpoint scheme {text.split('://', 1)[0]!r} "
            f"(use unix:// or tcp://)"
        )
    raise ValueError(
        f"endpoint must be unix:///path or tcp://host:port: {value!r}"
    )


# ----------------------------------------------------------------------
# Framing


def encode_frame(message: Dict[str, object]) -> bytes:
    """One message as header + JSON body bytes."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame body {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Dict[str, object]:
    """JSON body bytes -> message dict (:class:`ProtocolError` on junk)."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"frame body is not JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def _check_length(length: int, max_bytes: int) -> None:
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte bound"
        )


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on immediate clean EOF."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            if got == 0:
                return None
            raise TruncatedFrameError(
                f"connection closed {n - got} bytes into a frame"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES
               ) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length, max_bytes)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise TruncatedFrameError("connection closed after a frame header")
    return decode_frame_body(body)


async def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES
                     ) -> Optional[Dict[str, object]]:
    """Read one frame from an asyncio StreamReader; None on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise TruncatedFrameError("connection closed inside a frame header")
    (length,) = _HEADER.unpack(header)
    _check_length(length, max_bytes)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise TruncatedFrameError(
            "connection closed inside a frame body"
        )
    return decode_frame_body(body)


async def write_frame(writer, message: Dict[str, object]) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Cells on the wire


def cell_to_wire(cell: GridCell) -> Dict[str, object]:
    return {
        "benchmark": cell.benchmark,
        "scheme": cell.scheme,
        "machine": cell.machine,
        "heuristic": cell.heuristic,
        "dominator_parallelism": cell.dominator_parallelism,
        "schedule_copies": cell.schedule_copies,
        "backend": getattr(cell, "backend", "heuristic"),
    }


def cell_from_wire(raw: Dict[str, object]) -> GridCell:
    if not isinstance(raw, dict):
        raise ProtocolError("cell must be a JSON object")
    scheme = raw.get("scheme")
    if not isinstance(scheme, str):
        raise ProtocolError("cell.scheme must be a string")
    backend = raw.get("backend", "heuristic")
    if backend not in BACKENDS:
        raise ProtocolError(
            f"cell.backend must be one of {BACKENDS}, not {backend!r}")
    return GridCell(
        benchmark=raw.get("benchmark", "<wire>"),
        scheme=scheme,
        machine=raw.get("machine", "4U"),
        heuristic=raw.get("heuristic", "global_weight"),
        dominator_parallelism=bool(raw.get("dominator_parallelism", False)),
        schedule_copies=bool(raw.get("schedule_copies", False)),
        backend=backend,
    )


# ----------------------------------------------------------------------
# Typed requests


@dataclass(frozen=True)
class Hello:
    """Connection opener: the client's protocol version and identity."""

    protocol_version: int = PROTOCOL_VERSION
    client: str = ""


@dataclass(frozen=True)
class CompileRequest:
    """One cell to compile; ``program_text`` None means the built-in
    benchmark named by ``cell.benchmark``.

    ``trace_id``/``parent_span_id`` are the distributed trace context
    (:mod:`repro.obs.distributed`).  Both are optional and emitted on
    the wire only when set, so the message shape — and protocol
    version 1 — are unchanged for untraced clients, and version-1
    servers that predate tracing simply ignore the extra fields.
    """

    cell: GridCell
    program_text: Optional[str] = None
    timeout: Optional[float] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None


@dataclass(frozen=True)
class PingRequest:
    """Health probe: answered with fleet/shard liveness, never queued."""


@dataclass(frozen=True)
class StatsRequest:
    """Fleet, shard, store, and hot-cache statistics."""


@dataclass(frozen=True)
class HealthRequest:
    """Cheap liveness/readiness probe: shard up/down map only, no
    metrics collection.  Like ``stats``, answered by the front-end
    without touching the compute path."""


@dataclass(frozen=True)
class ShutdownRequest:
    """Ask the front-end to stop serving (drains the fleet)."""


Request = Union[Hello, CompileRequest, PingRequest, StatsRequest,
                HealthRequest, ShutdownRequest]


def request_to_wire(request: Request) -> Dict[str, object]:
    if isinstance(request, Hello):
        return {"op": "hello",
                "protocol_version": request.protocol_version,
                "client": request.client}
    if isinstance(request, CompileRequest):
        message: Dict[str, object] = {
            "op": "compile", "cell": cell_to_wire(request.cell),
        }
        if request.program_text is not None:
            message["program_text"] = request.program_text
        if request.timeout is not None:
            message["timeout"] = request.timeout
        if request.trace_id is not None:
            message["trace_id"] = request.trace_id
        if request.parent_span_id is not None:
            message["parent_span_id"] = request.parent_span_id
        return message
    if isinstance(request, PingRequest):
        return {"op": "ping"}
    if isinstance(request, StatsRequest):
        return {"op": "stats"}
    if isinstance(request, HealthRequest):
        return {"op": "health"}
    if isinstance(request, ShutdownRequest):
        return {"op": "shutdown"}
    raise TypeError(f"not a request: {request!r}")


def request_from_wire(raw: Dict[str, object]) -> Request:
    """Parse + validate one request dict (:class:`ProtocolError` on
    unknown ops and malformed fields — code ``BAD_REQUEST``)."""
    op = raw.get("op")
    if op == "hello":
        version = raw.get("protocol_version")
        if not isinstance(version, int):
            raise ProtocolError("hello.protocol_version must be an integer")
        client = raw.get("client", "")
        return Hello(protocol_version=version,
                     client=client if isinstance(client, str) else "")
    if op == "compile":
        if "cell" not in raw:
            raise ProtocolError("compile request carries no cell")
        text = raw.get("program_text")
        if text is not None and not isinstance(text, str):
            raise ProtocolError("compile.program_text must be a string")
        timeout = raw.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ProtocolError("compile.timeout must be a number")
        trace_id = raw.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ProtocolError("compile.trace_id must be a string")
        parent_span_id = raw.get("parent_span_id")
        if parent_span_id is not None \
                and not isinstance(parent_span_id, str):
            raise ProtocolError("compile.parent_span_id must be a string")
        return CompileRequest(cell=cell_from_wire(raw["cell"]),
                              program_text=text,
                              timeout=None if timeout is None
                              else float(timeout),
                              trace_id=trace_id,
                              parent_span_id=parent_span_id)
    if op == "ping":
        return PingRequest()
    if op == "stats":
        return StatsRequest()
    if op == "health":
        return HealthRequest()
    if op == "shutdown":
        return ShutdownRequest()
    raise ProtocolError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Typed replies


@dataclass(frozen=True)
class HelloReply:
    """Handshake accept: the server's version, schema, and shard count."""

    protocol_version: int
    schema: str
    shards: int


@dataclass(frozen=True)
class CompileReply:
    """One finished compile: the store payload plus provenance."""

    result: Dict[str, object]
    cached: bool
    attempts: int
    shard: int
    source: str  # "hot" | "store" | "computed"


@dataclass(frozen=True)
class PingReply:
    protocol_version: int
    schema: str
    healthy: bool
    shards: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StatsReply:
    stats: Dict[str, object]


@dataclass(frozen=True)
class HealthReply:
    """Liveness summary: overall health, per-shard up/down, identity."""

    healthy: bool
    shards: Dict[str, object] = field(default_factory=dict)
    uptime_seconds: float = 0.0
    pid: int = 0


@dataclass(frozen=True)
class ShutdownReply:
    """Acknowledged; the front-end stops accepting connections."""


@dataclass(frozen=True)
class ErrorReply:
    """A structured failure: a machine-readable code plus detail text."""

    code: str
    message: str


Reply = Union[HelloReply, CompileReply, PingReply, StatsReply,
              HealthReply, ShutdownReply, ErrorReply]


def reply_to_wire(reply: Reply) -> Dict[str, object]:
    if isinstance(reply, ErrorReply):
        return {"ok": False, "code": reply.code, "error": reply.message}
    if isinstance(reply, HelloReply):
        return {"ok": True, "op": "hello",
                "protocol_version": reply.protocol_version,
                "schema": reply.schema, "shards": reply.shards}
    if isinstance(reply, CompileReply):
        return {"ok": True, "op": "compile", "result": reply.result,
                "cached": reply.cached, "attempts": reply.attempts,
                "shard": reply.shard, "source": reply.source}
    if isinstance(reply, PingReply):
        return {"ok": True, "op": "ping",
                "protocol_version": reply.protocol_version,
                "schema": reply.schema, "healthy": reply.healthy,
                "shards": reply.shards}
    if isinstance(reply, StatsReply):
        return {"ok": True, "op": "stats", "stats": reply.stats}
    if isinstance(reply, HealthReply):
        return {"ok": True, "op": "health", "healthy": reply.healthy,
                "shards": reply.shards,
                "uptime_seconds": reply.uptime_seconds, "pid": reply.pid}
    if isinstance(reply, ShutdownReply):
        return {"ok": True, "op": "shutdown"}
    raise TypeError(f"not a reply: {reply!r}")


def reply_from_wire(raw: Dict[str, object]) -> Reply:
    if raw.get("ok") is False:
        code = raw.get("code")
        if code not in ErrorCode.ALL:
            code = ErrorCode.INTERNAL
        return ErrorReply(code=code, message=str(raw.get("error", "")))
    if raw.get("ok") is not True:
        raise ProtocolError("reply carries no ok field")
    op = raw.get("op")
    if op == "hello":
        version = raw.get("protocol_version")
        if not isinstance(version, int):
            raise ProtocolError("hello reply without protocol_version")
        return HelloReply(protocol_version=version,
                          schema=str(raw.get("schema", "")),
                          shards=int(raw.get("shards", 0)))
    if op == "compile":
        result = raw.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("compile reply without a result payload")
        return CompileReply(result=result,
                            cached=bool(raw.get("cached", False)),
                            attempts=int(raw.get("attempts", 0)),
                            shard=int(raw.get("shard", -1)),
                            source=str(raw.get("source", "")))
    if op == "ping":
        return PingReply(
            protocol_version=int(raw.get("protocol_version", 0)),
            schema=str(raw.get("schema", "")),
            healthy=bool(raw.get("healthy", False)),
            shards=raw.get("shards", {})
            if isinstance(raw.get("shards"), dict) else {},
        )
    if op == "stats":
        stats = raw.get("stats")
        if not isinstance(stats, dict):
            raise ProtocolError("stats reply without a stats object")
        return StatsReply(stats=stats)
    if op == "health":
        return HealthReply(
            healthy=bool(raw.get("healthy", False)),
            shards=raw.get("shards", {})
            if isinstance(raw.get("shards"), dict) else {},
            uptime_seconds=float(raw.get("uptime_seconds", 0.0)),
            pid=int(raw.get("pid", 0)),
        )
    if op == "shutdown":
        return ShutdownReply()
    raise ProtocolError(f"unknown reply op {op!r}")
