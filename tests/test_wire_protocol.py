"""The framed, versioned wire protocol and the endpoint scheme.

Pure-codec tests (no sockets) for framing edges — truncation,
oversize, garbage — plus live front-end tests for the handshake rules:
version negotiation, hello-first enforcement, and the structured error
codes a client can rely on.
"""

from __future__ import annotations

import socket
import struct

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation.engine import GridCell
from repro.obs.metrics import Histogram
from repro.serve.fleet import CompileFleet
from repro.serve.frontend import FrontendServer
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CompileReply,
    CompileRequest,
    Endpoint,
    ErrorCode,
    ErrorReply,
    FrameTooLargeError,
    HealthReply,
    HealthRequest,
    Hello,
    HelloReply,
    PingReply,
    PingRequest,
    ProtocolError,
    ShutdownReply,
    ShutdownRequest,
    StatsReply,
    StatsRequest,
    TruncatedFrameError,
    WireError,
    cell_from_wire,
    decode_frame_body,
    encode_frame,
    parse_endpoint,
    recv_frame,
    reply_from_wire,
    reply_to_wire,
    request_from_wire,
    request_to_wire,
    send_frame,
)
from repro.util.errors import ReproError


class TestEndpoints:
    def test_unix_and_tcp_round_trip(self):
        unix = parse_endpoint("unix:///tmp/fleet.sock")
        assert unix == Endpoint(scheme="unix", path="/tmp/fleet.sock")
        assert parse_endpoint(str(unix)) == unix

        tcp = parse_endpoint("tcp://127.0.0.1:7421")
        assert tcp == Endpoint(scheme="tcp", host="127.0.0.1", port=7421)
        assert parse_endpoint(str(tcp)) == tcp

    def test_bare_path_is_rejected(self):
        for bare in ("/tmp/old.sock", "old.sock"):
            with pytest.raises(ValueError, match="unix:///path"):
                parse_endpoint(bare)

    def test_endpoint_objects_pass_through(self):
        endpoint = Endpoint(scheme="tcp", host="h", port=1)
        assert parse_endpoint(endpoint) is endpoint

    @pytest.mark.parametrize("bad", [
        "", "unix://", "tcp://", "tcp://host", "tcp://host:notaport",
        "tcp://host:70000", "http://host:80",
    ])
    def test_rejects_malformed_endpoints(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestFraming:
    def _pair(self):
        server, client = socket.socketpair()
        server.settimeout(5.0)
        client.settimeout(5.0)
        return server, client

    def test_frame_round_trip_carries_newlines(self):
        server, client = self._pair()
        with server, client:
            message = {"op": "compile", "program_text": "line1\nline2\n"}
            send_frame(client, message)
            assert recv_frame(server) == message

    def test_clean_eof_is_none(self):
        server, client = self._pair()
        with server:
            client.close()
            assert recv_frame(server) is None

    def test_truncated_header_and_body_raise(self):
        server, client = self._pair()
        with server:
            client.sendall(b"\x00\x00")  # half a header
            client.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(server)
        server, client = self._pair()
        with server:
            frame = encode_frame({"op": "ping"})
            client.sendall(frame[:-3])  # header + partial body
            client.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(server)

    def test_oversized_frame_rejected_before_body_read(self):
        server, client = self._pair()
        with server, client:
            # A header claiming 1 GiB; no body ever sent — the reader
            # must reject on the header alone instead of buffering.
            client.sendall(struct.pack(">I", 1 << 30))
            with pytest.raises(FrameTooLargeError):
                recv_frame(server)

    def test_encode_refuses_oversized_body(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"pad": "x" * (MAX_FRAME_BYTES + 1)})

    def test_garbage_body_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_frame_body(b"this is not json")
        with pytest.raises(ProtocolError):
            decode_frame_body(b'"a json string, not an object"')

    def test_bounded_reader_honours_custom_limit(self):
        server, client = self._pair()
        with server, client:
            send_frame(client, {"pad": "x" * 1024})
            with pytest.raises(FrameTooLargeError):
                recv_frame(server, max_bytes=64)


class TestMessageCodecs:
    def test_requests_round_trip(self):
        cell = GridCell("compress", "treegion", "4U", "global_weight",
                        dominator_parallelism=True)
        for request in (
            Hello(protocol_version=PROTOCOL_VERSION, client="t"),
            CompileRequest(cell=cell, program_text="program entry=...",
                           timeout=5.0),
            CompileRequest(cell=cell),
            CompileRequest(cell=GridCell("compress", "treegion", "4U",
                                         "global_weight", backend="exact")),
            CompileRequest(cell=cell, trace_id="a" * 32,
                           parent_span_id="b" * 16),
            PingRequest(),
            StatsRequest(),
            HealthRequest(),
            ShutdownRequest(),
        ):
            assert request_from_wire(request_to_wire(request)) == request

    def test_replies_round_trip(self):
        for reply in (
            HelloReply(protocol_version=1, schema="s", shards=4),
            CompileReply(result={"key": "k"}, cached=True, attempts=0,
                         shard=2, source="hot"),
            PingReply(protocol_version=1, schema="s", healthy=True,
                      shards={"0": {"up": True}}),
            StatsReply(stats={"inflight": 0}),
            HealthReply(healthy=True, shards={"0": {"up": True}},
                        uptime_seconds=1.5, pid=42),
            ShutdownReply(),
            ErrorReply(code=ErrorCode.SATURATED, message="queue full"),
        ):
            assert reply_from_wire(reply_to_wire(reply)) == reply

    def test_trace_context_is_optional_and_version_1_compatible(self):
        cell = GridCell("compress", "treegion", "4U", "global_weight",
                        dominator_parallelism=True)
        # A context-free request puts NO trace keys on the wire — the
        # exact frames a pre-tracing peer produces and expects.
        bare = request_to_wire(CompileRequest(cell=cell))
        assert "trace_id" not in bare and "parent_span_id" not in bare
        parsed = request_from_wire(bare)
        assert parsed.trace_id is None and parsed.parent_span_id is None
        # With context, both fields ride along.
        traced = request_to_wire(CompileRequest(
            cell=cell, trace_id="t1", parent_span_id="s1"))
        assert traced["trace_id"] == "t1"
        assert traced["parent_span_id"] == "s1"

    def test_malformed_trace_fields_are_bad_request(self):
        cell_wire = request_to_wire(CompileRequest(
            cell=GridCell("compress", "treegion", "4U",
                          "global_weight", dominator_parallelism=True)))
        for field, bad in (("trace_id", 7), ("parent_span_id", ["x"])):
            raw = dict(cell_wire)
            raw[field] = bad
            with pytest.raises(ProtocolError) as failure:
                request_from_wire(raw)
            assert failure.value.code == ErrorCode.BAD_REQUEST

    def test_unknown_op_and_bad_fields_are_bad_request(self):
        for raw in (
            {"op": "no-such-op"},
            {"op": "hello", "protocol_version": "one"},
            {"op": "compile"},
            {"op": "compile", "cell": "not a dict"},
            {"op": "compile", "cell": {"scheme": 7}},
            {"op": "compile",
             "cell": {"scheme": "treegion", "backend": "bogus"}},
            {"op": "compile",
             "cell": {"scheme": "treegion", "backend": ["exact"]}},
        ):
            with pytest.raises(ProtocolError) as failure:
                request_from_wire(raw)
            assert failure.value.code == ErrorCode.BAD_REQUEST

    def test_unknown_error_code_degrades_to_internal(self):
        for code in ("FUTURE_CODE", ["BAD_REQUEST"], {"a": 1}):
            reply = reply_from_wire({"ok": False, "code": code, "error": "?"})
            assert isinstance(reply, ErrorReply)
            assert reply.code == ErrorCode.INTERNAL

    @pytest.mark.parametrize("raw", [
        {"ok": True, "op": "hello", "protocol_version": 1, "shards": "4"},
        {"ok": True, "op": "compile", "result": {}, "attempts": [1]},
        {"ok": True, "op": "compile", "result": {}, "shard": float("inf")},
        {"ok": True, "op": "ping", "protocol_version": float("nan")},
        {"ok": True, "op": "health", "uptime_seconds": {"s": 1}},
        {"ok": True, "op": "health", "uptime_seconds": 10 ** 400},
    ])
    def test_bad_reply_figure_is_a_protocol_error(self, raw):
        with pytest.raises(ProtocolError):
            reply_from_wire(raw)

    @pytest.mark.parametrize("raw", [
        {"op": "compile", "cell": {"scheme": "bb"}, "timeout": 10 ** 400},
        {"op": "compile", "cell": {"scheme": "bb", "machine": ["4U"]}},
        {"op": "compile", "cell": {"scheme": "bb", "heuristic": 7}},
    ])
    def test_bad_request_figure_is_a_protocol_error(self, raw):
        with pytest.raises(ProtocolError) as failure:
            request_from_wire(raw)
        assert failure.value.code == ErrorCode.BAD_REQUEST


# ----------------------------------------------------------------------
# Fuzzing the wire trust boundary: whatever a peer sends, the decoders
# return a typed message or raise a WireError (or another ReproError).

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)

#: A JSON value of any type, shallow: cheap to draw, and it still covers
#: unhashable containers, huge ints and non-finite floats.
_VALUE = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
          | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))



def _field(valid):
    """Half the time a value of the right type (``valid``), half the time
    any JSON value."""
    return st.booleans().flatmap(lambda right: valid if right else _VALUE)


_CELL = st.fixed_dictionaries({}, optional={
    field: _field(valid) for field, valid in (
        ("benchmark", st.just("compress")),
        ("scheme", st.sampled_from(["treegion", "bb", "bogus:1"])),
        ("machine", st.sampled_from(["4U", "8U"])),
        ("heuristic", st.just("global_weight")),
        ("dominator_parallelism", st.booleans()),
        ("schedule_copies", st.booleans()),
        ("backend", st.sampled_from(["heuristic", "exact"])),
    )})

#: Every field a request or reply decoder reads, each either arbitrary
#: JSON or a value of the right type, so decoding gets past early checks.
_FIELDS = {
    "protocol_version": st.integers(),
    "client": st.text(max_size=4),
    "cell": _CELL,
    "program_text": st.text(max_size=8),
    "timeout": st.integers() | st.floats(),
    "trace_id": st.text(max_size=4),
    "parent_span_id": st.text(max_size=4),
    "code": st.sampled_from(sorted(ErrorCode.ALL)),
    "error": st.text(max_size=4),
    "schema": st.text(max_size=4),
    "shards": st.integers() | st.dictionaries(st.text(max_size=2),
                                              _JSON, max_size=2),
    "result": st.dictionaries(st.text(max_size=4), _JSON, max_size=2),
    "cached": st.booleans(),
    "attempts": st.integers(),
    "shard": st.integers(),
    "source": st.text(max_size=4),
    "healthy": st.booleans(),
    "stats": st.dictionaries(st.text(max_size=4), _JSON, max_size=2),
    "uptime_seconds": st.floats(),
    "pid": st.integers(),
}

_MESSAGE = st.fixed_dictionaries(
    {"op": _field(st.sampled_from(["hello", "compile", "ping", "stats",
                                   "health", "shutdown", "bogus"])),
     "ok": _field(st.booleans())},
    optional={field: _field(valid) for field, valid in _FIELDS.items()})


def _decodes_or_rejects(decode, value) -> None:
    """``decode(value)`` returns or raises a typed error."""
    try:
        decode(value)
    except (WireError, ReproError):
        pass


class TestFuzzDecoders:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(body=st.binary(max_size=64)
           | _JSON.map(lambda v: json.dumps(v).encode())
           | _MESSAGE.map(lambda v: json.dumps(v).encode()))
    def test_frame_body(self, body):
        for decode in (request_from_wire, reply_from_wire):
            _decodes_or_rejects(lambda b: decode(decode_frame_body(b)),
                                body)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(message=_MESSAGE)
    def test_request(self, message):
        _decodes_or_rejects(request_from_wire, message)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(message=_MESSAGE)
    def test_reply(self, message):
        _decodes_or_rejects(reply_from_wire, message)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(cell=_field(_CELL))
    def test_cell(self, cell):
        _decodes_or_rejects(cell_from_wire, cell)


@pytest.fixture
def live_endpoint(tmp_path):
    fleet = CompileFleet(shards=1, jobs=1,
                         cache_dir=str(tmp_path / "cache"))
    server = FrontendServer(fleet, "tcp://127.0.0.1:0")
    endpoint = server.start()
    yield endpoint
    server.stop()
    fleet.close(drain=False)


def _dial(endpoint):
    sock = socket.create_connection((endpoint.host, endpoint.port),
                                    timeout=10.0)
    sock.settimeout(10.0)
    return sock


class TestHandshake:
    def test_version_mismatch_is_rejected_and_closed(self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, {"op": "hello",
                              "protocol_version": PROTOCOL_VERSION + 1})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["code"] == ErrorCode.UNSUPPORTED_VERSION
            assert recv_frame(sock) is None  # server hung up

    def test_first_frame_must_be_hello(self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, {"op": "ping"})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["code"] == ErrorCode.BAD_REQUEST

    def test_second_hello_is_rejected_without_closing(self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, request_to_wire(Hello()))
            hello = reply_from_wire(recv_frame(sock))
            assert isinstance(hello, HelloReply)
            assert hello.protocol_version == PROTOCOL_VERSION
            send_frame(sock, request_to_wire(Hello()))
            again = recv_frame(sock)
            assert again["ok"] is False
            assert again["code"] == ErrorCode.BAD_REQUEST
            # The connection survives in-frame mistakes.
            send_frame(sock, request_to_wire(PingRequest()))
            assert recv_frame(sock)["ok"] is True

    def test_unknown_backend_is_bad_request(self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, request_to_wire(Hello()))
            assert recv_frame(sock)["ok"] is True
            raw = request_to_wire(CompileRequest(cell=GridCell(
                "compress", "treegion", "4U", "global_weight")))
            raw["cell"]["backend"] = "bogus"
            send_frame(sock, raw)
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["code"] == ErrorCode.BAD_REQUEST

    def test_in_frame_garbage_answers_then_oversize_closes(
            self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, request_to_wire(Hello()))
            assert recv_frame(sock)["ok"] is True
            sock.sendall(struct.pack(">I", 8)
                         + b"notjsonn")  # valid length, garbage body
            assert recv_frame(sock)["code"] == ErrorCode.BAD_REQUEST
            sock.sendall(struct.pack(">I", 1 << 30))
            reply = recv_frame(sock)  # best-effort error, then close
            if reply is not None:
                assert reply["ok"] is False
                assert recv_frame(sock) is None


class TestHealthOp:
    def test_health_over_the_wire(self, live_endpoint):
        with _dial(live_endpoint) as sock:
            send_frame(sock, request_to_wire(Hello()))
            assert recv_frame(sock)["ok"] is True
            send_frame(sock, request_to_wire(HealthRequest()))
            reply = reply_from_wire(recv_frame(sock))
            assert isinstance(reply, HealthReply)
            assert reply.healthy is True
            assert reply.uptime_seconds >= 0
            assert reply.pid > 0
            assert reply.shards["0"]["up"] is True


class TestHistogramPercentile:
    def test_percentile_bounds_and_edges(self):
        histogram = Histogram()
        assert histogram.percentile(50) is None
        for value in (1, 2, 3, 100, 1000):
            histogram.observe(value)
        assert histogram.percentile(100) == 1000
        assert histogram.percentile(1) == histogram.min
        p50 = histogram.percentile(50)
        assert histogram.min <= p50 <= histogram.max
        # Power-of-two buckets: the estimate is an upper bound on the
        # true percentile (3 lands in bucket 2, upper bound 3).
        assert p50 >= 3
