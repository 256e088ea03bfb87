"""Persistent artifact store, worker pools, and the compile fleet.

The layers, bottom up (see DESIGN.md §10–§12):

* :mod:`repro.serve.store` — a content-addressed, disk-backed cache of
  grid-cell schedule results, keyed by SHA-256 of (canonical IR text,
  scheme spec, machine fingerprint, heuristic, schema version), kept
  as checksummed records appended to one segment file, compacted to a
  size bound, and tolerant of corruption;
* :mod:`repro.serve.service` (+ :mod:`repro.serve.jobs`) — one shard's
  :class:`~repro.serve.service.WorkerPool`: a bounded intake queue
  (backpressure), a dispatcher that batches jobs by (program, scheme)
  for the engine's own multiprocessing worker, and an executor that is
  recycled when a worker crashes or times out.  Each dispatch is tried
  once; the pool decides nothing else;
* :mod:`repro.serve.router` + :mod:`repro.serve.fleet` — content keys
  and the :class:`CompileFleet`, the one owner of serving policy: N
  pool+store shards, each exclusively owning a content-key slice, with
  an in-memory hot tier, in-flight dedup, store reads and
  warm-replica reads, one retry budget, and supervised shard restart.
  Results are bit-identical to :func:`repro.api.evaluate_grid`;
* :mod:`repro.serve.wire` — framed, versioned JSON protocol with typed
  messages and structured error codes over ``unix://`` / ``tcp://``
  endpoints;
* :mod:`repro.serve.frontend` / :mod:`repro.serve.client` — the
  asyncio server multiplexing thousands of connections onto one fleet,
  and the synchronous :class:`Client` behind
  :func:`repro.api.connect`;
* :mod:`repro.serve.soak` — the many-client load harness behind
  ``repro soak`` and CI's ``serve-smoke`` load gate;
* :mod:`repro.serve.top` — the ``repro top`` ANSI dashboard over the
  ``STATS``/``HEALTH`` wire ops (see DESIGN.md §13).  Lifecycle events
  are instants of the one span model (:mod:`repro.obs.tracer`).
"""

from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServeError,
    ServiceClosedError,
    ServiceSaturatedError,
    ShardDownError,
)
from repro.serve.store import (
    ArtifactStore,
    cell_key,
    machine_fingerprint,
    result_from_payload,
    result_to_payload,
    store_schema,
)
from repro.serve.router import KeyRouter, request_key, resolve_program_text
from repro.serve.fleet import CompileFleet
from repro.serve.wire import Endpoint, ErrorCode, parse_endpoint
from repro.serve.client import Client, ClientError, connect
from repro.serve.frontend import FleetFrontend, FrontendServer
from repro.serve.soak import SoakReport, run_soak
from repro.serve.top import render_top, run_top

__all__ = [
    "ArtifactStore",
    "Client",
    "ClientError",
    "CompileFleet",
    "Endpoint",
    "ErrorCode",
    "FleetFrontend",
    "FrontendServer",
    "JobFailedError",
    "JobHandle",
    "JobRequest",
    "KeyRouter",
    "ServeError",
    "ServiceClosedError",
    "ServiceSaturatedError",
    "ShardDownError",
    "SoakReport",
    "cell_key",
    "connect",
    "machine_fingerprint",
    "parse_endpoint",
    "render_top",
    "request_key",
    "resolve_program_text",
    "result_from_payload",
    "result_to_payload",
    "run_soak",
    "run_top",
    "store_schema",
]
