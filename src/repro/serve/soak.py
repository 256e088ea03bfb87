"""Many-client soak harness for the compile fleet.

:func:`run_soak` opens ``clients`` concurrent connections to a running
front-end and pushes ``requests`` compile requests through them (cells
assigned round-robin from the given set, so every cell is hit and warm
traffic repeats keys).  Latency is recorded twice: as raw
``perf_counter`` samples for *exact* percentiles — the numbers the
load benchmark gates on — and into :mod:`repro.obs` histograms in
microseconds, so soak latency merges and serializes like every other
metric in the repo.

The report separates cold traffic (first compute of a key) from warm
traffic (served from the hot tier or a store), because the acceptance
bound — warm-hit p99 within 2x of the local-store warm figure — is a
statement about warm hits only.  It also carries everything the
benchmark needs to assert fleet semantics: per-request result payloads
(byte-identity against the direct pipeline), error lists (the
zero-dropped-requests check), and per-source counts.

Client threads, not asyncio, on the driver side: each client is the
synchronous :class:`~repro.serve.client.Client`, which is the actual
public API — the soak measures what users get, stacked 1000 deep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.evaluation.engine import GridCell
from repro.obs.tracer import NULL_TRACER
from repro.obs.metrics import NULL_METRICS, Histogram
from repro.serve.client import Client


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile (nearest-rank) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, int(-(-len(ordered) * q // 100)))  # ceil(n*q/100)
    return ordered[rank - 1]


def _summarize(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "mean": sum(samples) / len(samples),
        "max": max(samples),
    }


@dataclass
class SoakReport:
    """Everything one soak run observed."""

    clients: int
    requests: int
    completed: int = 0
    wall_seconds: float = 0.0
    #: request index -> result payload dict (for byte-identity checks).
    payloads: Dict[int, Dict] = field(default_factory=dict)
    #: request index -> reply source ("computed" | "store" | "hot").
    sources: Dict[int, str] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    warm_latencies: List[float] = field(default_factory=list)
    cold_latencies: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: The same latencies as obs histograms (µs) — the *second* way the
    #: soak computes percentiles.  Exact list percentiles gate the load
    #: benchmark; these are what a merged/serialized metrics view would
    #: report, and ``tests/test_soak_agreement.py`` bounds how far the
    #: two may diverge (the power-of-two-bucket upper-bound contract).
    histograms: Dict[str, Histogram] = field(
        default_factory=lambda: {"all": Histogram(), "warm": Histogram(),
                                 "cold": Histogram()})

    @property
    def dropped(self) -> int:
        return self.requests - self.completed

    @property
    def qps(self) -> float:
        return self.completed / self.wall_seconds \
            if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The JSON-ready summary (payloads stay out — they are for
        in-process identity checks, not the report file)."""
        source_counts: Dict[str, int] = {}
        for source in self.sources.values():
            source_counts[source] = source_counts.get(source, 0) + 1
        return {
            "clients": self.clients,
            "requests": self.requests,
            "completed": self.completed,
            "dropped": self.dropped,
            "errors": len(self.errors),
            "wall_seconds": round(self.wall_seconds, 6),
            "qps": round(self.qps, 2),
            "latency": _summarize(self.latencies),
            "warm_latency": _summarize(self.warm_latencies),
            "cold_latency": _summarize(self.cold_latencies),
            "latency_hist_us": {
                name: {
                    "count": hist.count,
                    "p50": hist.percentile(50),
                    "p95": hist.percentile(95),
                    "p99": hist.percentile(99),
                }
                for name, hist in sorted(self.histograms.items())
            },
            "sources": {k: source_counts[k] for k in sorted(source_counts)},
        }


def run_soak(
    endpoint,
    cells: Sequence[GridCell],
    *,
    program_text: Optional[str] = None,
    clients: int = 32,
    requests: Optional[int] = None,
    request_timeout: float = 300.0,
    client_timeout: float = 300.0,
    ramp_seconds: float = 0.0,
    retries: int = 4,
    metrics=NULL_METRICS,
    on_request: Optional[object] = None,
    tracer=NULL_TRACER,
) -> SoakReport:
    """Drive a many-client soak against a running front-end.

    ``requests`` defaults to one per cell; request ``i`` compiles
    ``cells[i % len(cells)]``, so counts beyond ``len(cells)`` measure
    warm traffic.  Indices are strided across clients (client ``w``
    issues ``w``, ``w + clients``, ...), NOT pulled from a shared
    queue: with a shared queue the earliest-connected clients drain
    the whole request budget before the rest have even dialed in, and
    the soak degenerates into measuring the connection storm.
    ``ramp_seconds`` staggers client start-up across the whole ramp
    window, which with strided allotment also spreads request
    arrivals.  ``on_request`` — called with each request index as it
    is *issued* — is the fault-injection hook the kill-a-shard tests
    use.  Per-request failures are recorded, never raised: the report's
    ``errors``/``dropped`` fields are the assertion surface.
    A ``tracer`` that exports spans (:attr:`~repro.obs.tracer.Tracer.span_path`) enables
    distributed tracing: all soak clients share it, stamped ``client``;
    each request gets a root span, and the trace context rides the wire
    to the fleet.
    """
    total = len(cells) if requests is None else requests
    if total <= 0 or not cells:
        return SoakReport(clients=clients, requests=0)
    clients = max(1, min(clients, total))
    report = SoakReport(clients=clients, requests=total)
    lock = threading.Lock()
    start_gate = threading.Event()
    tracer = tracer.for_service("client") \
        if tracer.span_path is not None else NULL_TRACER

    def worker(worker_index: int) -> None:
        start_gate.wait()
        if ramp_seconds > 0 and clients > 1:
            time.sleep(ramp_seconds * worker_index / (clients - 1))
        client = Client(
            endpoint, timeout=client_timeout, retries=retries,
            client_name=f"soak-{worker_index:04d}", tracer=tracer,
        )
        try:
            with client:
                for index in range(worker_index, total, clients):
                    if on_request is not None:
                        on_request(index)
                    cell = cells[index % len(cells)]
                    began = time.perf_counter()
                    try:
                        reply = client.submit(
                            cell, program_text=program_text,
                            timeout=request_timeout,
                        )
                    except Exception as error:
                        with lock:
                            report.errors.append(
                                f"request {index}: {error}")
                        metrics.inc("soak.errors")
                        continue
                    elapsed = time.perf_counter() - began
                    warm = reply.cached
                    micros = int(elapsed * 1e6)
                    with lock:
                        report.completed += 1
                        report.payloads[index] = reply.result
                        report.sources[index] = reply.source
                        report.latencies.append(elapsed)
                        (report.warm_latencies if warm
                         else report.cold_latencies).append(elapsed)
                        report.histograms["all"].observe(micros)
                        report.histograms[
                            "warm" if warm else "cold"].observe(micros)
                    metrics.inc("soak.completed")
                    metrics.observe("soak.latency_us",
                                    int(elapsed * 1e6))
                    metrics.observe(
                        "soak.warm_latency_us" if warm
                        else "soak.cold_latency_us",
                        int(elapsed * 1e6))
        except Exception as error:
            # A client that cannot even connect abandons its strided
            # allotment; those requests count as dropped.
            with lock:
                report.errors.append(
                    f"client {worker_index}: {error}")
            metrics.inc("soak.client_failures")

    threads = [
        threading.Thread(target=worker, args=(i,),
                         name=f"soak-client-{i:04d}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    start_gate.set()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - began
    metrics.gauge("soak.qps", report.qps)
    return report
