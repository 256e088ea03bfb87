"""Artifact-store / one-shard fleet regression benchmark.

Runs the paper's 192-cell evaluation grid three ways —

* **direct**: :func:`repro.evaluation.engine.evaluate_grid` (the
  reference path);
* **service cold**: through a one-shard fleet
  (:func:`repro.api.open_fleet`, two worker processes) over an empty
  artifact store (every cell dispatched to the worker pool, then
  stored);
* **service warm**: a fresh fleet over the now-populated store (every
  cell answered from disk, the pool never consulted);

— asserts all three result lists are **byte-identical** (the serving
determinism contract) and that the warm pass is at least 5x faster than
the cold one, then writes ``BENCH_serve.json`` at the repo root so
future PRs can diff the caching trajectory.

CI smoke runs shrink the grid via ``REPRO_SERVE_BENCH_BENCHMARKS`` (a
comma-separated benchmark subset, e.g. ``compress``); the snapshot
records the grid size so shrunken runs are not mistaken for full ones.
Regenerate the committed snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_serve_snapshot.py -s
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.api import open_fleet
from repro.evaluation.engine import default_grid, evaluate_grid
from repro.obs import MetricsRegistry

from benchmarks.conftest import emit_table

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_serve.json"

#: The acceptance bar: a warm store answers from disk without cloning,
#: forming, or scheduling anything, so it must beat the cold pass by a
#: wide margin.  5x is deliberately loose — the measured gap is orders
#: of magnitude.
MIN_WARM_SPEEDUP = 5.0


def _grid():
    subset = os.environ.get("REPRO_SERVE_BENCH_BENCHMARKS")
    if subset:
        return default_grid(benchmarks=[
            name.strip() for name in subset.split(",") if name.strip()
        ])
    return default_grid()


def _payload_bytes(results):
    """A canonical byte serialization: 'byte-identical' means equal."""
    from repro.serve import result_to_payload

    return json.dumps(
        [result_to_payload("-", result) for result in results],
        sort_keys=True,
    ).encode("utf-8")


def test_serve_snapshot(tmp_path):
    grid = _grid()
    store_dir = str(tmp_path / "store")

    t0 = time.perf_counter()
    direct = evaluate_grid(grid, jobs=1)
    t_direct = time.perf_counter() - t0

    cold_metrics = MetricsRegistry()
    t0 = time.perf_counter()
    with open_fleet(shards=1, jobs=2, cache_dir=store_dir,
                    metrics=cold_metrics) as fleet:
        cold = fleet.evaluate(grid)
    t_cold = time.perf_counter() - t0

    warm_metrics = MetricsRegistry()
    t0 = time.perf_counter()
    with open_fleet(shards=1, jobs=2, cache_dir=store_dir,
                    metrics=warm_metrics) as fleet:
        warm = fleet.evaluate(grid)
    t_warm = time.perf_counter() - t0
    warm_store = fleet.stats()["shards"][0]["service"]["store"]

    # The determinism contract: all three routes, one answer.
    assert _payload_bytes(cold) == _payload_bytes(direct)
    assert _payload_bytes(warm) == _payload_bytes(direct)

    # The warm pass never touched the pool.
    assert warm_store["hits"] == len(grid)
    warm_counters = warm_metrics.snapshot()["counters"]
    assert warm_counters["serve.jobs.cache_hits"] == len(grid)
    assert "serve.dispatches" not in warm_counters

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm pass ({t_warm:.3f}s) is only {speedup:.1f}x faster than "
        f"cold ({t_cold:.3f}s); bound {MIN_WARM_SPEEDUP}x"
    )

    snapshot = {
        "grid_cells": len(grid),
        "direct_seconds": round(t_direct, 3),
        "service_cold_seconds": round(t_cold, 3),
        "service_warm_seconds": round(t_warm, 3),
        "warm_speedup": round(speedup, 1),
        "identical_to_direct": True,
        "store": {
            "entries": warm_store["entries"],
            "bytes": warm_store["bytes"],
            "warm_hits": warm_store["hits"],
        },
        "cold_counters": {
            name: value
            for name, value in sorted(
                cold_metrics.snapshot()["counters"].items()
            )
            if name.startswith("serve.")
        },
    }
    BENCH_FILE.write_text(json.dumps(snapshot, indent=2) + "\n")

    emit_table("serve_snapshot", [
        f"{'grid cells':32s} {len(grid):>12d}",
        f"{'direct':32s} {t_direct:>11.2f}s",
        f"{'service cold':32s} {t_cold:>11.2f}s",
        f"{'service warm':32s} {t_warm:>11.2f}s",
        f"{'warm speedup':32s} {speedup:>11.1f}x",
        f"{'store entries':32s} {warm_store['entries']:>12d}",
        f"{'store bytes':32s} {warm_store['bytes']:>12d}",
    ])
