"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload grid-cold --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` alternates untraced and traced passes (or runs
an untraced and a traced serve session over the same requests) and
reports the per-layer profile of the traced ones.  Every run checks the
program's outputs.  The last line of standard output is the result
object; the line before it records the host and the sample counts.
The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("grid-cold", "grid-store-warm", "serve-mixed")

#: Per-layer time metrics -> the layer whose self time they report.
LAYER_TIMES = {
    "engine.self_s": "engine",
    "clone.self_s": "clone",
    "liveness.self_s": "liveness",
    "formation.self_s": "formation",
    "fingerprint.self_s": "fingerprint",
    "memo.self_s": "memo",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "prep.self_s": "prep",
    "renaming.self_s": "renaming",
    "ddg.self_s": "ddg",
    "priorities.self_s": "priorities",
    "list_schedule.self_s": "list_schedule",
    "client.self_s": "client",
    "wire.codec_s": "wire",
    "frontend.self_s": "frontend",
    "fleet.submit_s": "fleet",
    "service.wait_s": "service.wait",
}

#: Per-layer counters reported as they were counted.
LAYER_COUNTS = (
    "formation.calls", "formation.regions", "fingerprint.calls",
    "store.gets", "store.puts", "prep.calls", "prep.ops", "renaming.calls",
    "renaming.copies", "ddg.calls", "ddg.edges", "list_schedule.calls",
    "list_schedule.cycles",
)

#: The traced run's unattributed time must stay under this share of the
#: wall time on the grid workloads.
MAX_UNATTRIBUTED = 0.05


def host_record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> None:
    """Run the benchmark, and the worker processes it forks, on one CPU.

    The two vCPUs of a shared host slow down independently, and the
    reference loops (``speed.py``) can only speak for the CPU they ran
    on.  Every workload keeps one process busy at a time (the serve loop
    is closed), so one CPU takes nothing from the program.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(measured) -> dict:
    """The per-layer metrics of a traced run, per traced pass."""
    passes = len(measured.traced_s)
    wall = sum(end - start for start, end in measured.windows)
    counts = measured.counts
    metrics = {name: measured.owned.get(layer, 0.0) / passes
               for name, layer in LAYER_TIMES.items()}
    metrics.update({name: counts.get(name, 0) / passes
                    for name in LAYER_COUNTS})
    metrics.update({
        "memo.hit_ratio": ratio(counts["memo.hits"], counts["memo.probes"]),
        "memo.store_hit_ratio": ratio(counts["memo.store_hits"],
                                      counts["memo.probes"]),
        "memo.bytes": measured.gauges.get("memo.bytes", 0),
        "fleet.hot_hit_ratio": ratio(counts["fleet.hot_hits"],
                                     counts["fleet.submits"]),
        "unattributed_s": (wall - measured.covered) / passes,
        "trace_overhead": (sum(measured.traced_s) / passes)
        / (sum(measured.untraced_s) / len(measured.untraced_s)),
    })
    return metrics


def self_test(workload: str, measured, metrics: dict, names) -> list:
    """Problems with the traced profile (empty when it is sound)."""
    problems = []
    unknown = set(measured.owned) - set(LAYER_TIMES.values())
    if unknown:
        problems.append(f"layers without a metric: {sorted(unknown)}")
    wall = sum(end - start for start, end in measured.windows)
    wall /= len(measured.traced_s)
    total = sum(metrics[name] for name in LAYER_TIMES)
    total += metrics["unattributed_s"]
    if abs(total - wall) > 0.01 * wall:
        problems.append(f"self times + unattributed = {total:.6f}s, "
                        f"traced wall = {wall:.6f}s")
    for name in names:
        value = metrics.get(name)
        if value is None or value < 0:
            problems.append(f"{name} = {value}")
    if workload.startswith("grid") and \
            metrics["unattributed_s"] >= MAX_UNATTRIBUTED * wall:
        problems.append(f"unattributed_s {metrics['unattributed_s']:.4f}s "
                        f"is not under {MAX_UNATTRIBUTED:.0%} of {wall:.4f}s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    try:
        import workloads
        from layers import Layers, Recorder
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        layers = Layers(Recorder(tmp)) if args.trace else None
        if args.workload == "serve-mixed":
            measured = workloads.run_serve(args.seed, args.seconds, tmp,
                                           layers)
        else:
            measured = workloads.run_grid(
                args.seed, args.seconds, tmp,
                store_warm=args.workload == "grid-store-warm",
                layers=layers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass   # another run is using it

    checker = measured.checker
    problems = list(checker.problems)
    if args.trace:
        metrics = layer_metrics(measured)
        trace_problems = self_test(args.workload, measured, metrics, units)
        problems += [f"self-test: {problem}" for problem in trace_problems]
    else:
        metrics = measured.metrics
        trace_problems = []
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_record(),
        "samples": measured.samples,
        "fail_rate": ratio(checker.failed, checker.attempted),
        **measured.record,
        **({"untraced_s": measured.untraced_s,
            "traced_s": measured.traced_s} if args.trace else {}),
    }))
    print(json.dumps({
        "correct": checker.failed == 0 and not trace_problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
