"""Steadiness check: run workloads over several seeds and report spreads.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 1 --out set2.json
    python3 perfbench/steady.py --compare set1.json set2.json

Each run is ``perfbench/run.py --trace 0`` in its own process with its
own seed.  Runs go round-robin over the workloads (seed 1 of every
workload, then seed 2, ...), so a change in the host's speed during a
set reaches every workload alike instead of one workload's whole block
of runs.  For every workload and metric the tool prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) against the metric's bound from
``BENCHMARK.json``, and the max/min ratio.  A spread over a third of the
bound is flagged ``wide``, over the whole bound ``FAIL``; ``setup_s``
is exempt from the spread rule.  ``--compare`` checks that the second
set's median is no worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    *_, record, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    result["record"] = json.loads(record)
    result["elapsed_s"] = elapsed
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "max_min": max(values) / min(values) if min(values) else 0.0,
    }


def report(results: dict, spec: dict) -> bool:
    """Print one table per workload; True when every run was correct and
    every spread is within its bound."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        ok &= not bad
        print(f"\n{workload}: {len(runs)} runs, "
              f"{len(bad)} incorrect or failing")
        print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'max/min':>9}")
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if stats["spread"] > bound:
                    flag, ok = "FAIL", False
                elif stats["spread"] > bound / 3:
                    flag = "wide"
            print(f"  {name:<26}{stats['median']:>12.5g}"
                  f"{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
                  f"{stats['spread']:>9.3f}"
                  f"{'' if bound is None else bound:>7}"
                  f"{stats['max_min']:>9.3f}  {flag}")
    return ok


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Second set's medians no worse than the first's beyond the bound."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            flag = "FAIL" if worse > bound else ""
            ok &= not flag
            print(f"{workload:<16}{name:<26}{a:>12.5g}{b:>12.5g}"
                  f"{worse:>+9.3f}{bound:>7}  {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar="SET",
                        help="compare two saved sets instead of running")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as handle:
                sets.append(json.load(handle))
        return 0 if compare(sets[0], sets[1], spec) else 1

    names = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {workload: [] for workload in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in names:
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"in {result['elapsed_s']:.1f} s",
                  file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0 if report(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
