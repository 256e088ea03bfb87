"""The benchmark's three workloads.

Each workload makes its inputs from the seed, times its passes or its
request loop, and checks the program's outputs outside the timer.  The
program only ever receives the generated programs (``programs=`` or
``program_text=``); no process-level cache carries over between passes,
because every pass gets freshly generated programs and a fresh region
memo after a ``gc.collect()``.

Hit and miss follow one rule on every route: a *hit* is answered from
the process's memory, a *miss* has to go further.

* grid routes: the unit is one region-memo probe, classified by what the
  memo did.  A hit is served by the memo's in-memory tier (an identical
  region, machine and heuristic scheduled earlier in the pass); a miss
  schedules the region (``grid-cold``) or reads it from the store
  (``grid-store-warm``);
* ``serve-mixed``: the unit is one client request.  A first-time cell is
  a miss (a worker compiles it and the store is written); a repeated
  cell is a hit from the fleet's hot tier.

A seed varies program structure at a fixed size: each preset takes the
first seed-derived variant whose op count is within ``SIZE_TOLERANCE``
of the preset's own program, so throughput does not move between seeds
merely because one seed drew more code to schedule.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import random
import resource
import statistics
import tempfile
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from layers import Recorder, covered, self_times
from speed import Speedometer
# The program's functions are called through their modules, so the
# traced run's wrappers see these calls too.
from repro.evaluation import engine
from repro.evaluation.engine import GridCell, default_grid
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.lint.collect import lint_scope
from repro.lint.diagnostics import LintReport
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import HEURISTICS
from repro.serve.jobs import ServeError
from repro.util.stats import geometric_mean
from repro.workloads.specint import SPECINT95
from repro.workloads.synthetic import SynthParams, generate_program

#: A run measures at least ``--seconds`` and repeats identical work: at
#: least ``MIN_PASSES`` grid passes, or ``SERVE_SESSIONS`` serve sessions
#: replaying one request sequence.  Every time is scaled to reference
#: speed (``speed.py``), lap by lap: per group of eight grid cells, per
#: ten serve requests, and around each set-up.  Throughput is that of the
#: median repetition and latency percentiles pool every repetition.  The
#: first serve session also waits for enough hits and misses that each
#: median has ten samples beyond it.
MIN_PASSES = 2
SERVE_SESSIONS = 2
MIN_HITS, MIN_MISSES = 800, 96
MAX_MEASURE_S = 100.0

SIZE_TOLERANCE = 0.05
MAX_SIZE_DRAWS = 500

#: The store-warm set-up (one store fill) is as long as the measurement
#: itself, so it runs once per run; the other workloads set up before
#: every pass or session, and ``setup_s`` is the median.

#: Certified cells per run (re-run under the lint certifier).
LINT_SAMPLE = {"grid": 2, "serve": 4}

SERVE_BLOCKS = 60
MISS_EVERY = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome(result) -> Tuple:
    """What must not differ between routes for one cell."""
    return (result.time, result.code_expansion,
            tuple(result.schedule_lengths))


def quality(results) -> Tuple[float, float]:
    """(speedup geomean, code expansion geomean) of one set of results.

    Speedup is T(bb) / T(treegion) for the same program, machine and
    heuristic; code expansion is over ``treegion-td:2.0`` cells.
    """
    by_cell = {result.cell: result for result in results}
    speedups, expansions = [], []
    for cell, result in by_cell.items():
        if cell.scheme == "treegion":
            base = by_cell[dataclasses.replace(cell, scheme="bb")]
            speedups.append(base.time / result.time)
        elif cell.scheme == "treegion-td:2.0":
            expansions.append(result.code_expansion)
    return geometric_mean(speedups), geometric_mean(expansions)


class Checker:
    """Counts attempted and failed operations for ``fail_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def same(self, reference: Dict[GridCell, Tuple], results, route: str
             ) -> None:
        for result in results:
            self.attempted += 1
            if outcome(result) != reference[result.cell]:
                self.fail(f"{route}: {result.cell} differs")

    def certify(self, cells: Sequence[GridCell], programs,
                reference: Dict[GridCell, Tuple]) -> None:
        """Re-run ``cells`` one by one under the lint certifier."""
        for cell in cells:
            self.attempted += 1
            report = LintReport()
            with lint_scope(report):
                result = engine.evaluate_cell(
                    cell, program=programs[cell.benchmark])
            if report.errors:
                self.fail(f"certify: {cell}: {report.rule_ids()}")
            elif outcome(result) != reference[cell]:
                self.fail(f"certify: {cell} differs from the timed route")


class Measured:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.checker = Checker()
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.record: Dict[str, object] = {}
        #: Traced runs: the measured windows, untraced and traced wall
        #: times, and what the layers recorded inside the windows.
        self.windows: List[Tuple[float, float]] = []
        self.untraced_s: List[float] = []
        self.traced_s: List[float] = []
        self.owned: Counter = Counter()
        self.covered = 0.0
        self.counts: Counter = Counter()
        self.gauges: Dict[str, float] = {}

    def add_trace(self, recorder: Recorder) -> None:
        """Fold in what ``recorder`` holds for the latest window."""
        window = [self.windows[-1]]
        self.owned.update(self_times(recorder.spans, window))
        self.covered += covered(recorder.spans, window)
        self.counts.update(recorder.counts)
        for name, value in recorder.gauges.items():
            self.gauges[name] = max(self.gauges.get(name, value), value)
        recorder.reset()

    def latencies(self, hits: Sequence[float], misses: Sequence[float]
                  ) -> None:
        """Hit and miss percentiles of latencies pooled over a run.

        The medians are metrics.  The tails go to the record line only:
        on a two-vCPU virtual machine their run-to-run spread (vCPU
        wake-up jitter on the hot path, store write-back on misses) is
        wider than any bound the benchmark may set.
        """
        tails = {}
        for name, samples, q in (("hit_p50_ms", hits, 0.50),
                                 ("miss_p50_ms", misses, 0.50),
                                 ("hit_p90_ms", hits, 0.90),
                                 ("hit_p99_ms", hits, 0.99),
                                 ("miss_p90_ms", misses, 0.90)):
            value = percentile(samples, q)
            if value is not None:
                value *= 1000.0
            if q == 0.50:
                if value is None:
                    raise RuntimeError(f"{name}: too few samples")
                self.metrics[name] = value
            else:
                tails[name] = value
            self.samples[name] = len(samples)
        self.record["tails"] = tails


# ----------------------------------------------------------------------
# Grid workloads


def total_ops(program) -> int:
    return sum(function.cfg.total_ops for function in program.functions())


def sized(params: SynthParams, seed: int) -> SynthParams:
    """``params`` re-seeded from ``seed`` at the preset's program size."""
    target = total_ops(generate_program(params))
    rng = random.Random(f"{params.name}-{seed}")
    for _ in range(MAX_SIZE_DRAWS):
        candidate = dataclasses.replace(params, seed=rng.randrange(1 << 30))
        if abs(total_ops(generate_program(candidate)) - target) \
                <= SIZE_TOLERANCE * target:
            return candidate
    raise RuntimeError(f"no variant of {params.name} near {target} ops")


def generate(presets: Sequence[SynthParams]):
    return {params.name: generate_program(params) for params in presets}


def grid_presets(seed: int) -> List[SynthParams]:
    """The eight SPECint95 stand-ins, re-seeded."""
    return [sized(params, seed) for params in SPECINT95.values()]


class TimedMemo(RegionMemo):
    """A region memo that times each probe: a probe its in-memory tier
    answers is a hit; one that computes or reads the store is a miss.
    Probe times wait in ``pending`` until ``flush`` scales them."""

    def __init__(self) -> None:
        super().__init__()
        self.hit_s: List[float] = []
        self.miss_s: List[float] = []
        self.pending: List[Tuple[float, bool]] = []

    def schedule(self, region, *args, **kwargs):
        hits, store_hits = self.hits, self.store_hits
        start = perf_counter()
        result = super().schedule(region, *args, **kwargs)
        elapsed = perf_counter() - start
        in_memory = self.hits > hits and self.store_hits == store_hits
        self.pending.append((elapsed, in_memory))
        return result

    def flush(self, scale: float) -> None:
        for elapsed, in_memory in self.pending:
            (self.hit_s if in_memory else self.miss_s).append(elapsed * scale)
        self.pending.clear()


class Pacer:
    """A tracer for ``evaluate_grid`` that ends a speed lap as each
    group of cells (one program under one scheme) ends, and scales the
    probes timed in the lap.  The other spans are ignored."""

    def __init__(self, speed: Speedometer, memo: TimedMemo) -> None:
        self.speed = speed
        self.memo = memo

    def span(self, name: str, **args):
        return self._group() if name == "group" else contextlib.nullcontext()

    @contextlib.contextmanager
    def _group(self):
        try:
            yield
        finally:
            self.memo.flush(self.speed.lap())

    def event(self, name: str, **args) -> None:
        pass


def run_grid(seed: int, seconds: float, tmp: str, store_warm: bool,
             layers=None) -> Measured:
    """``grid-cold`` or ``grid-store-warm``; traced when ``layers`` is
    given (then untraced and traced passes alternate).

    A pass evaluates the grid twice over one memo: the first evaluation
    is the timed pass; the second repeats every cell, so each of its
    probes is an in-memory hit.
    """
    out = Measured()
    cells = default_grid()
    presets = grid_presets(seed)
    setups: List[float] = []
    routes: List[Tuple[str, list]] = []
    store_dir = None

    def evaluate(programs, memo, speed=None):
        paced = {} if speed is None else {"tracer": Pacer(speed, memo)}
        results = engine.evaluate_grid(cells, programs=programs, jobs=1,
                                       region_memo=memo,
                                       region_store=store_dir, **paced)
        if speed is not None:
            memo.flush(speed.lap())
        return results

    if store_warm:
        store_dir = tempfile.mkdtemp(dir=tmp)
        gc.collect()
        speed = Speedometer()
        programs = generate(presets)
        memo = TimedMemo()
        routes.append(("store-fill", evaluate(programs, memo, speed)))
        setups.append(speed.scaled_s)

    walls: List[float] = []    # scaled, untraced passes
    raw: List[float] = []
    hits: List[float] = []     # probe latencies of every untraced pass
    misses: List[float] = []

    def one_pass(traced: bool) -> float:
        gc.collect()
        speed = Speedometer()
        programs = generate(presets)
        speed.lap()
        if not store_warm:
            setups.append(speed.scaled_s)
        if layers is not None:
            memo = RegionMemo()
            if traced:
                layers.recorder.reset()
                layers.install()
            try:
                start = perf_counter()
                results = evaluate(programs, memo)
                repeat = evaluate(programs, memo)
                end = perf_counter()
            finally:
                if traced:
                    layers.uninstall()
            if traced:
                out.windows.append((start, end))
                out.add_trace(layers.recorder)
            routes.extend([("traced" if traced else "pass", results),
                           ("repeat", repeat)])
            return end - start
        memo = TimedMemo()
        first, again = Speedometer(), Speedometer()
        routes.append(("pass", evaluate(programs, memo, first)))
        routes.append(("repeat", evaluate(programs, memo, again)))
        hits.extend(memo.hit_s)
        misses.extend(memo.miss_s)
        raw.append(first.raw_s)
        return first.scaled_s

    began = perf_counter()
    while True:
        if layers is None:
            walls.append(one_pass(False))
            enough = len(walls) >= MIN_PASSES
        else:
            out.untraced_s.append(one_pass(False))
            out.traced_s.append(one_pass(True))
            enough = True
        elapsed = perf_counter() - began
        if (enough and elapsed >= seconds) or elapsed >= MAX_MEASURE_S:
            break
    rss = peak_rss_mb()

    reference = {result.cell: outcome(result) for result in routes[0][1]}
    for route, results in routes:
        out.checker.same(reference, results, route)
    sample = random.Random(f"lint-{seed}").sample(cells, LINT_SAMPLE["grid"])
    out.checker.certify(sample, generate(presets), reference)

    speedup, expansion = quality(routes[0][1])
    out.record.update(passes=len(walls) or len(out.traced_s),
                      pass_s=walls, raw_pass_s=raw, setup_samples=setups)
    if layers is None:
        out.metrics.update(
            setup_s=statistics.median(setups),
            cells_per_s=len(cells) / statistics.median(walls),
            peak_rss_mb=rss,
            speedup_geomean=speedup,
            code_expansion_geomean=expansion,
        )
        out.samples["setup_s"] = len(setups)
        out.samples["cells_per_s"] = len(walls)
        out.latencies(hits, misses)
    return out


# ----------------------------------------------------------------------
# serve-mixed


def serve_presets(seed: int) -> List[SynthParams]:
    """Eight ~60-block programs, one per SPECint95 preset shape."""
    return [sized(dataclasses.replace(params, name=f"{name}60",
                                      target_blocks=SERVE_BLOCKS), seed)
            for name, params in SPECINT95.items()]


class Session:
    """An in-process fleet behind a TCP front-end, and one client."""

    def __init__(self, seed: int, presets, tmp: str) -> None:
        from repro.api import open_fleet
        from repro.serve.client import Client
        from repro.serve.frontend import FrontendServer

        speed = Speedometer()
        # The service receives text, and printing rounds profile weights,
        # so the in-process reference schedules the parsed text too.
        self.texts = {name: format_program(program)
                      for name, program in generate(presets).items()}
        self.programs = {name: parse_program(text)
                         for name, text in self.texts.items()}
        self.fleet = open_fleet(shards=1, jobs=1,
                                cache_dir=tempfile.mkdtemp(dir=tmp))
        self.server = FrontendServer(self.fleet, "tcp://127.0.0.1:0")
        try:
            self.client = Client(self.server.start()).connect()
            # One compile of a program outside the cell space starts the
            # worker process, so no timed miss pays for the fork.
            warm = generate_program(SynthParams(name="warmup", seed=seed,
                                                target_blocks=8))
            self.client.submit(GridCell("warmup", "bb", "4U", HEURISTICS[0]),
                               program_text=format_program(warm))
        except BaseException:
            self.close()
            raise
        speed.lap()
        self.setup_s = speed.scaled_s

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        self.server.stop()
        self.fleet.close()


class Plan:
    """The seeded request sequence: one first-time cell at a seeded slot
    in every block of ten requests, otherwise a repeat of a served cell.

    First-time cells come in rounds: each round visits every (scheme,
    machine, heuristic) once, rotating through the programs, so the
    first-time cells of any run mix schemes, machines, heuristics and
    programs in the same proportions whatever the seed.
    """

    def __init__(self, seed: int, programs) -> None:
        self.rng = random.Random(f"serve-{seed}")
        names = list(programs)
        # The paper grid's axes: 3 schemes x 2 machines x 4 heuristics.
        strata = [(cell.scheme, cell.machine, cell.heuristic)
                  for cell in default_grid(names[:1])]
        self.rng.shuffle(strata)
        self.rng.shuffle(names)
        self.cells = [GridCell(names[(index + turn) % len(names)], *stratum)
                      for turn in range(len(names))
                      for index, stratum in enumerate(strata)]
        self.served: List[GridCell] = []
        self.slot = 0

    def step(self, index: int) -> Optional[Tuple[GridCell, bool]]:
        """(cell, is first-time) for request ``index``; None when the
        cell space is used up."""
        if index % MISS_EVERY == 0 and index:
            self.slot = self.rng.randrange(MISS_EVERY)
        if index % MISS_EVERY != self.slot:
            return self.rng.choice(self.served), False
        if len(self.served) == len(self.cells):
            return None
        cell = self.cells[len(self.served)]
        self.served.append(cell)
        return cell, True


def drive(session: Session, plan: Plan, seconds: float,
          limit: Optional[int] = None, min_samples: bool = True,
          speed: Optional[Speedometer] = None):
    """The closed loop: one request at a time until ``seconds`` passed
    (with enough samples for the percentiles when ``min_samples``), or
    for exactly ``limit`` requests.  With ``speed``, a lap ends every
    ``MISS_EVERY`` requests and scales their latencies."""
    replies = []   # [cell, first_time, source, latency, payload, error]
    hits = misses = 0
    start = perf_counter()
    index = lapped = 0

    def lap() -> None:
        scale = speed.lap()
        for reply in replies[lapped:]:
            reply[3] *= scale

    while True:
        if speed is not None and index % MISS_EVERY == 0 and index:
            lap()
            lapped = index
        elapsed = perf_counter() - start
        if limit is not None:
            if index >= limit:
                break
        elif (elapsed >= seconds and (not min_samples or (
                hits >= MIN_HITS and misses >= MIN_MISSES))) \
                or elapsed >= MAX_MEASURE_S:
            break
        step = plan.step(index)
        if step is None:
            break
        cell, first_time = step
        sent = perf_counter()
        try:
            reply = session.client.submit(
                cell, program_text=session.texts[cell.benchmark])
        except (ServeError, OSError) as error:
            replies.append([cell, first_time, None, 0.0, None, error])
        else:
            latency = perf_counter() - sent
            replies.append([cell, first_time, reply.source, latency,
                            reply.result, None])
            if reply.source == "hot":
                hits += 1
            else:
                misses += 1
        index += 1
    end = perf_counter()
    if speed is not None:
        lap()
    return replies, start, end


def run_serve(seed: int, seconds: float, tmp: str, layers=None
              ) -> Measured:
    """``serve-mixed``: ``SERVE_SESSIONS`` fresh sessions replay one
    request sequence.  Traced
    when ``layers`` is given: one untraced session, then one traced
    session replaying exactly its requests."""
    from repro.serve.store import result_from_payload

    out = Measured()
    presets = serve_presets(seed)
    setups: List[float] = []
    sessions = []   # the replies of each session, in request order
    loops: List[float] = []    # scaled, untraced sessions
    raw: List[float] = []
    limit = None
    for _ in range(1 if layers is not None else SERVE_SESSIONS):
        session = Session(seed, presets, tmp)
        setups.append(session.setup_s)
        # A traced run reports no end-to-end metrics: its untraced
        # session needs no minimum sample count and no scaling.
        speed = Speedometer() if layers is None else None
        try:
            replies, start, end = drive(
                session, Plan(seed, session.programs),
                seconds if layers is not None else seconds / SERVE_SESSIONS,
                limit=limit, min_samples=layers is None, speed=speed)
        finally:
            session.close()
        sessions.append(replies)
        if speed is not None:
            loops.append(speed.scaled_s)
            raw.append(speed.raw_s)
        limit = len(replies)
    rss = peak_rss_mb()
    programs = session.programs
    if layers is not None:
        out.untraced_s.append(end - start)
        layers.install()
        try:
            session = Session(seed, presets, tmp)
            # Count and time only the replayed requests, not the set-up.
            layers.recorder.reset()
            try:
                traced, start, end = drive(session,
                                           Plan(seed, session.programs),
                                           seconds, limit=limit)
            finally:
                session.close()
        finally:
            layers.uninstall()
        layers.recorder.merge_spills()
        out.traced_s.append(end - start)
        out.windows.append((start, end))
        out.add_trace(layers.recorder)
        sessions.append(traced)

    # Every served payload must equal the in-process result for its cell.
    cells = Plan(seed, programs).cells
    reference_results = engine.evaluate_grid(cells, programs=programs,
                                             jobs=1, region_memo=RegionMemo())
    reference = {r.cell: outcome(r) for r in reference_results}
    failed = set()   # request indices that failed in some session
    for replies in sessions:
        for index, (cell, first_time, source, _, payload, error) in \
                enumerate(replies):
            out.checker.attempted += 1
            if error is not None:
                out.checker.fail(f"request {cell}: {error!r}")
            elif (source == "hot") == first_time:
                out.checker.fail(f"request {cell}: source {source!r} but "
                                 f"first_time={first_time}")
            elif outcome(result_from_payload(payload)) != reference[cell]:
                out.checker.fail(f"served {cell} differs from in-process")
            else:
                continue
            failed.add(index)
    sample = random.Random(f"lint-{seed}").sample(cells,
                                                  LINT_SAMPLE["serve"])
    out.checker.certify(sample, programs, reference)

    speedup, expansion = quality(reference_results)
    out.record.update(requests=limit, setup_samples=setups, loop_s=loops,
                      raw_loop_s=raw)
    if layers is None:
        served = [reply for replies in sessions
                  for index, reply in enumerate(replies)
                  if index not in failed]
        out.metrics.update(
            setup_s=statistics.median(setups),
            cells_per_s=limit / statistics.median(loops),
            peak_rss_mb=rss,
            speedup_geomean=speedup,
            code_expansion_geomean=expansion,
        )
        out.samples["setup_s"] = len(setups)
        out.samples["cells_per_s"] = len(sessions)
        out.latencies([reply[3] for reply in served if not reply[1]],
                      [reply[3] for reply in served if reply[1]])
    return out
