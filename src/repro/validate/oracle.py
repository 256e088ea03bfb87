"""Differential oracle: every backend must agree on every program.

For one generated program the oracle cross-checks, per grid cell
(scheme × machine × heuristic) and per input set:

* **result/memory** — the VLIW simulator's return value and final memory
  must equal the sequential interpreter's (the semantic reference);
* **cycles** — when the profile comes from *exactly* the simulated input,
  the simulator's dynamic cycle count must equal the static
  profile-weighted estimate (``sum(exit.weight × retire cycle)``) — not
  approximately: both are sums of integer-valued floats, so equality is
  exact.  This holds for mutating schemes too, because tail duplication
  splits weights consistently with the single profiled path;
* **verify** — the transformed clone a mutating scheme scheduled must
  still pass the structural IR verifier;
* **lint** — every region schedule produced for the cell must pass the
  static schedule-legality certifier (:mod:`repro.lint`): issue width,
  resources, DDG latencies, speculation safety, renaming correctness,
  treegion shape, merge legality.  Failures carry the rule ids that
  fired, so a fuzz failure names the broken invariant directly;
* **routes** (sampled, :func:`check_routes`) — every evaluation route
  in :data:`ROUTES` must reproduce the direct pipeline's rows bit for
  bit and meet its own conditions, and the schedule-height bounds must
  hold against achieved heights and proven optima.

Any disagreement becomes a :class:`Mismatch` carrying the failing cell,
the inputs, expected/actual values, and a first-divergence detail (the
first region visit at which the simulator left the interpreter's path,
or the lowest differing memory address).  Crashes in any backend are
reported as mismatches too, never raised — the minimizer
(:mod:`repro.validate.shrink`) relies on the oracle being total.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.ir.clone import clone_program
from repro.ir.function import Function, Program
from repro.ir.printer import format_program
from repro.ir.verify import check_program
from repro.interp.interpreter import ExecutionObserver, Interpreter
from repro.lint.collect import lint_scope
from repro.lint.diagnostics import LintReport
from repro.interp.profiler import profile_program
from repro.evaluation.engine import (
    CellResult,
    GridCell,
    evaluate_cell,
    evaluate_grid,
    machine_by_name,
)
from repro.evaluation.schemes import SchemeSpec
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry, current_metrics
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import HEURISTICS
from repro.serve.store import ArtifactStore
from repro.vliw.simulator import (
    RegionSchedule,
    VLIWSimulator,
    schedule_program,
)
from repro.validate.generator import GeneratedProgram

#: The default validation grid: every scheme the library implements.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "bb", "slr", "treegion", "superblock", "treegion-td:2.0", "hyperblock",
)
DEFAULT_MACHINES: Tuple[str, ...] = ("4U", "8U")
DEFAULT_HEURISTICS: Tuple[str, ...] = ("global_weight",)

#: Step budget for oracle runs — generated programs terminate by
#: construction, so hitting this is itself a reportable failure.
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Cell:
    """One point of the validation grid."""

    scheme: str
    machine: str
    heuristic: str

    def __str__(self) -> str:
        return f"{self.scheme}/{self.machine}/{self.heuristic}"

    def build_scheme(self):
        return SchemeSpec.parse(self.scheme).build()


def default_grid(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    machines: Sequence[str] = DEFAULT_MACHINES,
    heuristics: Sequence[str] = DEFAULT_HEURISTICS,
) -> List[Cell]:
    """The cross product of the given axes, validated eagerly.

    Raises :class:`ValueError` on an empty axis, a bad scheme spec, an
    unknown machine or an unknown heuristic.
    """
    for axis, values in (("schemes", schemes), ("machines", machines),
                         ("heuristics", heuristics)):
        if not values:
            raise ValueError(f"grid axis {axis!r} is empty")
    for scheme in schemes:
        SchemeSpec.parse(scheme)
    for machine in machines:
        machine_by_name(machine)
    for heuristic in heuristics:
        if heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {heuristic!r}; use one "
                             f"of {', '.join(HEURISTICS)}")
    return [
        Cell(scheme, machine, heuristic)
        for scheme, machine, heuristic in itertools.product(
            schemes, machines, heuristics
        )
    ]


@dataclass
class Mismatch:
    """One disagreement between two backends on one program."""

    #: Which oracle check failed.  Per-cell checks (which carry
    #: ``inputs``): ``result``, ``memory``, ``cycles``, ``verify``,
    #: ``lint``, ``interp-crash``, ``sim-crash``.  Route checks: a
    #: :data:`ROUTES` row name, ``direct`` (the reference crashed),
    #: ``analysis`` or ``exact``.
    check: str
    expected: str
    actual: str
    cell: Optional[Cell] = None
    inputs: Optional[Tuple[object, ...]] = None
    #: First divergence point (region-visit index / memory address) or a
    #: traceback summary for crashes.
    detail: str = ""
    #: For ``lint`` mismatches: the static-analysis rule ids that fired,
    #: so failure reports say *which* legality invariant broke.
    rules: Optional[List[str]] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "cell": str(self.cell) if self.cell is not None else None,
            "inputs": list(self.inputs) if self.inputs is not None else None,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
            "rules": self.rules,
        }


@dataclass
class OracleReport:
    """Everything the oracle concluded about one generated program."""

    name: str
    seed: int
    origin: str
    cells_checked: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "origin": self.origin,
            "cells_checked": self.cells_checked,
            "ok": self.ok,
            "mismatches": [m.to_json() for m in self.mismatches],
        }


# ----------------------------------------------------------------------
# Execution tracing (for the first-divergence detail)


class _BlockTrace(ExecutionObserver):
    """Records every (function, block) the interpreter enters."""

    def __init__(self) -> None:
        self.visits: List[Tuple[str, int]] = []

    def on_block(self, function: Function, block) -> None:
        self.visits.append((function.name, block.bid))


class _TracingSimulator(VLIWSimulator):
    """Records the root block of every region visit."""

    def __init__(self, scheduled, **kwargs) -> None:
        super().__init__(scheduled, **kwargs)
        self.trace: List[Tuple[str, int]] = []
        self._function_of_cfg = {
            id(sf.function.cfg): name
            for name, sf in scheduled.functions.items()
        }

    def _run_region(self, schedule: RegionSchedule, state):
        root = schedule.region.root
        name = self._function_of_cfg.get(id(root.cfg), "?")
        self.trace.append((name, root.bid))
        return super()._run_region(schedule, state)


def _first_trace_divergence(
    interp_trace: List[Tuple[str, int]],
    roots: Dict[str, frozenset],
    sim_trace: List[Tuple[str, int]],
) -> str:
    """Where the simulator's region path left the interpreter's.

    The interpreter's block trace is projected onto region roots; with a
    non-mutating scheme both traverse the same CFG, so the projections
    must match visit for visit.
    """
    projected = [
        (name, bid) for name, bid in interp_trace
        if bid in roots.get(name, frozenset())
    ]
    for index, (want, got) in enumerate(zip(projected, sim_trace)):
        if want != got:
            return (
                f"region visit {index}: interpreter reached "
                f"{want[0]}/bb{want[1]}, simulator entered {got[0]}/bb{got[1]}"
            )
    if len(projected) != len(sim_trace):
        return (
            f"trace lengths differ: interpreter made {len(projected)} "
            f"region visits, simulator {len(sim_trace)}"
        )
    return "traces agree; divergence is inside a region"


def _first_memory_divergence(expected: Dict[int, object],
                             actual: Dict[int, object]) -> str:
    for address in sorted(set(expected) | set(actual)):
        want = expected.get(address)
        got = actual.get(address)
        if want != got:
            return f"memory[{address}]: expected {want!r}, got {got!r}"
    return ""


def _crash_detail(error: BaseException) -> str:
    line = traceback.format_exception_only(type(error), error)[-1].strip()
    return line


# ----------------------------------------------------------------------
# Per-cell checks


def check_cell(
    program: Program,
    inputs: Sequence[object],
    cell: Cell,
    machine: MachineModel,
    reference: Tuple[object, Dict[int, object], List[Tuple[str, int]]],
) -> List[Mismatch]:
    """Run one grid cell against the interpreter reference.

    ``reference`` is ``(value, memory, block_trace)`` from
    :func:`_interpret`.  The program is cloned and profiled on *exactly*
    these inputs, which is what makes the cycles check exact.
    """
    ref_value, ref_memory, ref_trace = reference
    inputs = tuple(inputs)
    worked = clone_program(program)
    profile_program(worked, [list(inputs)])
    scheme = cell.build_scheme()

    lint_report = LintReport()
    try:
        with lint_scope(lint_report):
            scheduled = schedule_program(worked, scheme, machine)
        if scheme.mutates:
            # Tail duplication re-splits profile weights proportionally,
            # which can go fractional (e.g. a 1-visit merge split 0.5/0.5)
            # and the estimate would drift off the integral cycle count.
            # The transform preserves semantics, so re-profiling the
            # transformed program on the same input restores exact exit
            # counts; weighted_time reads weights lazily and picks them up.
            profile_program(scheduled.program, [list(inputs)])
        simulator = _TracingSimulator(scheduled)
        value = simulator.run(inputs)
    except Exception as error:  # scheduling or simulation blew up
        return [Mismatch(
            check="sim-crash", cell=cell, inputs=inputs,
            expected=f"result {ref_value!r}",
            actual=type(error).__name__,
            detail=_crash_detail(error),
        )]

    mismatches: List[Mismatch] = []

    if lint_report.errors:
        failed = lint_report.errors
        mismatches.append(Mismatch(
            check="lint", cell=cell, inputs=inputs,
            expected="certifier-clean region schedules",
            actual=f"{len(failed)} schedule-legality violation(s)",
            detail="; ".join(d.format() for d in failed[:3]),
            rules=sorted({d.rule for d in failed}),
        ))

    problems = check_program(scheduled.program)
    if problems:
        mismatches.append(Mismatch(
            check="verify", cell=cell, inputs=inputs,
            expected="clean IR verifier on the scheduled clone",
            actual=f"{len(problems)} violation(s)",
            detail="; ".join(problems[:3]),
        ))

    if value != ref_value or simulator.memory != ref_memory:
        if not scheme.mutates:
            detail = _first_trace_divergence(
                ref_trace,
                {name: frozenset(sf.by_root)
                 for name, sf in scheduled.functions.items()},
                simulator.trace,
            )
        else:
            detail = _first_memory_divergence(ref_memory, simulator.memory)
        if value != ref_value:
            mismatches.append(Mismatch(
                check="result", cell=cell, inputs=inputs,
                expected=repr(ref_value), actual=repr(value), detail=detail,
            ))
        else:
            mismatches.append(Mismatch(
                check="memory", cell=cell, inputs=inputs,
                expected="interpreter memory image",
                actual=_first_memory_divergence(ref_memory,
                                                simulator.memory),
                detail=detail,
            ))

    # Recompute the estimate from *live* profile weights rather than
    # RegionSchedule.weighted_time: exit weights are snapshotted at
    # formation time, so the re-profile after a mutating transform (see
    # above) would not reach them.  For non-mutating schemes the live
    # weights equal the snapshots.
    estimate = 0.0
    for scheduled_fn in scheduled.functions.values():
        for schedule in scheduled_fn.by_root.values():
            for record in schedule.exits:
                exit = record.exit
                weight = (exit.edge.weight if exit.edge is not None
                          else exit.source.weight)
                estimate += weight * record.cycle
    if simulator.cycles != estimate:
        mismatches.append(Mismatch(
            check="cycles", cell=cell, inputs=inputs,
            expected=f"static estimate {estimate:g}",
            actual=f"simulated {simulator.cycles}",
            detail="profile taken from exactly this input",
        ))

    return mismatches


def _interpret(program: Program, inputs: Sequence[object]):
    trace = _BlockTrace()
    interpreter = Interpreter(program, max_steps=MAX_STEPS, observer=trace)
    value = interpreter.run(list(inputs))
    return value, interpreter.memory, trace.visits


# ----------------------------------------------------------------------
# The route table


#: The reference every route is compared with: the direct pipeline,
#: ``evaluate_grid(jobs=1, region_memo=False)``.
REFERENCE = "direct"

#: ``(expected, actual, detail)`` of a route condition that failed.
Failure = Tuple[str, str, str]


class RouteContext:
    """One program's grid, and the state its routes share in one check.

    Rows run in table order against one context, so a warm row finds
    the store or the memo its cold row filled.  The program crosses
    every process and store boundary as printed IR, so the routes double
    as a printer/parser round trip.
    """

    def __init__(self, program: Program, name: str, grid: Sequence[Cell],
                 jobs: int, scratch: str) -> None:
        self.program = program
        self.cells = [GridCell(name, cell.scheme, cell.machine,
                               cell.heuristic) for cell in grid]
        self.texts = {name: format_program(program)}
        self.jobs = jobs
        self.store = ArtifactStore(os.path.join(scratch, "store"))
        self.regions = os.path.join(scratch, "regions")
        self.memo = RegionMemo()
        #: The reference's pipeline counters, set before any row runs.
        self.counters: Dict[str, object] = {}

    def evaluate(self, metrics: MetricsRegistry, jobs: int = 1,
                 **kwargs) -> List[CellResult]:
        return evaluate_grid(self.cells, jobs=jobs, program_texts=self.texts,
                             metrics=metrics, **kwargs)


@dataclass(frozen=True)
class Route:
    """One row of :data:`ROUTES`: another way to evaluate the grid.

    Its results must equal the reference's bit for bit, and each of its
    ``requires`` conditions must return ``None`` rather than a
    :data:`Failure`.
    """

    #: The row's name; its mismatches carry it as their ``check``.
    name: str
    #: ``run(context, metrics)`` evaluates every cell along the route.
    run: Callable[[RouteContext, MetricsRegistry], List[CellResult]]
    requires: Tuple[
        Callable[[RouteContext, MetricsRegistry], Optional[Failure]], ...
    ] = ()
    #: The earlier row whose store or memo this row reuses.
    after: Optional[str] = None
    #: Needs a worker pool, so runs only when ``jobs >= 2``.
    pool: bool = False


def _pipeline_counters(metrics: MetricsRegistry) -> Dict[str, object]:
    """Deterministic counters minus the store's own I/O (``serve.store.*``),
    which differs by route by design."""
    snapshot = metrics.deterministic_snapshot()
    snapshot["counters"] = {
        key: value for key, value in snapshot["counters"].items()
        if not key.startswith("serve.store.")
    }
    return snapshot


def _same_counters(context, metrics) -> Optional[Failure]:
    if _pipeline_counters(metrics) != context.counters:
        return ("deterministic counters match the direct pipeline",
                "counters differ", "a memo entry's counter record is lossy")
    return None


def _no_misses(context, metrics) -> Optional[Failure]:
    misses = metrics.gauges.get("cache.region.misses", 0)
    if misses:
        return ("every region served without scheduling",
                f"{misses} miss(es)",
                "region fingerprints or store keys unstable across passes")
    return None


def _all_hits(context, metrics) -> Optional[Failure]:
    hits = metrics.counters.get("serve.store.hits", 0)
    if hits < len(context.cells):
        return (f"all {len(context.cells)} cells served from disk",
                f"{hits} hit(s)",
                "cache keys unstable across identical evaluations")
    return None


def _per_cell(context, metrics) -> List[CellResult]:
    return [evaluate_cell(cell, program=context.program, metrics=metrics)
            for cell in context.cells]


def _through_store(context, metrics) -> List[CellResult]:
    return api.cached_evaluate(context.cells, store=context.store,
                               program_texts=context.texts, metrics=metrics)


#: Every route a user can take to a grid result.  ``serial`` and
#: ``parallel`` use the process-global region memo.  The store rows
#: certify cell keys and the JSON round trip of results.  The memo rows
#: certify region fingerprints and hit-path counting; ``memo-revived``
#: is a fresh memo over the region store ``memo-cold`` filled.
ROUTES: Tuple[Route, ...] = (
    Route("per-cell", _per_cell),
    Route("serial", lambda ctx, metrics: ctx.evaluate(metrics)),
    Route("parallel", lambda ctx, metrics: ctx.evaluate(metrics, ctx.jobs),
          pool=True),
    Route("store-cold", _through_store),
    Route("store-warm", _through_store, requires=(_all_hits,),
          after="store-cold"),
    Route("memo-cold", lambda ctx, metrics: ctx.evaluate(
        metrics, region_memo=ctx.memo, region_store=ctx.regions),
        requires=(_same_counters,)),
    Route("memo-warm", lambda ctx, metrics: ctx.evaluate(
        metrics, region_memo=ctx.memo),
        requires=(_no_misses, _same_counters), after="memo-cold"),
    Route("memo-revived", lambda ctx, metrics: ctx.evaluate(
        metrics, region_memo=RegionMemo(), region_store=ctx.regions),
        requires=(_no_misses, _same_counters), after="memo-cold"),
)


# ----------------------------------------------------------------------
# Soundness certifications


def _bounded_schemes(grid: Sequence[Cell]) -> List[str]:
    """The grid's schemes the exact search covers (not hyperblock: its
    legality model is tree-only)."""
    return [spec for spec in {cell.scheme: None for cell in grid}
            if api.make_scheme(spec).name != "hyperblock"]


def check_analysis_soundness(
    program: Program,
    name: str,
    grid: Sequence[Cell],
) -> List[Mismatch]:
    """The dataflow engine's schedule-height bounds must hold on ``grid``.

    Runs :func:`repro.analysis.driver.analyze_program` over the grid's
    schemes, machines, and heuristics: every region's
    critical-path / resource lower bound must be <= every achieved
    height, and the flow-sensitive IR lint must find no errors (a
    must-uninitialized use in a generated program would mean the
    generator or the analysis is broken).
    """
    from repro.analysis.driver import analyze_program

    result = analyze_program(
        program, name=name, schemes=list({cell.scheme: None
                                          for cell in grid}),
        machines=list({cell.machine: None for cell in grid}),
        heuristics=list({cell.heuristic: None for cell in grid}),
    )
    mismatches: List[Mismatch] = []
    for row in result["regions"]:
        if row["sound"]:
            continue
        achieved = ", ".join(
            f"{heuristic}={height}"
            for heuristic, height in row["achieved"].items()
        )
        mismatches.append(Mismatch(
            check="analysis",
            cell=Cell(row["scheme"], row["machine"],
                      min(row["achieved"], key=row["achieved"].get)),
            expected=f"lower bound {row['lower_bound']} <= best height "
                     f"{row['best']}",
            actual=achieved,
            detail=f"{row['function']}/bb{row['root']}: unsound bound "
                   f"(cp={row['critical_path']}, "
                   f"res={row['resource_bound']})",
        ))
    lint = result.get("lint")
    if lint is not None and lint["errors"]:
        rules = sorted({
            d["rule"] for d in lint["diagnostics"]
            if d["severity"] == "error"
        })
        mismatches.append(Mismatch(
            check="analysis",
            expected="flow-sensitive lint finds no errors",
            actual=f"{lint['errors']} error(s)",
            detail="generated programs must be clean under the "
                   "flow-sensitive rules",
            rules=rules,
        ))
    return mismatches


def check_exact_soundness(
    program: Program,
    name: str,
    grid: Sequence[Cell],
) -> List[Mismatch]:
    """Machine-certify the bounds against proven optima (exact backend).

    The analysis certification only shows a bound <= some achieved
    height; the branch-and-bound backend proves the actual optimum on
    small regions, which catches bounds that are unsound yet still under
    every heuristic's height.  Kept cheap: big regions are skipped and
    the node budget is small — an unproven region simply contributes no
    evidence.
    """
    from repro.exact.gap import gap_program

    schemes = _bounded_schemes(grid)
    if not schemes:
        return []
    result = gap_program(
        program, schemes=schemes,
        machines=list({cell.machine: None for cell in grid}),
        budget=2_000, max_ops=20, lint=False,
    )
    mismatches: List[Mismatch] = []
    for row in result["regions"]:
        if row["status"] != "proven" or row["sound"]:
            continue
        mismatches.append(Mismatch(
            check="exact",
            cell=Cell(row["scheme"], row["machine"],
                      min(row["heights"], key=row["heights"].get)),
            expected=f"lower bound {row['lower_bound']} <= proven "
                     f"optimum {row['optimum']}",
            actual=f"optimum={row['optimum']}",
            detail=f"{row['function']}/bb{row['root']}: bound exceeds "
                   f"the proven optimum (cp={row['critical_path']}, "
                   f"res={row['resource_bound']})",
        ))
    return mismatches


#: Certifications that run beside the routes, named like rows.
CERTIFICATIONS = (
    ("analysis", check_analysis_soundness),
    ("exact", check_exact_soundness),
)


# ----------------------------------------------------------------------
# The route entry point


def _crash(check: str, error: BaseException) -> Mismatch:
    return Mismatch(check=check, expected=f"{check} runs to completion",
                    actual=type(error).__name__, detail=_crash_detail(error))


def _run_routes(context: RouteContext, grid: Sequence[Cell],
                rows: Sequence[Route]) -> List[Mismatch]:
    # Each pass counts into its own registry, then into the caller's.
    outer = current_metrics()
    metrics = MetricsRegistry()
    try:
        reference = context.evaluate(metrics, region_memo=False)
    except Exception as error:
        return [_crash(REFERENCE, error)]
    outer.merge(metrics)
    context.counters = _pipeline_counters(metrics)
    mismatches: List[Mismatch] = []
    for route in rows:
        metrics = MetricsRegistry()
        try:
            results = route.run(context, metrics)
            outer.merge(metrics)
            if len(results) != len(reference):
                raise ValueError(f"{len(results)} results for "
                                 f"{len(reference)} cells")
        except Exception as error:
            mismatches.append(_crash(route.name, error))
            continue
        for cell, want, got in zip(grid, reference, results):
            if got != want:
                mismatches.append(Mismatch(
                    check=route.name, cell=cell,
                    expected=f"{REFERENCE} time {want.time!r}",
                    actual=f"{route.name} time {got.time!r}",
                    detail=f"the {route.name} route diverged from the "
                           f"{REFERENCE} pipeline",
                ))
        for condition in route.requires:
            failure = condition(context, metrics)
            if failure is not None:
                expected, actual, detail = failure
                mismatches.append(Mismatch(
                    check=route.name, expected=expected, actual=actual,
                    detail=detail,
                ))
    return mismatches


def check_routes(
    program: Program,
    name: str,
    grid: Sequence[Cell],
    jobs: int = 1,
    only: Optional[str] = None,
) -> List[Mismatch]:
    """Every :data:`ROUTES` row must reproduce the direct reference.

    The reference is computed once; each row's results must equal it
    bit for bit, and each row must meet its ``requires``.  ``parallel``
    runs only when ``jobs >= 2``, with that many workers.  The
    :data:`CERTIFICATIONS` run last.  A crash in the reference, a row
    or a certification becomes a mismatch named after it, never an
    exception.  ``only`` restricts the check to one name — a row (plus
    the rows it runs ``after``), a certification, or the reference —
    which is how the shrinker re-checks a candidate.
    """
    rows = [route for route in ROUTES if jobs > 1 or not route.pool]
    certifications = CERTIFICATIONS
    if only is not None:
        wanted = {only}
        for route in reversed(ROUTES):
            if route.name in wanted and route.after is not None:
                wanted.add(route.after)
        rows = [route for route in rows if route.name in wanted]
        certifications = [c for c in CERTIFICATIONS if c[0] == only]
    mismatches: List[Mismatch] = []
    if rows or only == REFERENCE:
        with tempfile.TemporaryDirectory(prefix="repro-routes-") as scratch:
            context = RouteContext(program, name, grid, jobs, scratch)
            with context.store:
                mismatches.extend(_run_routes(context, grid, rows))
    for check, certify in certifications:
        try:
            mismatches.extend(certify(program, name, grid))
        except Exception as error:
            mismatches.append(_crash(check, error))
    return mismatches


# ----------------------------------------------------------------------
# Whole-program entry points


def check_ir(
    program: Program,
    input_sets: Sequence[Sequence[object]],
    grid: Sequence[Cell],
    report: OracleReport,
) -> OracleReport:
    """Run the per-cell differential checks; append to ``report``."""
    resolved = {cell.machine: machine_by_name(cell.machine) for cell in grid}
    for inputs in input_sets:
        try:
            reference = _interpret(program, inputs)
        except Exception as error:
            report.mismatches.append(Mismatch(
                check="interp-crash", inputs=tuple(inputs),
                expected="interpreter terminates",
                actual=type(error).__name__,
                detail=_crash_detail(error),
            ))
            continue
        for cell in grid:
            report.cells_checked += 1
            report.mismatches.extend(check_cell(
                program, inputs, cell, resolved[cell.machine], reference
            ))
    return report


def check_generated(
    generated: GeneratedProgram,
    grid: Optional[Sequence[Cell]] = None,
    engine_jobs: int = 0,
) -> OracleReport:
    """The full oracle for one generated program.

    ``engine_jobs`` is the one sampling switch (a full route check costs
    several grid passes, so the runner samples every Nth seed): ``0``
    runs the per-cell checks only, ``1`` adds :func:`check_routes` with
    every row except ``parallel``, and ``>= 2`` adds ``parallel`` with
    that many workers.
    """
    if grid is None:
        grid = default_grid()
    report = OracleReport(
        name=generated.name, seed=generated.seed, origin=generated.origin,
    )
    check_ir(generated.program, generated.inputs, grid, report)
    if engine_jobs > 0:
        report.mismatches.extend(check_routes(
            generated.program, generated.name, grid, jobs=engine_jobs,
        ))
    return report
