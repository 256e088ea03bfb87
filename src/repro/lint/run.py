"""Lint drivers over whole programs.

:func:`lint_ir` runs the IR rule family; :func:`lint_schedules` drives
the genuine scheduling pipeline under a :func:`~repro.lint.collect.
lint_scope` so the scheduler's own certifier hook produces the
diagnostics (the lint runner never re-implements scheduling — it
certifies exactly what the pipeline built); :func:`lint_program` is the
facade combining both, behind ``repro.api.lint_program`` and the
``repro lint`` CLI.  :func:`lint_many` fans a batch of programs out
over a worker pool the same way the evaluation engine does — each
program crosses the process boundary as printed IR text, and the
workers' diagnostics and ``lint.*`` counters are merged back in input
order, so the parallel path is output-identical to the serial loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ir.function import Program
from repro.lint.collect import lint_scope
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.ir_rules import lint_program_ir


def lint_ir(program: Program,
            report: Optional[LintReport] = None) -> LintReport:
    """Run the IR rule family over ``program``."""
    return lint_program_ir(program, report)


def lint_schedules(
    program: Program,
    scheme,
    machine,
    options=None,
    report: Optional[LintReport] = None,
) -> LintReport:
    """Schedule every function of ``program`` and certify the result.

    Runs the direct route of :func:`repro.evaluation.engine.
    evaluate_program` function by function (formation, then the
    engine's per-function core with the memo off), with a lint scope
    open around each function's scheduling so each diagnostic carries
    the function it came from.  The certifier inside ``schedule_region``
    sees the open scope and reports into it.
    """
    from repro.evaluation.engine import _schedule_function_partition
    from repro.evaluation.schemes import form_program
    from repro.schedule.scheduler import ScheduleOptions

    report = report if report is not None else LintReport()
    options = options or ScheduleOptions()
    _, functions = form_program(program, scheme)
    for formed in functions:
        with lint_scope(report, function=formed.function.name):
            _schedule_function_partition(formed, machine, options)
    return report


def lint_program(
    program: Program,
    schedule: bool = False,
    scheme=None,
    machine=None,
    options=None,
) -> LintReport:
    """Lint a program: IR rules, plus schedule certification on request.

    ``scheme`` / ``machine`` accept the same spec strings or objects as
    :mod:`repro.api` and default to ``treegion`` on the ``8U`` machine.
    Schedule certification is skipped when the IR rules already found
    errors — scheduling a structurally broken program would raise (or
    certify garbage) rather than add signal.
    """
    report = lint_ir(program)
    if not schedule:
        return report
    if not report.ok:
        return report
    from repro.api import machine as resolve_machine
    from repro.api import make_scheme

    scheme = make_scheme(scheme if scheme is not None else "treegion")
    machine = resolve_machine(machine if machine is not None else "8U")
    return lint_schedules(program, scheme, machine, options=options,
                          report=report)


# ----------------------------------------------------------------------
# Parallel batch linting (the ``repro lint --corpus`` hot path)

#: One picklable work item: (label, printed IR text, schedule?,
#: scheme spec, machine name, heuristic, dominator_parallelism).
_LintTask = Tuple[str, str, bool, str, str, str, bool]


def _lint_worker(task: _LintTask):
    """Pool worker: re-parse one program and lint it.

    Returns ``(label, [diagnostic dicts], metrics snapshot)``.  Op uids
    are process-local (the printed IR carries none, so the re-parsed
    program mints fresh ones); each payload therefore also carries the
    op's *position* in its block (``op_pos``), which the parent maps
    back to the caller's uids — positions survive the round trip, uids
    do not.  Ops not in any block (synthesized exit/copy ops a schedule
    rule might reference) get ``op_pos=None`` and keep the worker uid.
    """
    from repro.ir.parser import parse_program
    from repro.obs.metrics import MetricsRegistry, metrics_scope
    from repro.schedule.scheduler import ScheduleOptions

    label, text, schedule, scheme, machine, heuristic, dp = task
    program = parse_program(text)
    metrics = MetricsRegistry()
    with metrics_scope(metrics):
        report = lint_program(
            program, schedule=schedule, scheme=_build_scheme(scheme),
            machine=_build_machine(machine),
            options=ScheduleOptions(heuristic=heuristic,
                                    dominator_parallelism=dp),
        )
    positions = {}
    for function in program.functions():
        for block in function.cfg.blocks():
            for pos, op in enumerate(block.ops):
                positions[(function.name, block.bid, op.uid)] = pos
    payloads = []
    for diagnostic in report.diagnostics:
        payload = diagnostic.to_json()
        payload["op_pos"] = (
            positions.get((diagnostic.function, diagnostic.block,
                           diagnostic.op))
            if diagnostic.op is not None else None
        )
        payloads.append(payload)
    return (label, payloads, metrics.snapshot())


def _build_scheme(spec: str):
    from repro.api import make_scheme

    return make_scheme(spec)


def _build_machine(name: str):
    from repro.api import machine

    return machine(name)


def _diagnostic_from_json(payload: dict, program: Program) -> Diagnostic:
    op = payload["op"]
    if payload.get("op_pos") is not None:
        # Restore the caller's op uid from the position-in-block the
        # worker recorded (worker-side uids are process-local).
        try:
            function = program.function(payload["function"])
            block = next(b for b in function.cfg.blocks()
                         if b.bid == payload["block"])
            op = block.ops[payload["op_pos"]].uid
        except (KeyError, StopIteration, IndexError):
            pass  # structure changed under us; keep the worker uid
    return Diagnostic(
        rule=payload["rule"],
        severity=Severity.parse(payload["severity"]),
        message=payload["message"],
        function=payload["function"],
        block=payload["block"],
        op=op,
        hint=payload["hint"],
    )


def lint_many(
    targets: Sequence[Tuple[str, Program]],
    *,
    schedule: bool = False,
    scheme: str = "treegion",
    machine: str = "8U",
    heuristic: str = "global_weight",
    dominator_parallelism: bool = True,
    jobs: int = 1,
    metrics=None,
    progress=None,
) -> List[Tuple[str, LintReport]]:
    """Lint a batch of labelled programs, optionally over a worker pool.

    ``jobs > 1`` fans the batch out over a ``multiprocessing.Pool``;
    each program ships as printed IR text (profile weights round-trip
    through the printer, so schedule certification sees the same
    regions).  Results come back in input order regardless of worker
    completion order.  ``metrics`` (a ``MetricsRegistry``) receives the
    merged per-worker ``lint.*`` counters; ``progress`` is called as
    ``progress(label, report)`` as each result lands.
    """
    from repro.schedule.scheduler import ScheduleOptions

    targets = list(targets)
    if jobs <= 1 or len(targets) <= 1:
        from repro.obs.metrics import NULL_METRICS, metrics_scope

        out: List[Tuple[str, LintReport]] = []
        with metrics_scope(metrics if metrics is not None
                           else NULL_METRICS):
            for label, program in targets:
                report = lint_program(
                    program, schedule=schedule,
                    scheme=_build_scheme(scheme),
                    machine=_build_machine(machine),
                    options=ScheduleOptions(
                        heuristic=heuristic,
                        dominator_parallelism=dominator_parallelism,
                    ),
                )
                out.append((label, report))
                if progress is not None:
                    progress(label, report)
        return out

    import multiprocessing

    from repro.ir.printer import format_program

    tasks: List[_LintTask] = [
        (label, format_program(program), schedule, scheme, machine,
         heuristic, dominator_parallelism)
        for label, program in targets
    ]
    programs = dict(targets)
    by_label = {}
    with multiprocessing.Pool(processes=jobs) as pool:
        for label, diagnostics, snapshot in \
                pool.imap_unordered(_lint_worker, tasks):
            report = LintReport()
            for payload in diagnostics:
                report.add(_diagnostic_from_json(payload,
                                                 programs[label]))
            by_label[label] = report
            if metrics is not None:
                metrics.merge_snapshot(snapshot)
            if progress is not None:
                progress(label, report)
    return [(label, by_label[label]) for label, _ in targets]
