"""Parallel, cached evaluation of the full experiment grid.

The paper's experiments sweep a grid of (benchmark × scheme × machine ×
heuristic) cells; evaluating each cell independently repeats a lot of
work — the clone, the region formation, liveness, dominators, register
bounds, and the priority-key ingredients are all identical across the
machines and heuristics of one (benchmark, scheme) pair.  This module
provides :func:`evaluate_grid`, which exploits that structure:

* **serial path** (``jobs=1``, the default): cells are grouped by
  (benchmark, scheme); the clone and formation run once per group, the
  version-keyed analysis cache (:mod:`repro.ir.analysis_cache`) serves
  liveness/dominators/register bounds to every region, and the region
  memo (:mod:`repro.schedule.memo`, on by default) shares prep, DDGs,
  priority orders and finished list schedules across the group's
  machines and heuristics;

* **parallel path** (``jobs>1``, or ``jobs=0`` for the CPU count): work
  fans out over a ``multiprocessing`` pool at *cell* granularity, and
  large programs additionally split *by function* (formation and
  estimation are per-function independent, so a contiguous slice of
  functions is a self-contained work item).  Workers rebuild benchmark
  programs from their names — schemes hold closures and programs are
  heavy, so neither crosses the process boundary — and the parent merges
  partial results **in function order**, reproducing the serial float
  accumulation exactly.

Every route runs one core: ``form_program``, ``_schedule_function_partition``
per function, ``_merge_partials`` in function order.  The direct route
:func:`evaluate_program` runs it with the memo off (:func:`evaluate_cell`
and the simulator's ``schedule_program`` reduce it); both grid paths run it
per (benchmark, scheme) group and are bit-identical to it: same ``time``,
``code_expansion`` and region lengths (``tests/test_engine.py``).

Cells name their scheme by *spec string* (``"bb"``, ``"slr"``,
``"treegion"``, ``"superblock"``, ``"hyperblock"``,
``"treegion-td:2.0"``) precisely because :class:`Scheme` objects close
over formers and are not picklable; :func:`build_scheme` turns a spec
back into a scheme anywhere, including inside a worker.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.ir.analysis_cache import liveness_of
from repro.ir.function import Program
from repro.machine.model import MachineModel
from repro.machine.presets import PAPER_MACHINES, SCALAR_1U
from repro.obs.metrics import (
    NULL_METRICS, MetricsRegistry, current_metrics, metrics_scope,
)
from repro.obs.tracer import NULL_TRACER, SpanWriter, Tracer
from repro.regions.region import RegionPartition
from repro.regions.stats import RegionStats, partition_stats
from repro.schedule.priorities import HEURISTICS
from repro.schedule.schedule import RegionSchedule
from repro.schedule.scheduler import ScheduleOptions, schedule_region
from repro.util.gc_policy import evaluation_gc
from repro.evaluation.schemes import (
    FormedFunction, Scheme, SchemeSpec, form_program,
)

if TYPE_CHECKING:
    from repro.schedule.memo import GroupState

#: Machines addressable by name from a grid cell.
MACHINES: Dict[str, MachineModel] = {"1U": SCALAR_1U, **PAPER_MACHINES}

#: Functions-per-task threshold above which a cell splits across workers.
SPLIT_THRESHOLD = 8


def build_scheme(spec: str) -> Scheme:
    """Turn a scheme spec string into a :class:`Scheme`.

    Deprecated ad-hoc path: the parsing now lives in
    :class:`repro.evaluation.schemes.SchemeSpec`; prefer
    ``SchemeSpec.parse(spec).build()`` (or ``repro.api.make_scheme``).
    Kept as a thin delegate because grid cells and workers still name
    schemes by spec string.
    """
    return SchemeSpec.parse(spec).build()


def machine_by_name(name: str) -> MachineModel:
    """Resolve a machine name (``1U``/``4U``/``8U``, or any ``<N>U``)."""
    machine = MACHINES.get(name)
    if machine is not None:
        return machine
    if name.endswith("U") and name[:-1].isdigit():
        from repro.machine.presets import universal_machine

        return universal_machine(int(name[:-1]), name=name)
    raise ValueError(
        f"unknown machine {name!r}; use one of {sorted(MACHINES)} or <N>U"
    )


@dataclass(frozen=True)
class GridCell:
    """One experiment: a benchmark under one scheme/machine/heuristic."""

    benchmark: str
    scheme: str
    machine: str
    heuristic: str
    dominator_parallelism: bool = False
    schedule_copies: bool = False
    backend: str = "heuristic"

    def options(self) -> ScheduleOptions:
        return ScheduleOptions(
            heuristic=self.heuristic,
            dominator_parallelism=self.dominator_parallelism,
            schedule_copies=self.schedule_copies,
            backend=self.backend,
        )


@dataclass
class CellResult:
    """The numbers one grid cell produced (picklable, program-free)."""

    cell: GridCell
    #: Estimated execution time (profile-weighted cycles).
    time: float
    #: Code expansion factor vs the original program.
    code_expansion: float
    #: Schedule length (cycles) of every region, in deterministic
    #: (function, region) order.
    schedule_lengths: Tuple[int, ...] = ()
    total_copies: int = 0
    total_merged: int = 0
    total_speculated: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.cell.benchmark,
            "scheme": self.cell.scheme,
            "machine": self.cell.machine,
            "heuristic": self.cell.heuristic,
            "time": self.time,
            "code_expansion": self.code_expansion,
            "copies": self.total_copies,
            "merged": self.total_merged,
            "speculated": self.total_speculated,
        }


def default_grid(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = ("bb", "treegion", "treegion-td:2.0"),
    machines: Sequence[str] = ("4U", "8U"),
    heuristics: Sequence[str] = HEURISTICS,
) -> List[GridCell]:
    """The paper's evaluation grid (8 benchmarks × 3 schemes × 2 machines
    × 4 heuristics = 192 cells with the defaults)."""
    if benchmarks is None:
        from repro.workloads.specint import BENCHMARK_NAMES

        benchmarks = BENCHMARK_NAMES
    return [
        GridCell(bench, scheme, machine, heuristic)
        for bench in benchmarks
        for scheme in schemes
        for machine in machines
        for heuristic in heuristics
    ]


# ----------------------------------------------------------------------
# Per-function evaluation core
#
# Formation and estimation are independent per function, so everything
# below works on formed functions; the direct route and both grid paths
# are built from the same pieces, which is what makes them bit-identical.


@dataclass
class _FunctionPartial:
    """One function's contribution to a cell (picklable)."""

    time: float
    original_ops: int
    final_ops: int
    schedule_lengths: Tuple[int, ...]
    copies: int = 0
    merged: int = 0
    speculated: int = 0


def _schedule_function_partition(
    formed: FormedFunction,
    machine: MachineModel,
    options: ScheduleOptions,
    tracer=NULL_TRACER,
    memo=None,
    schedules: Optional[List[RegionSchedule]] = None,
) -> _FunctionPartial:
    """Schedule one formed function for one machine and options.

    With a :class:`repro.schedule.memo.RegionMemo` supplied, regions go
    through it and come back as summaries; the accumulation below reads
    only the attributes schedules and summaries share.  A caller
    that reads placements passes a ``schedules`` list (and no memo): each
    region's :class:`RegionSchedule` is appended to it, in region order.
    """
    schedule_one = memo.schedule if memo is not None else schedule_region
    # Every region of a partition lives in the one CFG it was formed
    # over, and scheduling never mutates it: one liveness serves all.
    regions = list(formed.partition)
    liveness = liveness_of(regions[0].root.cfg) if regions else None
    scheduled = [
        schedule_one(region, machine, options, liveness, tracer=tracer)
        for region in regions
    ]
    if schedules is not None:
        schedules.extend(scheduled)
    with tracer.span("estimate"):
        time = sum(s.weighted_time for s in scheduled)
    return _FunctionPartial(
        time=time,
        original_ops=formed.original_ops,
        final_ops=formed.final_ops,
        schedule_lengths=tuple(s.length for s in scheduled),
        copies=sum(s.copy_count for s in scheduled),
        merged=sum(s.merged_count for s in scheduled),
        speculated=sum(s.speculated_count for s in scheduled),
    )


def _merge_partials(cell: Optional[GridCell],
                    partials: Sequence[_FunctionPartial]) -> CellResult:
    """Fold per-function partials (already in function order) into one
    result, in the direct route's accumulation order."""
    time = 0.0
    lengths: List[int] = []
    original_ops = final_ops = copies = merged = speculated = 0
    for partial in partials:
        time += partial.time
        lengths.extend(partial.schedule_lengths)
        original_ops += partial.original_ops
        final_ops += partial.final_ops
        copies += partial.copies
        merged += partial.merged
        speculated += partial.speculated
    expansion = final_ops / original_ops if original_ops > 0 else 1.0
    return CellResult(
        cell=cell,
        time=time,
        code_expansion=expansion,
        schedule_lengths=tuple(lengths),
        total_copies=copies,
        total_merged=merged,
        total_speculated=speculated,
    )


def _groups(cells: Sequence[GridCell]
            ) -> Dict[Tuple[str, str], List[Tuple[int, GridCell]]]:
    """The grid's cells, indexed, grouped by (benchmark, scheme)."""
    groups: Dict[Tuple[str, str], List[Tuple[int, GridCell]]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault((cell.benchmark, cell.scheme), []).append(
            (index, cell))
    return groups


@dataclass
class _Group:
    """The functions ``[lo, hi)`` of one program formed under one
    scheme: what every cell of a (benchmark, scheme) group schedules.

    Formation is machine- and heuristic-independent, and scheduling
    never mutates the IR, so a group serves any number of cells, in one
    task or, kept by a serve worker, across tasks.
    """

    #: The program formed; the reference pins it, so a cache keyed by
    #: its ``id`` cannot alias a later program.
    program: Program
    functions: List[FormedFunction]
    #: The metrics snapshot formation recorded, counted again each time
    #: the group is evaluated.
    counters: Dict[str, object]
    #: The region memo's tier 1 over these regions (None until a memo
    #: schedules them).
    state: Optional[GroupState] = None

    @property
    def ops(self) -> int:
        """Op count of the formed functions (tail duplication included)."""
        return sum(formed.final_ops for formed in self.functions)


def _form_group(program: Program, scheme: Scheme, lo: int = 0,
                hi: Optional[int] = None, tracer=NULL_TRACER) -> _Group:
    """Form the functions ``[lo, hi)`` of ``program`` once, recording
    formation's counters in the group instead of counting them."""
    formation = MetricsRegistry()
    with metrics_scope(formation):
        _, functions = form_program(program, scheme, lo, hi, tracer)
    return _Group(program, functions, formation.snapshot())


def _evaluate_group(
    group: _Group,
    indexed_cells: Sequence[Tuple[int, GridCell]],
    tracer=NULL_TRACER,
    memo=None,
) -> List[Tuple[int, List[_FunctionPartial]]]:
    """Evaluate every cell of one formed group; returns ``(index,
    partials)`` per cell, the partials in function order.

    Formation's counters are counted here, so a group kept from an
    earlier task counts exactly as a freshly formed one.  With a memo,
    the group's tier-1 state is installed first (a fresh one on the
    group's first evaluation).
    """
    current_metrics().merge_snapshot(group.counters)
    if memo is not None:
        group.state = memo.begin_group(group.state)
    out = []
    for index, cell in indexed_cells:
        machine = machine_by_name(cell.machine)
        options = cell.options()
        with tracer.span("cell", machine=cell.machine,
                         heuristic=cell.heuristic):
            partials = [
                _schedule_function_partition(formed, machine, options,
                                             tracer, memo)
                for formed in group.functions
            ]
        out.append((index, partials))
    return out


# ----------------------------------------------------------------------
# The direct route


@dataclass
class EvaluationResult:
    """Everything one (program, scheme, machine, options) run produced."""

    scheme: str
    machine: str
    heuristic: str
    #: Estimated execution time (profile-weighted cycles).
    time: float = 0.0
    #: Code expansion factor vs the original program (1.0 when the scheme
    #: does not duplicate).
    code_expansion: float = 1.0
    #: Per-function partitions (on the possibly-duplicated clone).
    partitions: List[RegionPartition] = field(default_factory=list)
    #: All region schedules, in (function, region) order.
    schedules: List[RegionSchedule] = field(default_factory=list)
    #: The program the partitions refer to (clone if the scheme mutates).
    program: Optional[Program] = None
    #: Per-function figures, in function order.
    partials: List[_FunctionPartial] = field(default_factory=list)

    @property
    def stats(self) -> RegionStats:
        return partition_stats(self.partitions)

    @property
    def multi_block_stats(self) -> RegionStats:
        return partition_stats(self.partitions, multi_block_only=True)

    @property
    def total_copies(self) -> int:
        return sum(s.copy_count for s in self.schedules)

    @property
    def total_merged(self) -> int:
        return sum(s.merged_count for s in self.schedules)

    @property
    def total_speculated(self) -> int:
        return sum(s.speculated_count for s in self.schedules)


def evaluate_program(
    program: Program,
    scheme: Scheme,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
) -> EvaluationResult:
    """Run one full formation + scheduling + estimation pipeline: the
    shared core with the region memo off, keeping every schedule.

    The input program is never modified: schemes that tail-duplicate
    run on clones (the result's ``program``).  ``metrics`` collects
    pipeline counters and ``tracer`` records the run as nested spans
    (program → clone/formation, then per function
    schedule_region/estimate → prep/renaming/ddg/priorities/
    list_schedule).
    """
    options = options or ScheduleOptions()
    with metrics_scope(metrics), \
            tracer.span("evaluate_program", scheme=scheme.name,
                        machine=machine.name,
                        heuristic=options.heuristic):
        worked, functions = form_program(program, scheme, tracer=tracer)
        result = EvaluationResult(
            scheme.name, machine.name, options.heuristic, program=worked,
            partitions=[formed.partition for formed in functions])
        for formed in functions:
            with tracer.span("function", function=formed.function.name):
                result.partials.append(_schedule_function_partition(
                    formed, machine, options, tracer,
                    schedules=result.schedules))
        totals = _merge_partials(None, result.partials)
        result.time = totals.time
        result.code_expansion = totals.code_expansion
        return result


# ----------------------------------------------------------------------
# Region memo plumbing


def _open_region_store(spec):
    """An artifact store opened from a directory or (dir, max_mb)."""
    from repro.serve.store import ArtifactStore

    if isinstance(spec, str):
        return ArtifactStore(spec)
    directory, max_mb = spec
    return ArtifactStore(directory, max_mb=max_mb)


def _resolve_memo(region_memo):
    """Turn ``evaluate_grid``'s ``region_memo`` argument into a memo.

    ``False`` → None (memo off); ``None``/``True`` → the process-global
    :func:`repro.schedule.memo.global_memo`; anything else is used
    as-is.
    """
    if region_memo is False:
        return None
    if region_memo is None or region_memo is True:
        from repro.schedule.memo import global_memo

        return global_memo()
    return region_memo


#: Per-worker-process region store handles, keyed by directory (a handle
#: indexes the segment once, then only what is appended; it stays open).
_worker_stores: Dict[str, object] = {}


def _worker_region_store(directory: str, max_mb: float):
    store = _worker_stores.get(directory)
    if store is None:
        from repro.serve.store import ArtifactStore

        store = ArtifactStore(directory, max_mb=max_mb)
        _worker_stores[directory] = store
    return store


def evaluate_cell(
    cell: GridCell,
    program: Optional[Program] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
) -> CellResult:
    """Evaluate one grid cell from scratch (the reference serial path):
    :func:`evaluate_program` with the cell's parameters, reduced to a
    picklable :class:`CellResult`."""
    if program is None:
        program = _resolve_program(cell.benchmark, None)
    with tracer.span("evaluate_cell", benchmark=cell.benchmark,
                     scheme=cell.scheme, machine=cell.machine,
                     heuristic=cell.heuristic):
        metrics.inc("engine.cells")
        result = evaluate_program(program, build_scheme(cell.scheme),
                                  machine_by_name(cell.machine),
                                  cell.options(), metrics, tracer)
        return _merge_partials(cell, result.partials)


# ----------------------------------------------------------------------
# Serial grid path: shared clone/formation per (benchmark, scheme)


def _evaluate_grid_serial(
    cells: Sequence[GridCell],
    programs: Optional[Dict[str, Program]],
    texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    memo=None,
) -> List[CellResult]:
    results: List[Optional[CellResult]] = [None] * len(cells)
    with metrics_scope(metrics):
        for (bench, scheme_spec), indexed in _groups(cells).items():
            with tracer.span("group", benchmark=bench, scheme=scheme_spec,
                             cells=len(indexed)):
                program = _resolve_program(bench, programs, texts)
                scheme = build_scheme(scheme_spec)
                metrics.inc("engine.cells", len(indexed))
                group = _form_group(program, scheme, tracer=tracer)
                for index, partials in _evaluate_group(group, indexed,
                                                       tracer, memo):
                    results[index] = _merge_partials(cells[index], partials)
    return results  # type: ignore[return-value]


#: How many programs parsed from shipped IR text a process keeps.
TEXT_CACHE_SIZE = 16

#: Per-process cache of programs parsed from shipped IR text, keyed by
#: the text's SHA-256 digest and least recently used first: one text
#: parses to one program (so a kept group's program id stays valid)
#: whatever benchmark name it travels under.
_text_cache: "OrderedDict[bytes, Program]" = OrderedDict()


def _program_from_text(text: str) -> Program:
    key = hashlib.sha256(text.encode()).digest()
    program = _text_cache.get(key)
    if program is not None:
        _text_cache.move_to_end(key)
        return program
    from repro.ir.parser import parse_program

    program = _text_cache[key] = parse_program(text)
    if len(_text_cache) > TEXT_CACHE_SIZE:
        _text_cache.popitem(last=False)
    return program


def _resolve_program(bench: str,
                     programs: Optional[Dict[str, Program]],
                     texts: Optional[Dict[str, str]] = None) -> Program:
    if programs is not None and bench in programs:
        return programs[bench]
    if texts is not None and bench in texts:
        return _program_from_text(texts[bench])
    from repro.workloads.specint import build_benchmark

    return build_benchmark(bench)


# ----------------------------------------------------------------------
# Parallel grid path


#: A picklable work item: every cell of one (benchmark, scheme) group,
#: restricted to a half-open slice of the program's functions.  Grouping
#: keeps the serial path's work sharing inside the worker: the slice is
#: cloned and formed once, then scheduled for each (machine, heuristic)
#: cell of the group.  The fifth element is an optional textual IR dump:
#: programs that are not built-in benchmarks cross the process boundary
#: as text (the printer/parser round-trip is structure-identical).  The
#: sixth element is the region-memo directive: None = memo off, else
#: ``(store_directory_or_None, store_max_mb)`` — the worker uses its own
#: process-global memo and opens its own store handle (each sync
#: appends one checksummed batch to the shared segment, so concurrent
#: workers keep each other's entries; a record lost to a racing
#: compaction costs a recompute, never a wrong result).  The last
#: element is the
#: trace directive: None = untraced, else ``(span file template or None,
#: trace id, parent span id)`` — the worker records its task under the
#: parent's ``pool`` span and streams spans to its own per-pid file when
#: the parent exports.
_Task = Tuple[str, str, Tuple[Tuple[int, GridCell], ...], int, int,
              Optional[str], Optional[Tuple[Optional[str], float]],
              Optional[Tuple[Optional[str], Optional[str], str]]]


def _run_task(task: _Task, groups=None):
    """Pool worker: evaluate one group's cells over a function slice.

    The program is rebuilt from the benchmark name (or re-parsed from the
    shipped IR text) inside the worker; each worker process caches per
    benchmark and per text, so rebuilding is paid once per program per
    worker, not per task.  A traced task returns its tracer's per-name
    totals and the task span's duration, for the parent to fold in under
    its ``pool`` span.

    ``groups`` keeps formed groups between tasks, keyed by (program id,
    scheme spec, ``lo``, ``hi``), through ``get``, ``put`` and ``drop``
    (a serve worker passes its
    :class:`~repro.serve.service.KeptGroups`).  A task whose group is
    kept skips formation and starts from the group's tier-1 memo state;
    a task that raises drops its group.  The grid's pool passes none:
    it forms each group exactly once.
    """
    bench, scheme_spec, indexed_cells, lo, hi, text, memo_spec, trace = \
        task
    program = _resolve_program(
        bench, None, {bench: text} if text is not None else None)
    key = (id(program), scheme_spec, lo, hi)
    tracer, parent, trace_id = NULL_TRACER, None, None
    if trace is not None:
        path, trace_id, parent = trace
        tracer = Tracer(service="worker",
                        writers=(SpanWriter(path),) if path else ())
    metrics = MetricsRegistry()
    memo = None
    before = None
    if memo_spec is not None:
        from repro.schedule.memo import global_memo

        memo = global_memo()
        directory, max_mb = memo_spec
        if directory is not None:
            memo.attach_store(_worker_region_store(directory, max_mb))
        before = memo.stats()
    try:
        with evaluation_gc(), metrics_scope(metrics), \
                tracer.span("task", parent=parent, trace_id=trace_id,
                            benchmark=bench, scheme=scheme_spec,
                            functions=f"{lo}:{hi}") as span:
            group = groups.get(key) if groups is not None else None
            if group is None:
                group = _form_group(program, build_scheme(scheme_spec), lo,
                                    hi, tracer)
                if groups is not None:
                    groups.put(key, group)
            out = _evaluate_group(group, indexed_cells, tracer, memo)
    except BaseException:
        # A group whose task raised may hold half-built tier-1 state.
        if groups is not None:
            groups.drop(key)
        raise
    finally:
        # Store puts are write-back: persist what the task computed even
        # when it raises (the pool then tears its workers down).
        if memo is not None and memo.store is not None:
            memo.store.sync()
    memo_stats = None
    if memo is not None:
        after = memo.stats()
        memo_stats = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "store_hits": after["store_hits"] - before["store_hits"],
            "bytes": after["bytes"],
        }
        # High-water memo occupancy across the worker pool — explicitly
        # max-mode gauges, outside the determinism contract (occupancy
        # depends on work distribution, unlike the event counters).
        metrics.gauge("memo.entries", after["entries"], mode="max")
        metrics.gauge("memo.bytes", after["bytes"], mode="max")
    totals = None
    if trace is not None:
        tracer.close()
        totals = (tracer.self_times(), span.duration)
    return out, lo, totals, metrics.snapshot(), memo_stats


def _split_cells(cells: Sequence[GridCell], jobs: int,
                 texts: Optional[Dict[str, str]] = None,
                 memo_spec: Optional[Tuple[Optional[str], float]] = None,
                 ) -> List[tuple]:
    """Cut the grid into group×slice tasks (without the trace
    directive, which the pool appends).

    Groups with few functions stay whole; larger programs split into up
    to ``jobs`` contiguous slices so one heavy benchmark cannot starve
    the pool.
    """
    tasks: List[tuple] = []
    function_counts: Dict[str, int] = {}
    for (bench, scheme_spec), indexed in _groups(cells).items():
        text = texts.get(bench) if texts is not None else None
        count = function_counts.get(bench)
        if count is None:
            count = len(list(
                _resolve_program(bench, None, texts).functions()
            ))
            function_counts[bench] = count
        if count <= SPLIT_THRESHOLD:
            tasks.append((bench, scheme_spec, tuple(indexed), 0, count,
                          text, memo_spec))
            continue
        chunk = max(SPLIT_THRESHOLD, -(-count // jobs))
        for lo in range(0, count, chunk):
            tasks.append(
                (bench, scheme_spec, tuple(indexed), lo,
                 min(lo + chunk, count), text, memo_spec)
            )
    return tasks


def _evaluate_grid_parallel(
    cells: Sequence[GridCell],
    jobs: int,
    texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    memo=None,
    region_stats: Optional[Dict[str, int]] = None,
) -> List[CellResult]:
    memo_spec: Optional[Tuple[Optional[str], float]] = None
    if memo is not None:
        if memo.store is not None:
            memo_spec = (memo.store.directory,
                         memo.store.max_bytes / (1024 * 1024))
        else:
            memo_spec = (None, 0.0)
    tasks = _split_cells(cells, jobs, texts, memo_spec)
    traced = isinstance(tracer, Tracer)
    # Per-cell partial lists keyed by slice start, merged in function
    # order below so the float accumulation matches the serial path.
    by_cell: Dict[int, Dict[int, List[_FunctionPartial]]] = {}
    with tracer.span("pool", jobs=jobs, tasks=len(tasks)) as span:
        trace = (tracer.span_path, span.trace_id, span.span_id) \
            if traced else None
        with multiprocessing.Pool(processes=jobs) as pool:
            for out, lo, totals, snapshot, memo_stats in \
                    pool.imap_unordered(_run_task, [
                        task + (trace,) for task in tasks]):
                for index, partials in out:
                    by_cell.setdefault(index, {})[lo] = partials
                if totals is not None:
                    stages, seconds = totals
                    tracer.merge(stages, parent=span, seconds=seconds)
                metrics.merge_snapshot(snapshot)
                if memo_stats is not None and region_stats is not None:
                    region_stats["hits"] += memo_stats["hits"]
                    region_stats["misses"] += memo_stats["misses"]
                    region_stats["store_hits"] += memo_stats["store_hits"]
                    region_stats["bytes"] = max(region_stats["bytes"],
                                                memo_stats["bytes"])
                tracer.event("task_done", slice_start=lo,
                             cells=len(out))
    # The per-cell counter lives in the parent: a group split into
    # several function slices revisits each cell once per slice in the
    # workers, so counting there would overcount.
    metrics.inc("engine.cells", len(cells))
    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        slices = by_cell[index]
        ordered: List[_FunctionPartial] = []
        for lo in sorted(slices):
            ordered.extend(slices[lo])
        results.append(_merge_partials(cell, ordered))
    return results


# ----------------------------------------------------------------------


def evaluate_grid(
    cells: Iterable[GridCell],
    programs: Optional[Dict[str, Program]] = None,
    jobs: int = 1,
    program_texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    region_memo=None,
    region_store=None,
) -> List[CellResult]:
    """Evaluate every grid cell; results come back in input order.

    Args:
        cells: The grid (see :func:`default_grid`).
        programs: Optional benchmark-name → program map overriding the
            built-in workloads.  Custom programs are evaluated in the
            parent process even when ``jobs > 1`` (workers rebuild
            programs by name and cannot receive arbitrary programs).
        jobs: 1 = serial with shared-work caching (default); N > 1 = a
            pool of N worker processes; 0 = one worker per CPU.
        program_texts: Optional benchmark-name → textual IR dump map
            (:func:`repro.ir.printer.format_program`).  Unlike
            ``programs``, text *does* cross the process boundary, so
            these benchmarks fan out to workers — this is how the
            validation oracle runs generated programs through the
            parallel path.  ``programs`` wins when a name is in both.
        metrics: A :class:`repro.obs.metrics.MetricsRegistry` collecting
            pipeline counters.  Worker registries merge in commutatively,
            so serial and parallel runs of the same grid report identical
            counters/histograms (``deterministic_snapshot``).
        tracer: A :class:`repro.obs.tracer.Tracer` recording the run as
            spans: group → formation/cell → the scheduler's stages
            (serial), or a ``pool`` span with every worker's task spans
            under it (parallel).  Its
            :meth:`~repro.obs.tracer.Tracer.self_times` are the per-stage
            wall times; on the parallel path workers return their totals
            and they sum across workers.  A tracer that streams spans to
            a per-process file has the workers stream theirs beside it.
            Any other object with ``span(name, **args)`` and
            ``event(name, **args)`` works too; workers then record
            nothing.
        region_memo: The region-level result cache
            (:class:`repro.schedule.memo.RegionMemo`).  ``None`` (the
            default) uses the process-global memo; ``False`` disables
            memoization (every region runs the plain scheduler, the
            oracle's reference route); an instance is used as given.
            Memoized results are bit-identical to the direct pipeline,
            including deterministic metrics.
        region_store: Optional persistent backing for the region memo —
            an :class:`~repro.serve.store.ArtifactStore`, a directory,
            or ``(directory, max_mb)`` — attached for the duration of
            this call (workers open their own handles).  A store opened
            from a directory is closed on return.

    Every path returns results bit-identical to calling
    :func:`evaluate_cell` per cell.  The call, and each pool task, runs
    under :func:`repro.util.gc_policy.evaluation_gc`; the caller's GC
    thresholds are restored on return.
    """
    cells = list(cells)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    memo = _resolve_memo(region_memo)
    previous_store = memo.store if memo is not None else None
    # A store this call opens from a directory, it also closes.
    opened = None
    if memo is not None and region_store is not None:
        if not hasattr(region_store, "get_payload"):
            region_store = opened = _open_region_store(region_store)
        memo.attach_store(region_store)
    stats = {"hits": 0, "misses": 0, "store_hits": 0, "bytes": 0}
    before = memo.stats() if memo is not None else None
    try:
        with evaluation_gc(), \
                tracer.span("evaluate_grid", cells=len(cells), jobs=jobs):
            if jobs <= 1 or not cells:
                return _evaluate_grid_serial(cells, programs,
                                             program_texts, metrics, tracer,
                                             memo=memo)

            custom = set(programs) if programs is not None else set()
            pooled = [c for c in cells if c.benchmark not in custom]
            local = [c for c in cells if c.benchmark in custom]
            merged: Dict[int, CellResult] = {}
            if pooled:
                pooled_indices = [i for i, c in enumerate(cells)
                                  if c.benchmark not in custom]
                for position, result in enumerate(
                    _evaluate_grid_parallel(pooled, jobs,
                                            program_texts, metrics, tracer,
                                            memo=memo, region_stats=stats)
                ):
                    merged[pooled_indices[position]] = result
            if local:
                local_indices = [i for i, c in enumerate(cells)
                                 if c.benchmark in custom]
                for position, result in enumerate(
                    _evaluate_grid_serial(local, programs,
                                          program_texts, metrics, tracer,
                                          memo=memo)
                ):
                    merged[local_indices[position]] = result
            return [merged[i] for i in range(len(cells))]
    finally:
        if memo is not None:
            after = memo.stats()
            stats["hits"] += after["hits"] - before["hits"]
            stats["misses"] += after["misses"] - before["misses"]
            stats["store_hits"] += after["store_hits"] - before["store_hits"]
            stats["bytes"] = max(stats["bytes"], after["bytes"])
            if opened is not None:
                opened.close()
            elif memo.store is not None:
                memo.store.sync()
            memo.attach_store(previous_store)
            if metrics is not NULL_METRICS:
                metrics.gauge("cache.region.hits", stats["hits"])
                metrics.gauge("cache.region.misses", stats["misses"])
                metrics.gauge("cache.region.bytes", stats["bytes"])
                if stats["store_hits"]:
                    metrics.gauge("cache.region.store_hits",
                                  stats["store_hits"])
