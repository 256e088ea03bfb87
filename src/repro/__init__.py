"""repro — a reproduction of *Treegion Scheduling for Wide Issue
Processors* (Havanki, Banerjia, Conte; HPCA 1998).

The package implements the paper's contribution — treegions and treegion
scheduling — together with every substrate the evaluation needs: a
Playdoh-style VLIW IR, a small C-like frontend (minic), a profiling
interpreter, linear-region baselines (basic blocks, SLRs, superblocks),
the four scheduling heuristics, tail duplication with the paper's limits,
dominator parallelism, a cycle-accurate VLIW schedule simulator, and the
profile-weighted performance estimator.

Typical use::

    from repro import (
        compile_source, profile_program, form_treegions,
        schedule_region, ScheduleOptions, VLIW_4U,
    )

    program = compile_source(open("prog.mc").read())
    profile_program(program, inputs=[[42]])
    fn = program.entry_function
    partition = form_treegions(fn.cfg)
    for region in partition:
        schedule = schedule_region(region, VLIW_4U,
                                   ScheduleOptions(heuristic="global_weight"))
        print(schedule.format())

Subpackages:

======================  ==================================================
``repro.core``          treegions: formation (Fig. 2) + tail dup (Fig. 11)
``repro.schedule``      DDG, heuristics, renaming, list scheduler
``repro.regions``       region framework + linear baselines
``repro.ir``            the VLIW IR (ops, CFG, dominators, liveness, text)
``repro.lang``          the minic frontend
``repro.interp``        sequential interpreter + profiler
``repro.vliw``          VLIW schedule simulator (co-simulation oracle)
``repro.machine``       machine models (1U baseline, 4U, 8U)
``repro.evaluation``    schemes, estimator, speedups
``repro.workloads``     synthetic SPECint95 stand-ins + paper CFGs
``repro.api``           the stable typed facade (start here)
``repro.validate``      seeded differential validation + minimizer
``repro.obs``           one span model (totals, JSONL, Chrome) + metrics
======================  ==================================================
"""

#: Kept in sync with pyproject.toml; the authoritative value when the
#: package is installed comes from the distribution metadata below.
_FALLBACK_VERSION = "1.0.0"


def _detect_version() -> str:
    """Package version from installed metadata, or the source fallback.

    Service clients and artifact-store cache keys report this string
    (see :func:`repro.serve.store.store_schema`), so results produced
    by different tool versions never alias.  Source checkouts run from
    ``PYTHONPATH=src`` without installed metadata; they use the
    fallback constant.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - py<3.8 never reaches here
        return _FALLBACK_VERSION
    try:
        return version("repro")
    except PackageNotFoundError:
        return _FALLBACK_VERSION


__version__ = _detect_version()

from repro.core import (
    Treegion,
    TreegionLimits,
    form_treegions,
    form_treegions_td,
)
from repro.ir import (
    CFG,
    BasicBlock,
    CompareCond,
    Function,
    IRBuilder,
    Opcode,
    Operation,
    Program,
    RegClass,
    Register,
    format_function,
    format_program,
    parse_program,
    verify_program,
)
from repro.interp import (
    Interpreter,
    InterpreterError,
    Profiler,
    StepLimitExceeded,
    profile_program,
    run_program,
)
from repro.machine import (
    PAPER_MACHINES,
    SCALAR_1U,
    VLIW_4U,
    VLIW_8U,
    MachineModel,
    universal_machine,
)
from repro.regions import (
    Region,
    RegionPartition,
    SuperblockLimits,
    form_basic_block_regions,
    form_slrs,
    form_superblocks,
    partition_stats,
)
from repro.schedule import (
    HEURISTICS,
    RegionSchedule,
    ScheduleOptions,
    schedule_region,
)
from repro.schedule.scheduler import schedule_partition
from repro.evaluation import (
    baseline_time,
    bb_scheme,
    evaluate_program,
    slr_scheme,
    speedup_over_baseline,
    superblock_scheme,
    treegion_scheme,
    treegion_td_scheme,
)
from repro.vliw import VLIWSimulator, schedule_program
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    current_metrics,
    metrics_scope,
)
from repro.opt import optimize_function, optimize_program
from repro import api
from repro.api import (
    CellResult,
    GridCell,
    SchemeSpec,
    SchemeSpecError,
    compile_source,
    evaluate_cell,
    evaluate_grid,
    load_program,
    make_scheme,
    simulate,
)
from repro.regions.hyperblock import (
    Hyperblock,
    HyperblockLimits,
    form_hyperblocks,
)
from repro.evaluation.schemes import hyperblock_scheme
from repro.dynamic import DynamicParams, collect_trace, simulate_trace
from repro.workloads import (
    SPECINT95,
    build_benchmark,
    build_paper_example,
    build_suite,
)
from repro.workloads.minic_programs import (
    build_minic_program,
    minic_program_names,
)

__all__ = [
    "__version__",
    # core
    "Treegion", "TreegionLimits", "form_treegions", "form_treegions_td",
    # ir
    "CFG", "BasicBlock", "CompareCond", "Function", "IRBuilder", "Opcode",
    "Operation", "Program", "RegClass", "Register", "format_function",
    "format_program", "parse_program", "verify_program",
    # interp / lang
    "Interpreter", "InterpreterError", "StepLimitExceeded", "Profiler",
    "profile_program", "run_program", "compile_source",
    # machine
    "PAPER_MACHINES", "SCALAR_1U", "VLIW_4U", "VLIW_8U", "MachineModel",
    "universal_machine",
    # regions
    "Region", "RegionPartition", "SuperblockLimits",
    "form_basic_block_regions", "form_slrs", "form_superblocks",
    "partition_stats",
    # schedule
    "HEURISTICS", "RegionSchedule", "ScheduleOptions", "schedule_region",
    "schedule_partition",
    # evaluation
    "baseline_time", "bb_scheme", "evaluate_program", "slr_scheme",
    "speedup_over_baseline", "superblock_scheme", "treegion_scheme",
    "treegion_td_scheme",
    # vliw
    "VLIWSimulator", "schedule_program", "simulate",
    # typed facade (repro.api) — validate() stays under repro.api to not
    # shadow the repro.validate subpackage
    "api", "load_program", "make_scheme", "SchemeSpec", "SchemeSpecError",
    "evaluate_grid", "evaluate_cell", "GridCell", "CellResult",
    # observability
    "MetricsRegistry", "NULL_METRICS", "Tracer", "NULL_TRACER",
    "current_metrics", "metrics_scope",
    # optimizer
    "optimize_function", "optimize_program",
    # hyperblocks
    "Hyperblock", "HyperblockLimits", "form_hyperblocks",
    "hyperblock_scheme",
    # dynamic scheduling
    "DynamicParams", "collect_trace", "simulate_trace",
    # workloads
    "SPECINT95", "build_benchmark", "build_paper_example", "build_suite",
    "build_minic_program", "minic_program_names",
]
