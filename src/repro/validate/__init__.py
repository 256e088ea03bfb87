"""Differential validation: generate → cross-check → shrink.

The paper's claims rest on independent executions of the same program
agreeing — the sequential interpreter, the VLIW simulator and the
static schedule estimate — and the repo promises the same results on
every evaluation route (per-cell, serial, parallel, artifact store,
region memo).  This package stress-tests both with seeded random
programs:

* :mod:`repro.validate.generator` — deterministic random well-formed IR
  and mini-C programs (branches, loops, calls, predication, memory,
  pathological CFG shapes), terminating by construction;
* :mod:`repro.validate.oracle` — the differential checks per grid cell
  (scheme × machine × heuristic), and the route table (``ROUTES``) every
  sampled program runs through;
* :mod:`repro.validate.shrink` — delta-debugging minimizer producing
  structured JSON failure reports;
* :mod:`repro.validate.runner` — seed fan-out campaigns behind
  ``repro validate``.

Caught real: the PR that introduced this package used it to find (and
fix) the scheduler silently stripping guards from pre-predicated input
ops in ``schedule/prep.py``.
"""

from repro.validate.generator import GeneratedProgram, generate
from repro.validate.oracle import (
    Cell,
    DEFAULT_HEURISTICS,
    DEFAULT_MACHINES,
    DEFAULT_SCHEMES,
    Mismatch,
    OracleReport,
    ROUTES,
    Route,
    check_generated,
    check_routes,
    default_grid,
)
from repro.validate.shrink import FailureReport, Shrinker, minimize_failure
from repro.validate.runner import (
    SeedOutcome,
    ValidationSummary,
    parse_grid_spec,
    run_validation,
    write_reports,
)

__all__ = [
    "GeneratedProgram",
    "generate",
    "Cell",
    "Mismatch",
    "OracleReport",
    "ROUTES",
    "Route",
    "check_generated",
    "check_routes",
    "default_grid",
    "DEFAULT_SCHEMES",
    "DEFAULT_MACHINES",
    "DEFAULT_HEURISTICS",
    "FailureReport",
    "Shrinker",
    "minimize_failure",
    "SeedOutcome",
    "ValidationSummary",
    "parse_grid_spec",
    "run_validation",
    "write_reports",
]
