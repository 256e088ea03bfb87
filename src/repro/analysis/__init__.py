"""Static-analysis substrate: the per-CFG analyses and what reads them.

The pieces:

* :mod:`repro.analysis.reaching` — reaching definitions as two int
  bitsets per block (may be uninitialized, may be defined) with
  must/may-uninitialized-use classification;
* :mod:`repro.analysis.liveranges` — flow-sensitive live ranges, op by
  op from :mod:`repro.ir.liveness`'s block sets: dead stores and
  interference-based register-pressure estimates;
* :mod:`repro.analysis.reachability` — constant-branch pruning and one
  breadth-first search over the executable edges: unreachable blocks;
* :mod:`repro.analysis.callgraph` — whole-program call graph with
  profile-weighted call-site ranking;
* :mod:`repro.analysis.bounds` — sound per-region lower bounds on
  schedule height (critical path + resource saturation);
* :mod:`repro.analysis.driver` — the ``repro analyze`` /
  ``repro.api.analyze_program`` driver comparing bounds to achieved
  heights.

Results of the per-CFG analyses are cached (version-keyed) through
:mod:`repro.ir.analysis_cache`; prefer its ``*_of`` accessors over
constructing these classes directly in pipeline code.
"""

from repro.analysis.bounds import RegionBounds, region_lower_bounds
from repro.analysis.callgraph import CallGraph, CallSite
from repro.analysis.driver import analyze_program, format_analysis
from repro.analysis.liveranges import DeadStore, LiveRanges
from repro.analysis.reachability import ConstBranch, Reachability
from repro.analysis.reaching import ReachingDefinitions, UninitUse

__all__ = [
    "ReachingDefinitions",
    "UninitUse",
    "LiveRanges",
    "DeadStore",
    "Reachability",
    "ConstBranch",
    "CallGraph",
    "CallSite",
    "RegionBounds",
    "region_lower_bounds",
    "analyze_program",
    "format_analysis",
]
