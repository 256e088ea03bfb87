"""Version-keyed per-CFG analysis cache.

Scheduling one program under several schemes, machines, and heuristics
would recompute the same liveness sets, dominator trees, and register
bounds over and over — each region scheduled would walk the full CFG
just to reserve registers, and each scheme would recompute liveness on
a CFG nothing has touched.  This module memoizes those function-level
analyses keyed on :attr:`repro.ir.cfg.CFG.version`, the mutation
counter every structural edit bumps (builder emits, parser appends,
optimizer rewrites, tail duplication, superblock formation).  The
op-granular live ranges build on the cached liveness, not a second one.

The invalidation contract is simple and strict:

* every mutation of blocks, edges, or op lists bumps ``cfg.version``
  (the mutating CFG methods do it automatically; direct editors call
  :meth:`~repro.ir.cfg.CFG.bump_version`);
* a cached value is served only while its recorded version matches the
  CFG's current version — otherwise it is recomputed on the spot.

Entries are held in ``WeakKeyDictionary``s so a CFG that goes away takes
its cached analyses with it; the cache never extends object lifetimes.
Because a long campaign (a multi-thousand-seed ``validate`` run) can
keep many CFGs alive at once, each table is additionally bounded to
``max_entries`` live CFGs: inserting past the cap evicts the least-
recently-used entry (counted in :attr:`AnalysisCache.evictions`,
published as the ``cache.evictions`` gauge) — the same recency policy
the disk-backed artifact store uses (:mod:`repro.serve.store`).
Eviction only ever costs a recompute, never correctness.

Profile weights are deliberately *not* part of the version: liveness,
dominators, and register bounds are structural and do not read weights,
so re-profiling a program keeps every cached analysis valid.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TypeVar
from weakref import WeakKeyDictionary

from repro.ir.cfg import CFG
from repro.ir.dominators import DominatorTree
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.registers import CLASSES, INDEX_BITS, RANKS, Register
from repro.ir.types import RegClass

T = TypeVar("T")


def _register_bounds(cfg: CFG) -> Dict[RegClass, int]:
    """Highest register index + 1 per class, over every op of the CFG.

    This is the whole-CFG scan ``prepare_region`` used to repeat per
    region; scanning once per CFG version makes per-region preparation
    O(region) instead of O(function).
    """
    # Registers compare as ``rank << INDEX_BITS | index``: per rank, the
    # largest register carries the class's highest index.
    top = [0] * len(CLASSES)
    for block in cfg.blocks():
        for op in block.ops:
            for reg in op.dests:
                if reg > top[reg >> INDEX_BITS]:
                    top[reg >> INDEX_BITS] = reg
            for reg in op.srcs:
                if isinstance(reg, Register) and reg > top[reg >> INDEX_BITS]:
                    top[reg >> INDEX_BITS] = reg
            reg = op.guard
            if reg is not None and reg > top[reg >> INDEX_BITS]:
                top[reg >> INDEX_BITS] = reg
    bounds = {}
    for rclass in RegClass:
        highest = top[RANKS[rclass]]
        bounds[rclass] = highest.index + 1 if highest else 0
    return bounds


#: Default per-table bound on live CFG entries.  Each entry is one
#: function's analysis results, so this comfortably covers every
#: program of a whole evaluation grid while capping a validate
#: campaign's growth.
DEFAULT_MAX_ENTRIES = 1024


class AnalysisCache:
    """Memoized per-CFG analyses, invalidated by the CFG version counter.

    ``max_entries`` bounds each analysis table to that many live CFGs;
    the least recently used entry is evicted on overflow.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max(1, max_entries)
        self._liveness: "WeakKeyDictionary[CFG, Tuple[int, LivenessInfo, int]]" = \
            WeakKeyDictionary()
        self._dominators: "WeakKeyDictionary[CFG, Tuple[int, DominatorTree, int]]" = \
            WeakKeyDictionary()
        self._reg_bounds: "WeakKeyDictionary[CFG, Tuple[int, Dict[RegClass, int], int]]" = \
            WeakKeyDictionary()
        # Tables for the repro.analysis subsystem.  Same LRU and same
        # cfg.version invalidation contract; hits/misses/evictions are
        # counted separately (the cache.analysis.* gauges) so the
        # Observability report can tell scheduler-feeding lookups from
        # lint/analyze-feeding ones.  Reaching definitions additionally
        # key on the declared parameter list (it shapes the boundary
        # value), and the call graph is program-keyed on the tuple of
        # member CFG versions.
        self._reaching: "WeakKeyDictionary[CFG, Tuple[object, object, int]]" = \
            WeakKeyDictionary()
        self._live_ranges: "WeakKeyDictionary[CFG, Tuple[object, object, int]]" = \
            WeakKeyDictionary()
        self._reachability: "WeakKeyDictionary[CFG, Tuple[object, object, int]]" = \
            WeakKeyDictionary()
        self._call_graph: "WeakKeyDictionary[object, Tuple[object, object, int]]" = \
            WeakKeyDictionary()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.analysis_evictions = 0
        self._tick = 0

    # ------------------------------------------------------------------

    def _get(
        self,
        table: "WeakKeyDictionary[CFG, Tuple[int, T, int]]",
        cfg: CFG,
        compute: Callable[[CFG], T],
    ) -> T:
        self._tick += 1
        entry = table.get(cfg)
        if entry is not None and entry[0] == cfg.version:
            self.hits += 1
            table[cfg] = (entry[0], entry[1], self._tick)
            return entry[1]
        self.misses += 1
        value = compute(cfg)
        table[cfg] = (cfg.version, value, self._tick)
        if len(table) > self.max_entries:
            self.evictions += self._evict_lru(table)
        return value

    def _get_analysis(self, table, key_obj, version, compute):
        """Like :meth:`_get` but with an explicit version key and the
        ``analysis_*`` counters (``key_obj`` is the weak table key)."""
        self._tick += 1
        entry = table.get(key_obj)
        if entry is not None and entry[0] == version:
            self.analysis_hits += 1
            table[key_obj] = (entry[0], entry[1], self._tick)
            return entry[1]
        self.analysis_misses += 1
        value = compute()
        table[key_obj] = (version, value, self._tick)
        if len(table) > self.max_entries:
            self.analysis_evictions += self._evict_lru(table)
        return value

    def _evict_lru(
        self, table: "WeakKeyDictionary[CFG, Tuple[int, T, int]]",
    ) -> int:
        evicted = 0
        while len(table) > self.max_entries:
            victim = None
            oldest = None
            for cfg, (_, _, used) in table.items():
                if oldest is None or used < oldest:
                    victim, oldest = cfg, used
            if victim is None:
                break
            del table[victim]
            evicted += 1
        return evicted

    def liveness(self, cfg: CFG) -> LivenessInfo:
        """Live-variable analysis for ``cfg``, cached per version."""
        return self._get(self._liveness, cfg, compute_liveness)

    def dominators(self, cfg: CFG) -> DominatorTree:
        """Dominator tree for ``cfg``, cached per version."""
        return self._get(self._dominators, cfg, DominatorTree)

    def register_bounds(self, cfg: CFG) -> Dict[RegClass, int]:
        """Per-class next-free register indices, cached per version."""
        return self._get(self._reg_bounds, cfg, _register_bounds)

    # ------------------------------------------------------------------
    # repro.analysis results (imported lazily: the analysis package is
    # optional at IR-import time and pulls in regions/machine modules).

    def reaching(self, function):
        """Reaching definitions for one function, cached per
        (cfg.version, params) — the parameter list shapes the boundary."""
        from repro.analysis.reaching import ReachingDefinitions

        cfg = function.cfg
        params = tuple(function.params)
        return self._get_analysis(
            self._reaching, cfg, (cfg.version, params),
            lambda: ReachingDefinitions(cfg, params),
        )

    def live_ranges(self, cfg: CFG):
        """Op-granular live ranges, cached per version."""
        from repro.analysis.liveranges import LiveRanges

        return self._get_analysis(
            self._live_ranges, cfg, cfg.version, lambda: LiveRanges(cfg),
        )

    def reachability(self, cfg: CFG):
        """Const-aware reachability, cached per version."""
        from repro.analysis.reachability import Reachability

        return self._get_analysis(
            self._reachability, cfg, cfg.version,
            lambda: Reachability(cfg),
        )

    def call_graph(self, program):
        """Whole-program call graph, keyed on every member CFG version.

        Adding or removing a function changes the version tuple, so the
        graph also invalidates on program-shape changes.
        """
        from repro.analysis.callgraph import CallGraph

        version = tuple(
            (fn.name, fn.cfg.version) for fn in program.functions()
        )
        return self._get_analysis(
            self._call_graph, program, version, lambda: CallGraph(program),
        )

    # ------------------------------------------------------------------

    def invalidate(self, cfg: Optional[CFG] = None) -> None:
        """Drop cached entries for one CFG, or everything when None."""
        if cfg is None:
            self._liveness.clear()
            self._dominators.clear()
            self._reg_bounds.clear()
            self._reaching.clear()
            self._live_ranges.clear()
            self._reachability.clear()
            self._call_graph.clear()
        else:
            self._liveness.pop(cfg, None)
            self._dominators.pop(cfg, None)
            self._reg_bounds.pop(cfg, None)
            self._reaching.pop(cfg, None)
            self._live_ranges.pop(cfg, None)
            self._reachability.pop(cfg, None)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.analysis_evictions = 0


#: Process-wide cache used by the scheduler and the evaluation engine.
#: Correctness never depends on sharing it — the version check makes a
#: stale hit impossible — so module-level state is safe here, and each
#: worker process of the parallel engine simply grows its own.
GLOBAL_CACHE = AnalysisCache()


def liveness_of(cfg: CFG) -> LivenessInfo:
    return GLOBAL_CACHE.liveness(cfg)


def dominators_of(cfg: CFG) -> DominatorTree:
    return GLOBAL_CACHE.dominators(cfg)


def register_bounds_of(cfg: CFG) -> Dict[RegClass, int]:
    return GLOBAL_CACHE.register_bounds(cfg)


def reaching_definitions_of(function):
    """Cached :class:`repro.analysis.reaching.ReachingDefinitions`."""
    return GLOBAL_CACHE.reaching(function)


def live_ranges_of(cfg: CFG):
    """Cached :class:`repro.analysis.liveranges.LiveRanges`."""
    return GLOBAL_CACHE.live_ranges(cfg)


def reachability_of(cfg: CFG):
    """Cached :class:`repro.analysis.reachability.Reachability`."""
    return GLOBAL_CACHE.reachability(cfg)


def call_graph_of(program):
    """Cached :class:`repro.analysis.callgraph.CallGraph`."""
    return GLOBAL_CACHE.call_graph(program)


def invalidate(cfg: Optional[CFG] = None) -> None:
    GLOBAL_CACHE.invalidate(cfg)


def record_cache_metrics(metrics, cache: Optional[AnalysisCache] = None) -> None:
    """Publish a cache's hit/miss totals as gauges.

    Gauges, not counters: the totals are process-local (each parallel
    worker grows its own :data:`GLOBAL_CACHE`) and depend on execution
    mode, so they sit outside the serial/parallel determinism contract.
    """
    cache = cache if cache is not None else GLOBAL_CACHE
    metrics.gauge("cache.hits", cache.hits)
    metrics.gauge("cache.misses", cache.misses)
    metrics.gauge("cache.evictions", cache.evictions)
    metrics.gauge("cache.analysis.hits", cache.analysis_hits)
    metrics.gauge("cache.analysis.misses", cache.analysis_misses)
    metrics.gauge("cache.analysis.evictions", cache.analysis_evictions)
