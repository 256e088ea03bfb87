"""Region-level memoization in front of the scheduling pipeline.

The evaluation grid schedules the same regions over and over: the four
heuristic columns of one cell row share bit-identical prep/renaming
output and (per machine) bit-identical DDGs, and different cells — even
different runs — often schedule regions with identical *content*.  This
module exploits both, in two tiers.  Neither tier has a pipeline of its
own: every miss runs the scheduler's stages
(:func:`~repro.schedule.scheduler.prepare`,
:func:`~repro.schedule.scheduler.dependences`,
:func:`~repro.schedule.scheduler.schedule_prepared`), and the memo only
decides which stage outputs it can reuse.  Options are validated by
:func:`~repro.schedule.scheduler.check_options` before any lookup, so a
bad option raises here exactly as on the direct route.

**Tier 1 — in-process structural sharing** (``id(region)``-keyed, held
in a :class:`GroupState`).  A group state belongs to one formed group, a
(program, scheme, function slice): :meth:`RegionMemo.begin_group`
installs a fresh one for a new formation, or puts a kept one back for a
group whose formed regions outlived an earlier task (a serve worker
keeps them, :mod:`repro.serve.service`).  Its keys stay valid as long
as the state lives beside the regions it was built over:

* prep + renaming depend on the machine only through ``use_btr``
  (:mod:`repro.schedule.prep` reads nothing else from the model), so one
  prepared :class:`~repro.schedule.prep.ScheduleProblem` serves every
  machine of a row that agrees on it — both paper machines do.  The
  list scheduler (dominator parallelism included) and the exact backend
  return a :class:`~repro.schedule.schedule.ScheduleRecord` and write
  nothing to the problem, so it is shared as it is;
* the DDG and the four heuristics' priority keys read the machine only
  through its latency table
  (:func:`~repro.schedule.fingerprint.latency_fingerprint`), so they are
  built once per (region, latency model) — 4U and 8U share one build;
* likewise each heuristic's priority order, kept as a tuple of op
  indices per (region, latency model, heuristic): 4U and 8U share one
  sort;
* the list scheduler reads only the problem, the DDG, the machine,
  the order and the dominator-parallelism flag, so a finished
  schedule's entry is kept per (region, machine, flags, order).
  Heuristics often sort a small region the same way; the second such
  probe reuses the first schedule instead of rerunning it;
* the region's content fingerprint and its exits' weights are read
  once per region, not once per (machine, heuristic) cell.

A probe that reuses a schedule still counts as a **miss** (``hits`` and
``store_hits`` are untouched), counts the schedule's counter record and
stores its tier-2 entry and pack entry under its own key.

**Tier 2 — content-addressed result memo** (global, optionally
disk-backed): the full pipeline result is a pure function of
``(region content, machine, heuristic, flags)``, keyed by
:func:`repro.schedule.fingerprint.region_fingerprint` ×
:func:`~repro.schedule.fingerprint.machine_fingerprint`.  A hit skips
the pipeline entirely.  Every probe that is not a bypass, hit or
miss, returns a :class:`RegionSummary` carrying exactly what the engine
consumes (weighted time, length, copy/merge/speculation counts): no
:class:`~repro.schedule.schedule.RegionSchedule` is built.  With an
artifact store attached (:meth:`RegionMemo.attach_store`), entries
persist across processes in one *pack* per region content and flags
(:func:`repro.serve.store.region_key`), each (machine, heuristic)
under its :func:`~repro.serve.store.region_entry_id`.  After an
in-memory miss the memo reads the pack once per group (a table cleared
by :meth:`~RegionMemo.begin_group` and
:meth:`~RegionMemo.attach_store`), and each probe decodes its own
entry.  A miss puts its one entry, which the store appends with the
pack's other new entries on the caller's
:meth:`~repro.serve.store.ArtifactStore.sync`.

**Bit-identity.**  Summaries reproduce the direct path exactly:

* ``weighted_time`` is *recomputed* on every hit from the live region's
  exit weights (``sum(exit.weight * cycle)`` in exit order — the same
  float accumulation as
  :attr:`~repro.schedule.schedule.RegionSchedule.weighted_time`), never
  stored, because the fingerprint quantizes weights with ``%g`` while
  the estimate uses full-precision floats.  The weights are captured
  once per region per group, with its fingerprint; they are the live
  weights, because nothing mutates a formed group's IR;
* every entry keeps the region's
  :class:`~repro.schedule.scheduler.RegionCounts` record, and every
  probe, hit or miss, counts it with
  :func:`~repro.schedule.scheduler.count_region`, as the direct route
  counts each region — so memo-on, memo-off, serial, and parallel runs
  of one grid report identical counters and histograms;
* a store object that is not a pack is an empty pack; a pack entry
  whose exit count differs from the live region's, or whose figures are
  not non-negative ints, is a miss, and the recomputed entry replaces it
  in the pack.

**Bypasses** (served by :func:`~repro.schedule.scheduler.schedule_region`,
never cached): ``options.certify`` or an active lint collector (caller
wants diagnostics, not numbers), and non-default ``max_cycles``.  Every
region kind and every other option goes through both tiers:
hyperblocks run the same stages (a hyperblock has no copies, so its
``schedule_copies`` flag is read as off in every key), and dominator
parallelism shares the
prepared problem, DDG, priority keys and orders with the cells without
it (its finished schedules key on the flag, as tier 2 does).  The exact
backend shares the prepared problem and DDG but never the order and
schedule tables: it searches from the priority keys, and its results
key separately.

Tier-2 keys assume the region's blocks/ops/weights do not change between
fingerprinting and scheduling — true for the engine, which never mutates
IR once it is formed, kept or not.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import replace
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ir.liveness import LivenessInfo
from repro.lint.collect import current_collector
from repro.machine.model import MachineModel
from repro.obs.tracer import NULL_TRACER
from repro.regions.hyperblock import Hyperblock
from repro.regions.region import Region
from repro.schedule.fingerprint import (
    latency_fingerprint,
    machine_fingerprint,
    region_fingerprint,
)
from repro.schedule.priorities import all_priority_keys, priority_order
from repro.schedule.scheduler import (
    RegionCounts,
    ScheduleOptions,
    check_options,
    count_region,
    dependences,
    prepare,
    schedule_prepared,
    schedule_region,
)

#: Tier-2 entry bound; one entry is a few hundred bytes, so the default
#: caps the in-memory memo around a few tens of MiB worst case.
DEFAULT_MAX_ENTRIES = 1 << 16

_DEFAULT_MAX_CYCLES = ScheduleOptions().max_cycles

#: The record fields every entry holds (exact-backend entries: all).
_FIELDS = tuple(name for name in RegionCounts._fields
                if not name.startswith("exact_"))
_EXACT_FIELDS = RegionCounts._fields

#: ``len(json.dumps(...))`` of a payload with no exit cycles and no
#: record fields.
_EMPTY_PAYLOAD_SIZE = len(json.dumps({"kind": "region", "exit_cycles": []}))
#: What a present record field adds besides its figure: ``, "name": ``.
_FIELD_SIZES = tuple(len(name) + 6 for name in RegionCounts._fields)


def _payload_size(exit_cycles: Sequence[int], counts: RegionCounts) -> int:
    """``len(json.dumps(payload, sort_keys=True))`` of an entry's
    payload, without encoding it: JSON writes an int as ``str`` does and
    a list of ints as ``str`` writes a Python list."""
    size = _EMPTY_PAYLOAD_SIZE - 2 + len(str(list(exit_cycles)))
    for field_size, value in zip(_FIELD_SIZES, counts):
        if value is not None:
            size += field_size + len(str(value))
    return size


class RegionSummary(NamedTuple):
    """What the engine consumes from one region's schedule: the slice of
    :class:`~repro.schedule.schedule.RegionSchedule` it reads, so cached
    and fresh regions flow through the same accumulation code."""

    weighted_time: float
    length: int
    copy_count: int
    merged_count: int
    speculated_count: int


class _Level2Entry:
    """A memoized pipeline result: the exit cycles and the region's
    counter record."""

    __slots__ = ("exit_cycles", "counts", "size")

    def __init__(self, exit_cycles: Tuple[int, ...], counts: RegionCounts):
        self.exit_cycles = exit_cycles
        self.counts = counts
        self.size = _payload_size(exit_cycles, counts)

    def payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": "region",
            "exit_cycles": list(self.exit_cycles),
        }
        for name, value in zip(RegionCounts._fields, self.counts):
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def of(cls, record, counts: RegionCounts) -> "_Level2Entry":
        """The entry for a fresh
        :class:`~repro.schedule.schedule.ScheduleRecord` and its counter
        record."""
        return cls(record.exit_cycles, counts)

    @classmethod
    def from_payload(cls, payload, exit_count: int,
                     exact: bool) -> Optional["_Level2Entry"]:
        """The entry a store payload holds, or None when there is none
        (``payload`` is None) or it is corrupt: not a region object, one
        exit cycle per region exit (``exit_count``) or every record field
        (the ``exact_*`` ones too when ``exact``) missing, or a figure
        that is not a non-negative int."""
        if not isinstance(payload, dict) or payload.get("kind") != "region":
            return None
        cycles = payload.get("exit_cycles")
        if not isinstance(cycles, list) or len(cycles) != exit_count:
            return None
        fields = _EXACT_FIELDS if exact else _FIELDS
        values: List[object] = [payload.get(name) for name in fields]
        if not all(type(v) is int and v >= 0 for v in cycles + values):
            return None
        return cls(tuple(cycles), RegionCounts(*values))


class GroupState:
    """Tier 1 of one formed group: its stage outputs, keyed by the ids of
    the group's regions.

    A state is only valid beside the regions it was built over; whoever
    keeps it past a task keeps those regions alive with it.
    """

    __slots__ = ("problems", "ddgs", "regions", "orders", "schedules")

    def __init__(self) -> None:
        #: Stage outputs by key.
        self.problems: Dict[Tuple, object] = {}
        self.ddgs: Dict[Tuple, object] = {}
        #: id(region) -> (region, content fingerprint, exit weights in
        #: exit order); the region reference pins the id.
        self.regions: Dict[int, Tuple[Region, str, Tuple[float, ...]]] = {}
        #: (id(region), latency fp, sc, heuristic) -> priority order as
        #: a tuple of op indices.
        self.orders: Dict[Tuple, Tuple[int, ...]] = {}
        #: (id(region), machine fp, sc, dp, order) -> the entry of a
        #: finished schedule.
        self.schedules: Dict[Tuple, _Level2Entry] = {}


class RegionMemo:
    """Two-tier memo for :func:`repro.schedule.scheduler.schedule_region`.

    One instance per process is the intended shape (see
    :func:`global_memo`); tier 1 must be scoped to a formed group with
    :meth:`begin_group`, tier 2 is content-addressed and safe forever.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 store=None) -> None:
        self.max_entries = max_entries
        #: Tier 2: (region fp, machine fp, heuristic, dp, sc) -> entry,
        #: LRU-ordered (oldest first).
        self._entries: "OrderedDict[Tuple, _Level2Entry]" = OrderedDict()
        #: (region fp, dp, sc[, backend, budget]) -> (store key, the
        #: pack's entries by entry id): each pack is read once per group.
        self._packs: Dict[Tuple, Tuple[str, Dict[str, object]]] = {}
        #: (machine fp, heuristic) -> entry id inside a pack.
        self._entry_ids: Dict[Tuple[str, str], str] = {}
        #: (fingerprint function, id(machine)) -> (machine, fingerprint);
        #: the strong reference pins the id, so reuse cannot alias a
        #: collected model.
        self._fps: Dict[Tuple, Tuple[MachineModel, str]] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.store_hits = 0
        self.bytes = 0
        self.store = store
        self.begin_group()

    # ------------------------------------------------------------------

    def begin_group(self, state: Optional[GroupState] = None
                    ) -> GroupState:
        """Install tier 1 for a group and return its state: a fresh
        :class:`GroupState` for a new formation (``id(region)`` keys must
        not outlive their region objects), or ``state`` when the caller
        kept one with the group's formed regions.  The pack table is
        cleared either way."""
        if state is None:
            state = GroupState()
        self._problems = state.problems
        self._ddgs = state.ddgs
        self._regions = state.regions
        self._orders = state.orders
        self._schedules = state.schedules
        self._packs.clear()
        return state

    def attach_store(self, store) -> None:
        """Back tier 2 with an artifact store (``None`` detaches).

        Entries reach the disk only on the store's
        :meth:`~repro.serve.store.ArtifactStore.sync` or ``close()``:
        the memo puts packs write-back and never syncs itself (the
        engine syncs after each grid and each pool task)."""
        self.store = store
        self._packs.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "store_hits": self.store_hits,
            "bytes": self.bytes,
            "entries": len(self._entries),
        }

    # ------------------------------------------------------------------

    def _fingerprint(self, function, machine: MachineModel) -> str:
        key = (function, id(machine))
        cached = self._fps.get(key)
        if cached is None:
            cached = self._fps[key] = (machine, function(machine))
        return cached[1]

    def _remember(self, key: Tuple, entry: _Level2Entry) -> None:
        entries = self._entries
        previous = entries.pop(key, None)
        if previous is not None:
            self.bytes -= previous.size
        entries[key] = entry
        self.bytes += entry.size
        while len(entries) > self.max_entries:
            _, evicted = entries.popitem(last=False)
            self.bytes -= evicted.size

    @staticmethod
    def _bypass(options: ScheduleOptions) -> bool:
        return (
            options.certify
            or current_collector() is not None
            or options.max_cycles != _DEFAULT_MAX_CYCLES
        )

    # ------------------------------------------------------------------

    def schedule(
        self,
        region: Region,
        machine: MachineModel,
        options: ScheduleOptions,
        liveness: LivenessInfo,
        tracer=NULL_TRACER,
    ):
        """Schedule ``region`` through the memo.

        Returns a :class:`RegionSummary` on every probe, hit or miss, and
        a full :class:`~repro.schedule.schedule.RegionSchedule` only on a
        bypass (:func:`~repro.schedule.scheduler.schedule_region` ran).
        Both expose the accumulation attributes the engine reads.
        """
        check_options(region, options)
        if options.schedule_copies and isinstance(region, Hyperblock):
            options = replace(options, schedule_copies=False)
        if self._bypass(options):
            self.bypasses += 1
            return schedule_region(region, machine, options, liveness,
                                   tracer=tracer)

        fingerprint, weights = self._region(region, liveness)
        key = (
            fingerprint,
            self._fingerprint(machine_fingerprint, machine),
            options.heuristic,
            options.dominator_parallelism,
            options.schedule_copies,
        )
        # The exact backend is a different pure function of the same
        # inputs (and its result additionally depends on the node
        # budget), so its entries key separately.  This tier-2 key keeps
        # the machine and heuristic for the in-memory table; in the
        # store they pick the entry (region_entry_id) inside the pack
        # that the rest of the key names (region_key).
        if options.backend != "heuristic":
            key = key + (options.backend, options.exact_budget)

        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        elif self.store is not None:
            store_key, pack = self._pack(key)
            entry_id = self._entry_id(key[1], options.heuristic)
            entry = _Level2Entry.from_payload(
                pack.get(entry_id), len(weights),
                exact=options.backend == "exact")
            if entry is not None:
                self.store_hits += 1
                self._remember(key, entry)

        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
            entry = self._miss(region, machine, key[1], options, liveness,
                               tracer)
            self._remember(key, entry)
            if self.store is not None:
                pack[entry_id] = entry.payload()
                self._put_entry(store_key, entry_id, pack[entry_id])
        count_region(entry.counts)
        # Weighted time is recomputed from the *live* exit weights in
        # exit order — the fingerprint's %g quantization never leaks
        # into the estimate, and the float accumulation matches
        # RegionSchedule.weighted_time exactly.
        weighted_time = sum(map(mul, weights, entry.exit_cycles))
        counts = entry.counts
        return RegionSummary(weighted_time, counts.length, counts.copy_count,
                             counts.merged_count, counts.speculated_count)

    # Importing the store module loads the whole serve package, which a
    # memo without a store never needs: the helpers import it on use.

    def _pack(self, key: Tuple) -> Tuple[str, Dict[str, object]]:
        """The store key and entries of the region pack a tier-2 key
        falls in, read from the store once per group.  A payload that is
        not a pack is an empty pack."""
        content = (key[0],) + key[3:]
        cached = self._packs.get(content)
        if cached is None:
            from repro.serve.store import pack_entries, region_key

            store_key = region_key(*content)
            cached = self._packs[content] = (store_key, dict(
                pack_entries(self.store.get_payload(store_key))))
        return cached

    def _put_entry(self, store_key: str, entry_id: str,
                   payload: Dict[str, object]) -> None:
        """Put one pack entry; the store appends it with the pack's other
        new entries on its next sync."""
        from repro.serve.store import region_pack

        self.store.put_payload(store_key, region_pack({entry_id: payload}))

    def _entry_id(self, machine_fp: str, heuristic: str) -> str:
        """The pack entry id of one (machine, heuristic), computed once
        per pair."""
        entry_id = self._entry_ids.get((machine_fp, heuristic))
        if entry_id is None:
            from repro.serve.store import region_entry_id

            entry_id = self._entry_ids[machine_fp, heuristic] = \
                region_entry_id(machine_fp, heuristic)
        return entry_id

    # ------------------------------------------------------------------

    def _region(self, region: Region, liveness: LivenessInfo
                ) -> Tuple[str, Tuple[float, ...]]:
        """The region's content fingerprint and its exits' weights,
        computed once per group."""
        cached = self._regions.get(id(region))
        if cached is None:
            cached = self._regions[id(region)] = (
                region, region_fingerprint(region, liveness),
                tuple(exit.weight for exit in region.exits()))
        return cached[1], cached[2]

    @staticmethod
    def _shared(table: Dict, key: Tuple, build):
        """Tier-1 lookup: ``build()`` runs once per key."""
        if key not in table:
            table[key] = build()
        return table[key]

    def _prepared(self, region, machine, liveness, sc, ddg_key, tracer):
        """Stages 1 and 2 through the tier-1 tables: the problem, its
        copies, the DDG and every heuristic's priority keys."""
        problem, copies = self._shared(
            self._problems, (id(region), machine.use_btr, sc),
            lambda: prepare(region, machine, liveness, sc, tracer))

        def build_ddg_and_keys():
            ddg = dependences(problem, machine, liveness, copies, tracer)
            with tracer.span("priorities"):
                return ddg, all_priority_keys(problem, ddg)

        ddg, keys = self._shared(self._ddgs, ddg_key, build_ddg_and_keys)
        return problem, copies, ddg, keys

    def _miss(self, region, machine, machine_key, options, liveness,
              tracer):
        """Run the scheduler's stages for one tier-2 miss, with tier-1
        sharing in front of them, and return the entry.

        When the group already scheduled this region for this machine
        with the same flags in the same priority order, that schedule's
        entry is returned,
        counter record included: the list scheduler reads nothing else.
        """
        sc = options.schedule_copies
        # Keyed by latency fingerprint, not full machine fingerprint:
        # DDG edges, priority keys and hence priority orders read the
        # machine only through latencies, so 4U and 8U share them.
        ddg_key = (id(region), self._fingerprint(latency_fingerprint,
                                                 machine), sc)
        order = None
        # The exact backend searches from the keys, not one order, and
        # keys its results separately: it never uses the order and
        # schedule tables.
        if options.backend == "heuristic":
            order_key = ddg_key + (options.heuristic,)
            order = self._orders.get(order_key)
            if order is None:
                problem, _, ddg, keys = self._prepared(
                    region, machine, liveness, sc, ddg_key, tracer)
                with tracer.span("priorities"):
                    order = self._orders[order_key] = tuple(
                        sop.index for sop in priority_order(
                            problem, ddg, options.heuristic,
                            keys=keys[options.heuristic]))
            schedule_key = (id(region), machine_key, sc,
                            options.dominator_parallelism, order)
            entry = self._schedules.get(schedule_key)
            if entry is not None:
                return entry

        problem, copies, ddg, keys = self._prepared(
            region, machine, liveness, sc, ddg_key, tracer)
        ops = problem.sched_ops
        entry = _Level2Entry.of(*schedule_prepared(
            problem, ddg, copies, machine, options, keys=keys,
            order=None if order is None else [ops[i] for i in order],
            tracer=tracer))
        if order is not None:
            self._schedules[schedule_key] = entry
        return entry


# ----------------------------------------------------------------------
# The process-global memo (what the engine uses by default)

_GLOBAL_MEMO: Optional[RegionMemo] = None


def global_memo() -> RegionMemo:
    """The process-wide region memo (created on first use)."""
    global _GLOBAL_MEMO
    if _GLOBAL_MEMO is None:
        _GLOBAL_MEMO = RegionMemo()
    return _GLOBAL_MEMO
