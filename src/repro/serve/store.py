"""Content-addressed, disk-backed artifact store for schedule results.

Every ``repro run/bench/report`` invocation recompiles, re-forms, and
re-schedules from scratch; the PR-1 analysis cache is in-memory and dies
with the process.  This store makes the expensive half of a grid cell —
formation plus scheduling plus estimation — durable across processes:
the profile-weighted schedule estimate is a pure function of (IR,
scheme, machine, heuristic), so its result can be memoized under a
content hash of exactly those inputs.

**Key derivation.**  A cell result is keyed by :func:`cell_key`: the
SHA-256 digest of

* the store schema string (:func:`store_schema` — repro version plus a
  payload-format revision, so an upgraded tool never reads stale
  payload shapes);
* the canonical textual IR of the program
  (:func:`repro.ir.printer.format_program` — block and edge profile
  weights are part of the text, so re-profiled programs key
  differently);
* the canonical scheme spec (``str(SchemeSpec.parse(...))``, so
  aliases of one spec share an entry);
* the machine fingerprint (:func:`machine_fingerprint` — name, issue
  width, the full latency table, and the structural knobs);
* the heuristic name and the two :class:`ScheduleOptions` flags a
  :class:`~repro.evaluation.engine.GridCell` carries.

The region memo's *pack* of one region is keyed by :func:`region_key`:
the schema, a ``region-pack`` tag, the region's content fingerprint,
the two flags and, for a non-default backend, the backend and its
budget.  Inside the pack, each (machine, heuristic) result sits under
its :func:`region_entry_id`, a short digest of the machine fingerprint
and the heuristic.

**Layout**: ``<dir>/objects/<key[:2]>/<key>.json`` holds one JSON
payload per key (the key is restated inside the payload and checked
on read): one cell result, or one region's pack of every (machine,
heuristic) entry.  ``<dir>/index.json`` records sizes and LRU clocks,
and is rewritten only when an entry was added, dropped or touched.
Puts are write-back: the store holds a payload in memory, serves it
to its own reads, and writes it once, on :meth:`ArtifactStore.sync` or
:meth:`ArtifactStore.close` (:meth:`ArtifactStore.put` syncs at once;
the region memo's packs wait for the caller's sync).  Writes go through
a temp file in the same directory followed by ``os.replace``, so a
reader never observes a torn file.  Concurrent writers of one cell
result race atomically — last write wins.  A pending pack is merged
with the pack on disk as it is written, so processes sharing a store
keep each other's entries; only two syncs of one pack that interleave
between that read and the rename can still drop entries, which costs a
later recompute, never a wrong answer.

**Eviction**: the store is LRU size-bounded (``max_mb``); exceeding the
bound evicts least-recently-used entries until it fits and counts them
(``serve.store.evictions``).  A missing, unparsable or malformed index
is rebuilt by scanning the object tree; an unreadable, unparsable,
non-object or wrong-key object file is deleted and served as a miss
(``serve.store.corrupt``) — corruption can cost time, never wrong
answers.

Hit/miss/evict/corrupt totals flow into the active
:mod:`repro.obs` metrics registry and are also kept on the instance
(:meth:`ArtifactStore.stats`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, Optional, Tuple

from repro.evaluation.engine import CellResult, GridCell, machine_by_name
from repro.evaluation.schemes import SchemeSpec
from repro.obs.metrics import current_metrics
# Canonical definition lives with the region fingerprints; re-exported
# here so cell keys and region keys agree on what "the same machine"
# means.
from repro.schedule.fingerprint import machine_fingerprint  # noqa: F401

#: Revision of the on-disk payload shape.  Bump when the JSON layout of
#: an entry changes; old entries then key differently and age out.
STORE_FORMAT = 2

#: Default size bound (in MiB) when a caller does not pass one.
DEFAULT_MAX_MB = 256

#: The ``kind`` of a region pack: one object holding a region's result
#: for every (machine, heuristic).
REGION_PACK_KIND = "region-pack"


@functools.cache
def store_schema() -> str:
    """The schema/version string mixed into every key and payload
    (computed once per process)."""
    from repro import __version__

    return f"repro-{__version__}/store-{STORE_FORMAT}"


def _digest(parts) -> str:
    """SHA-256 hex digest of the parts, each UTF-8 encoded and ended by
    a NUL byte."""
    return hashlib.sha256(
        ("\x00".join(parts) + "\x00").encode("utf-8")).hexdigest()


def cell_key(program_text: str, cell: GridCell) -> str:
    """SHA-256 key of one (program, scheme, machine, heuristic) cell."""
    parts = [
        store_schema(),
        program_text,
        str(SchemeSpec.parse(cell.scheme)),
        machine_fingerprint(machine_by_name(cell.machine)),
        cell.heuristic,
        f"dp={int(cell.dominator_parallelism)}",
        f"sc={int(cell.schedule_copies)}",
    ]
    # Appended only when non-default so historical keys stay valid.
    backend = getattr(cell, "backend", "heuristic")
    if backend != "heuristic":
        parts.append(f"backend={backend}")
    return _digest(parts)


def region_key(
    region_fp: str,
    dominator_parallelism: bool,
    schedule_copies: bool,
    backend: str = "heuristic",
    exact_budget: int = 0,
) -> str:
    """SHA-256 key of one region's result pack.

    The region-granular analogue of :func:`cell_key`: the program text is
    replaced by :func:`repro.schedule.fingerprint.region_fingerprint` and
    the scheme disappears entirely (whatever former produced the region,
    equal content schedules identically).  The machine and heuristic are
    not in the key: one object holds the region's result for every
    (machine, heuristic), each under its :func:`region_entry_id`.  A
    ``region-pack`` tag keeps the keyspace disjoint from cell keys even
    under hash-input coincidence.

    Non-default backends key separately: an exact result depends on the
    node budget (a larger budget may prove a shorter schedule), so the
    budget is part of the key.
    """
    parts = [
        store_schema(),
        "region-pack",
        region_fp,
        f"dp={int(dominator_parallelism)}",
        f"sc={int(schedule_copies)}",
    ]
    if backend != "heuristic":
        parts.append(f"backend={backend}:budget={exact_budget}")
    return _digest(parts)


def region_entry_id(machine_fp: str, heuristic: str) -> str:
    """The name of one (machine, heuristic) result inside a region pack:
    a short digest of the machine fingerprint and the heuristic."""
    return _digest(("region-entry", machine_fp, heuristic))[:16]


def region_pack(entries: Dict[str, object]) -> Dict[str, object]:
    """The payload of a region pack holding ``entries`` (by entry id)."""
    return {"kind": REGION_PACK_KIND, "entries": entries}


def pack_entries(payload: object) -> Dict[str, object]:
    """The entries of a region pack payload.  Anything that is not a
    pack (no payload, another kind, ``entries`` not an object) is an
    empty pack; interpreting each entry is the region memo's business."""
    if isinstance(payload, dict) and payload.get("kind") == REGION_PACK_KIND:
        entries = payload.get("entries")
        if isinstance(entries, dict):
            return entries
    return {}


def result_to_payload(key: str, result: CellResult) -> Dict[str, object]:
    """Full-fidelity JSON payload for one :class:`CellResult`.

    Floats serialize via ``repr`` (shortest round-trip), so a stored
    result deserializes bit-identical to the one computed fresh.
    """
    cell = result.cell
    return {
        "schema": store_schema(),
        "key": key,
        "cell": {
            "benchmark": cell.benchmark,
            "scheme": cell.scheme,
            "machine": cell.machine,
            "heuristic": cell.heuristic,
            "dominator_parallelism": cell.dominator_parallelism,
            "schedule_copies": cell.schedule_copies,
            "backend": getattr(cell, "backend", "heuristic"),
        },
        "time": result.time,
        "code_expansion": result.code_expansion,
        "schedule_lengths": list(result.schedule_lengths),
        "total_copies": result.total_copies,
        "total_merged": result.total_merged,
        "total_speculated": result.total_speculated,
    }


def result_from_payload(payload: Dict[str, object]) -> CellResult:
    cell = payload["cell"]
    return CellResult(
        cell=GridCell(
            benchmark=cell["benchmark"],
            scheme=cell["scheme"],
            machine=cell["machine"],
            heuristic=cell["heuristic"],
            dominator_parallelism=cell["dominator_parallelism"],
            schedule_copies=cell["schedule_copies"],
            backend=cell.get("backend", "heuristic"),
        ),
        time=payload["time"],
        code_expansion=payload["code_expansion"],
        schedule_lengths=tuple(payload["schedule_lengths"]),
        total_copies=payload["total_copies"],
        total_merged=payload["total_merged"],
        total_speculated=payload["total_speculated"],
    )


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _parse_index(raw) -> Optional[Tuple[int, Dict[str, Tuple[int, int]]]]:
    """The (clock, entries) of a well-formed ``index.json`` document, or
    None: each key alphanumeric (a file name inside the object tree) and
    mapped to a [size, clock] pair of non-negative ints."""
    if not (isinstance(raw, dict) and _is_count(raw.get("clock"))
            and isinstance(raw.get("entries"), dict)):
        return None
    entries = raw["entries"]
    if not all(key.isascii() and key.isalnum() and isinstance(entry, list)
               and len(entry) == 2 and all(map(_is_count, entry))
               for key, entry in entries.items()):
        return None
    return raw["clock"], {key: tuple(entry) for key, entry in entries.items()}


class ArtifactStore:
    """A content-addressed result cache rooted at ``directory``.

    Safe to open from several processes at once: object writes are
    atomic renames, reads validate the restated key, and the index is
    advisory (a stale index only costs recency fidelity, never
    correctness — a missing object is a miss, an unindexed object is
    re-adopted on the next :meth:`put` scan).  A :meth:`put_payload` is
    held in memory, served to this instance's reads, and written by the
    next :meth:`sync`; a pending region pack is merged with the pack on
    disk then, so concurrent writers keep each other's entries.
    """

    def __init__(self, directory: str,
                 max_mb: float = DEFAULT_MAX_MB) -> None:
        self.directory = directory
        self.max_bytes = int(max_mb * 1024 * 1024)
        self.objects_dir = os.path.join(directory, "objects")
        self.index_path = os.path.join(directory, "index.json")
        os.makedirs(self.objects_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        #: key -> (size_bytes, last_used_clock)
        self._index: Dict[str, Tuple[int, int]] = {}
        self._clock = 0
        #: key -> stamped payload not yet written (write-back).
        self._pending: Dict[str, Dict[str, object]] = {}
        #: Whether the index changed since it was last loaded or saved.
        self._dirty = False
        self._load_index()

    # -- index persistence ---------------------------------------------

    def _load_index(self) -> None:
        try:
            with open(self.index_path) as handle:
                raw = json.load(handle)
        except (OSError, ValueError, RecursionError):
            raw = None
        loaded = _parse_index(raw)
        if loaded is None:
            self._rebuild_index()
        else:
            self._clock, self._index = loaded

    def _rebuild_index(self) -> None:
        """Re-adopt whatever object files exist (index lost/corrupt)."""
        self._index = {}
        self._clock = 0
        for key, path in sorted(self._iter_objects()):
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            self._clock += 1
            self._index[key] = (size, self._clock)
        self._save_index()

    def _iter_objects(self) -> Iterable[Tuple[str, str]]:
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[:-5], os.path.join(shard_dir, name)

    def _save_index(self) -> None:
        payload = {
            "schema": store_schema(),
            "clock": self._clock,
            "entries": {key: list(entry)
                        for key, entry in self._index.items()},
        }
        self._atomic_write(self.index_path,
                           json.dumps(payload, sort_keys=True))
        self._dirty = False

    def _atomic_write(self, path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- object paths ---------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def _drop(self, key: str, counter: Optional[str] = None) -> None:
        self._index.pop(key, None)
        self._pending.pop(key, None)
        self._dirty = True
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
            current_metrics().inc(f"serve.store.{counter}")

    # -- the cache interface --------------------------------------------

    def _load(self, key: str) -> Tuple[Dict[str, object], int]:
        """The payload on disk under ``key`` and its size in bytes.
        Raises OSError (no file) or ValueError (not a JSON object
        restating ``key`` and the schema)."""
        with open(self._object_path(key), "rb", buffering=0) as handle:
            data = handle.read()
        # Objects are written as ASCII JSON: decode as UTF-8 (a bad byte
        # is a ValueError) and skip json's encoding detection.
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict) or payload.get("key") != key or \
                payload.get("schema") != store_schema():
            raise ValueError("payload/key mismatch")
        return payload, len(data)

    def _read(self, key: str, decode):
        """``decode(payload)`` for the payload under ``key``, or None (a
        miss).  A payload :meth:`_load` rejects, or that ``decode``
        rejects, is corrupt.  A pending payload is served as it was put,
        without touching the disk."""
        payload = self._pending.get(key)
        size = 0
        try:
            if payload is None:
                payload, size = self._load(key)
            value = decode(payload)
        except OSError:
            # No file: a plain miss (drop any stale index entry).
            if self._index.pop(key, None) is not None:
                self._dirty = True
        except (ValueError, KeyError, TypeError, RecursionError):
            self._drop(key, "corrupt")
        else:
            self._clock += 1
            size = self._index.get(key, (0, 0))[0] or size
            self._index[key] = (size, self._clock)
            self._dirty = True
            self.hits += 1
            current_metrics().inc("serve.store.hits")
            return value
        self.misses += 1
        current_metrics().inc("serve.store.misses")
        return None

    def get(self, key: str) -> Optional[CellResult]:
        """The stored result under ``key``, or None (miss)."""
        return self._read(key, result_from_payload)

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """The raw JSON payload under ``key``, or None (miss).

        The schema and restated key are validated like :meth:`get`;
        interpreting the rest of the payload is the caller's business
        (the region memo stores its packs through this, cell results
        keep using :meth:`get`/:meth:`put`).  A pending payload is served
        as held, not copied: callers must not mutate it.
        """
        return self._read(key, lambda payload: payload)

    def put(self, key: str, result: CellResult) -> None:
        """Store ``result`` under ``key`` and write it now (atomic; last
        writer wins)."""
        self.put_payload(key, result_to_payload(key, result))
        self.sync()

    def put_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Store a JSON payload under ``key``, write-back.

        The schema string and the key are stamped into a copy of the
        payload so reads can validate them.  The copy is held in memory
        and served to this store's reads; the object write, eviction
        sweep and index write wait for the next :meth:`sync` — the
        region memo rewrites a region's pack once per result, far too
        often for one disk write each.
        """
        stamped = dict(payload)
        stamped["schema"] = store_schema()
        stamped["key"] = key
        self._clock += 1
        self._index[key] = (self._index.get(key, (0, 0))[0], self._clock)
        self._pending[key] = stamped
        self._dirty = True
        current_metrics().inc("serve.store.puts")

    def _write(self, key: str, payload: Dict[str, object]) -> int:
        """Write one object file; returns its size."""
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = json.dumps(payload, sort_keys=True)
        self._atomic_write(path, text)
        return len(text)

    def _evict_to_fit(self) -> None:
        """Drop least-recently-used entries (lowest clock first; equal
        clocks in index order) until the total fits, keeping at least
        one."""
        index = self._index
        total = self.total_bytes()
        if total <= self.max_bytes:
            return
        for victim in sorted(index, key=lambda k: index[k][1]):
            if total <= self.max_bytes or len(index) <= 1:
                break
            total -= index[victim][0]
            self._drop(victim, "evictions")

    # -- maintenance ----------------------------------------------------

    def sync(self) -> None:
        """Write every pending payload, evict to fit, and persist the
        index if it changed since it was last written.

        A pending region pack is first merged with the pack on disk:
        entries another process wrote since this one read the pack are
        kept, and this store's entries win where both hold one."""
        for key, payload in self._pending.items():
            if payload.get("kind") == REGION_PACK_KIND:
                try:
                    on_disk = self._load(key)[0]
                except (OSError, ValueError, RecursionError):
                    on_disk = None
                entries = pack_entries(on_disk)
                if entries:
                    entries = {**entries, **pack_entries(payload)}
                    payload = {**payload, "entries": entries}
            self._index[key] = (self._write(key, payload),
                                self._index[key][1])
        self._pending.clear()
        self._evict_to_fit()
        if self._dirty:
            self._save_index()

    def close(self) -> None:
        self.sync()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._pending or \
            os.path.exists(self._object_path(key))

    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._index))

    def total_bytes(self) -> int:
        return sum(size for size, _ in self._index.values())

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._index),
            "bytes": self.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
