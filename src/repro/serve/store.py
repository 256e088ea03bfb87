"""Content-addressed, disk-backed artifact store for schedule results.

A grid cell's profile-weighted estimate is a pure function of (IR,
scheme, machine, heuristic), so this store keeps it, across processes,
under a content hash of exactly those inputs (DESIGN.md §10).
:func:`cell_key` digests the store schema (repro version and format
revision), the canonical IR text (profile weights included), the
canonical scheme spec, the machine fingerprint, the heuristic and the
cell's flags.  The region memo keeps one *pack* per region content and
flags under :func:`region_key`, each (machine, heuristic) result inside
it under its :func:`region_entry_id`.

**Layout.**  The directory holds one append-only segment,
``records.seg``.  A record is a header (a marker, the CRC-32 of the data
and its length) and the data: the key, a newline and the payload's
JSON, which restates the key and the schema.  A cell result is one
record.  A region pack is the union of its records, later records
winning per entry; any other record replaces what came before it.

**Writes** are write-back: :meth:`ArtifactStore.put_payload` holds a
payload in memory and serves it to the store's own reads, and
:meth:`~ArtifactStore.sync` (or ``close``) appends every pending
record as one batch, with one ``write`` on an ``O_APPEND`` descriptor:
one record per pack, holding only the entries put since the last sync.
:meth:`~ArtifactStore.put` syncs at once.  Processes sharing a store
append to one segment and so keep each other's entries.

**Reads** go through an in-memory index, key to record spans, built by
scanning the segment at open; a read of a key it lacks first indexes
what other handles appended since.  A read is one ``pread`` per
record.  A record whose marker, length, checksum, key or schema does
not check out is skipped and counted (``serve.store.corrupt``), never
served, and the scan resumes at the next marker.

**Eviction is compaction**: past the size bound (``max_mb``), a sync
copies the records of the most recently used keys, up to half the bound
and at least the newest key, into a new file renamed over the segment;
each key left out counts in ``serve.store.evictions``.  An append that
races a compaction can be lost with the old file, which costs a
recompute, never a wrong answer.

Hit/miss/evict/corrupt totals flow into the active :mod:`repro.obs`
metrics registry and are kept on the instance
(:meth:`ArtifactStore.stats`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.evaluation.engine import CellResult, GridCell, machine_by_name
from repro.evaluation.schemes import SchemeSpec
from repro.obs.metrics import current_metrics
# Canonical definition lives with the region fingerprints; re-exported
# here so cell keys and region keys agree on what "the same machine"
# means.
from repro.schedule.fingerprint import machine_fingerprint  # noqa: F401

#: Revision of the on-disk format.  Bump when the record layout or the
#: JSON shape of an entry changes; old entries then key differently and
#: age out.
STORE_FORMAT = 3

#: Default size bound (in MiB) when a caller does not pass one.
DEFAULT_MAX_MB = 256

#: The ``kind`` of a region pack: the records holding a region's result
#: for every (machine, heuristic).
REGION_PACK_KIND = "region-pack"

#: The segment file inside a store directory.
SEGMENT_NAME = "records.seg"

#: A record header: marker, CRC-32 of the data, length of the data.  The
#: marker's first byte is not ASCII, and keys and JSON bodies are, so a
#: scan past a damaged record finds the next record by its marker.
_HEADER = struct.Struct("<4sII")
_MAGIC = b"\x8fRS\x03"

#: How many bytes a scan reads at a time, and the most a record may
#: claim (a damaged length must not make the scan read gigabytes).
_CHUNK = 1 << 20
_MAX_RECORD = 1 << 26


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

    The region-granular :func:`cell_key`: the region fingerprint replaces
    the program text, and the scheme, machine and heuristic drop out
    (equal content schedules identically; the pack holds every
    (machine, heuristic)).  A ``region-pack`` tag keeps the keyspace
    apart from cell keys.  A non-default backend keys with its node
    budget, on which an exact result depends.
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
    return {
        "schema": store_schema(),
        "key": key,
        "cell": dict(vars(result.cell)),
        "time": result.time,
        "code_expansion": result.code_expansion,
        "schedule_lengths": list(result.schedule_lengths),
        "total_copies": result.total_copies,
        "total_merged": result.total_merged,
        "total_speculated": result.total_speculated,
    }


def result_from_payload(payload: Dict[str, object]) -> CellResult:
    return CellResult(
        cell=GridCell(**payload["cell"]),
        time=payload["time"],
        code_expansion=payload["code_expansion"],
        schedule_lengths=tuple(payload["schedule_lengths"]),
        total_copies=payload["total_copies"],
        total_merged=payload["total_merged"],
        total_speculated=payload["total_speculated"],
    )


def _frame(key: str, body: bytes) -> bytes:
    """One record: header, then key, newline and ``body``."""
    data = key.encode("ascii") + b"\n" + body
    return _HEADER.pack(_MAGIC, zlib.crc32(data), len(data)) + data


def _merged(older: Optional[Dict[str, object]],
            newer: Dict[str, object]) -> Dict[str, object]:
    """``newer`` over ``older``: two packs union their entries, newer
    winning per entry; anything else replaces what came before."""
    if older is None or newer.get("kind") != REGION_PACK_KIND or \
            older.get("kind") != REGION_PACK_KIND:
        return newer
    return dict(newer, entries={**pack_entries(older),
                                **pack_entries(newer)})


class ArtifactStore:
    """A content-addressed result cache rooted at ``directory``.

    Safe to share between processes and threads: records are
    checksummed, reads validate the restated key and schema, and a stale
    index only costs a miss.  The store holds the segment open until
    :meth:`close`.
    """

    def __init__(self, directory: str,
                 max_mb: float = DEFAULT_MAX_MB) -> None:
        self.directory = directory
        self.max_bytes = int(max_mb * 1024 * 1024)
        self.segment_path = os.path.join(directory, SEGMENT_NAME)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        #: key -> (offset, size) of its records in segment order; least
        #: recently used key first.
        self._index: "OrderedDict[str, List[Tuple[int, int]]]" = \
            OrderedDict()
        #: key -> stamped payload not yet appended.
        self._pending: Dict[str, Dict[str, object]] = {}
        self._lock = threading.RLock()
        self._file = None
        self._open()

    # -- the segment ----------------------------------------------------

    def _open(self) -> None:
        """(Re)open the segment and index it from the start."""
        if self._file is not None:
            self._file.close()
        os.makedirs(self.directory, exist_ok=True)
        self._file = open(self.segment_path, "a+b", buffering=0)
        self._inode = os.fstat(self._file.fileno()).st_ino
        self._index.clear()
        #: Offset up to which the segment is indexed.
        self._end = 0
        self._scan()

    def _refresh(self) -> None:
        """Index a segment another handle compacted from its start, else
        what was appended since the last scan."""
        try:
            replaced = os.stat(self.segment_path).st_ino != self._inode
        except OSError:
            replaced = True
        if replaced:
            self._open()
        else:
            self._scan()

    def _count(self, counter: str, value: int = 1) -> None:
        setattr(self, counter, getattr(self, counter) + value)
        current_metrics().inc(f"serve.store.{counter}", value)

    def _add(self, key: str, offset: int, size: int) -> None:
        self._index.setdefault(key, []).append((offset, size))
        self._index.move_to_end(key)

    def _scan(self) -> None:
        """Index the records from the last scanned offset to the end,
        reading a chunk at a time.

        A bad record is counted corrupt once per damaged stretch, which
        ends at the next marker.  A record that runs past the end with
        no marker after it is a torn tail or an append in flight, which
        look the same: it waits for the next scan, and is counted once
        a record follows it.
        """
        fd = self._file.fileno()
        size = os.fstat(fd).st_size
        pos = self._end
        window, base = b"", pos
        damaged = False
        while pos + _HEADER.size <= size:
            if pos + _HEADER.size > base + len(window):
                window, base = os.pread(fd, _CHUNK, pos), pos
            magic, crc, length = _HEADER.unpack_from(window, pos - base)
            end = pos + _HEADER.size + length
            if magic == _MAGIC and end <= size and length <= _MAX_RECORD:
                if end > base + len(window):
                    window, base = os.pread(fd, max(_CHUNK, end - pos),
                                            pos), pos
                data = window[pos - base + _HEADER.size:end - base]
                newline = data.find(b"\n")
                if zlib.crc32(data) == crc and newline > 0 and \
                        data[:newline].isascii():
                    self._add(data[:newline].decode("ascii"), pos,
                              end - pos)
                    pos, damaged = end, False
                    continue
            following = self._next_marker(pos + 1, size)
            if following is None and magic == _MAGIC and end > size:
                break
            if not damaged:
                self._count("corrupt")
            damaged = True
            pos = size if following is None else following
        self._end = pos

    def _next_marker(self, pos: int, size: int) -> Optional[int]:
        """The offset of the first record marker in ``[pos, size)``."""
        while pos < size:
            chunk = os.pread(self._file.fileno(), min(_CHUNK, size - pos),
                             pos)
            found = chunk.find(_MAGIC)
            if found >= 0:
                return pos + found
            pos += max(len(chunk) - len(_MAGIC) + 1, 1)
        return None

    def _record(self, key: str, span: Tuple[int, int]
                ) -> Optional[Dict[str, object]]:
        """The payload one record of ``key`` holds, or None: a record
        whose bytes, key or schema do not check out is dropped from the
        index and counted corrupt."""
        data = os.pread(self._file.fileno(), span[1], span[0])
        prefix = key.encode("ascii") + b"\n"
        try:
            magic, crc, length = _HEADER.unpack_from(data)
            body = data[_HEADER.size:]
            if magic != _MAGIC or length != len(body) or \
                    zlib.crc32(body) != crc or not body.startswith(prefix):
                raise ValueError("damaged record")
            payload = json.loads(body[len(prefix):].decode("utf-8"))
            if not isinstance(payload, dict) or payload.get("key") != key \
                    or payload.get("schema") != store_schema():
                raise ValueError("payload/key mismatch")
        except (ValueError, struct.error, RecursionError):
            self._index[key].remove(span)
            if not self._index[key]:
                del self._index[key]
            self._count("corrupt")
            return None
        return payload

    # -- the cache interface --------------------------------------------

    def _read(self, key: str, decode):
        """``decode(payload)`` for the payload under ``key`` (its records
        merged in segment order, the pending payload over them), or None
        (a miss).  A payload ``decode`` rejects is corrupt."""
        with self._lock:
            if key not in self._index:
                self._refresh()
            payload = None
            for span in tuple(self._index.get(key, ())):
                record = self._record(key, span)
                if record is not None:
                    payload = _merged(payload, record)
            if key in self._pending:
                payload = _merged(payload, self._pending[key])
            try:
                value = None if payload is None else decode(payload)
            except (ValueError, KeyError, TypeError, RecursionError):
                self._index.pop(key, None)
                self._pending.pop(key, None)
                self._count("corrupt")
                value = None
            if value is None:
                self._count("misses")
                return None
            if key in self._index:
                self._index.move_to_end(key)
            self._count("hits")
            return value

    def get(self, key: str) -> Optional[CellResult]:
        """The stored result under ``key``, or None (miss)."""
        return self._read(key, result_from_payload)

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """The raw JSON payload under ``key``, or None (miss).

        Validated like :meth:`get`; a region pack comes back as the
        union of its records.  Interpreting the rest is the caller's
        business (the region memo reads its packs through this).  A
        pending payload may be served as held: callers must not mutate
        it.
        """
        return self._read(key, lambda payload: payload)

    def put(self, key: str, result: CellResult) -> None:
        """Store ``result`` under ``key`` and append it now."""
        self.put_payload(key, result_to_payload(key, result))
        self.sync()

    def put_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Store a JSON payload under ``key``, write-back.

        A copy with the schema string and the key stamped in is held
        until the next :meth:`sync`.  A region pack put under a key with
        one pending merges into it, so the memo puts one entry at a time
        and a sync still appends one record per pack.
        """
        stamped = dict(payload, schema=store_schema(), key=key)
        with self._lock:
            self._pending[key] = _merged(self._pending.get(key), stamped)
        current_metrics().inc("serve.store.puts")

    # -- maintenance ----------------------------------------------------

    def sync(self) -> None:
        """Append every pending payload as one batch, then compact if the
        segment has outgrown the bound."""
        with self._lock:
            if self._pending:
                self._append()
            if self._end > self.max_bytes:
                self._compact()

    def _append(self) -> None:
        batch, spans = bytearray(), []
        for key, payload in self._pending.items():
            record = _frame(key, json.dumps(payload).encode())
            spans.append((key, len(batch), len(record)))
            batch += record
        self._pending.clear()
        self._refresh()
        fd = self._file.fileno()
        start = self._end
        os.write(fd, batch)
        if os.fstat(fd).st_size != start + len(batch):
            self._scan()  # another handle appended too
            return
        for key, offset, size in spans:
            self._add(key, start + offset, size)
        self._end = start + len(batch)

    def _compact(self) -> None:
        """Keep the records of the most recently used keys, up to half
        the bound and at least one key, in a new file renamed over the
        segment."""
        self._refresh()
        kept: List[str] = []
        total = 0
        for key in reversed(self._index):
            size = sum(length for _, length in self._index[key])
            if kept and total + size > self.max_bytes // 2:
                break
            kept.append(key)
            total += size
        evicted = len(self._index) - len(kept)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                for key in reversed(kept):
                    for offset, size in self._index[key]:
                        handle.write(os.pread(self._file.fileno(), size,
                                              offset))
            os.replace(tmp, self.segment_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._open()
        if evicted:
            self._count("evictions", evicted)

    def close(self) -> None:
        """Append what is pending and release the segment."""
        with self._lock:
            if not self._file.closed:
                self.sync()
                self._file.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index.keys() | self._pending.keys())

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key not in self._pending and key not in self._index:
                self._refresh()
            return key in self._pending or key in self._index

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._index.keys() | self._pending.keys()))

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "bytes": self._end,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
