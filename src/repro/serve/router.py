"""Content-key request routing for the compile fleet.

The PR-5/6 store keys are SHA-256 content hashes of everything a result
depends on, which makes sharding correct by construction: a request's
key fully determines its answer, so *any* placement policy that is a
pure function of the key gives every replica of a request the same
owner — no coordination, no session state, no rebalancing protocol.
:class:`KeyRouter` uses the first 16 hex digits of the key modulo the
shard count; SHA-256 output is uniform, so shard load balances to the
law of large numbers over distinct keys.

Changing the shard count remaps roughly ``(N-1)/N`` of the keyspace.
That is deliberate — the fleet compensates with *warm-replica reads*
(a key's new owner probes the other shards' stores on a miss and
adopts the entry), so a resize costs one cross-shard read per moved
key, not a recompute.
"""

from __future__ import annotations

from typing import Dict

from repro.serve.jobs import JobRequest
from repro.serve.store import cell_key

#: Per-process cache of built-in benchmark texts (format_program of the
#: built workload), so keying a benchmark cell builds it at most once.
_builtin_texts: Dict[str, str] = {}


def _builtin_text(name: str) -> str:
    text = _builtin_texts.get(name)
    if text is None:
        from repro.ir.printer import format_program
        from repro.workloads.specint import build_benchmark

        text = format_program(build_benchmark(name))
        _builtin_texts[name] = text
    return text


def resolve_program_text(request: JobRequest) -> str:
    """The canonical IR text a request is keyed by."""
    if request.program_text is not None:
        return request.program_text
    return _builtin_text(request.cell.benchmark)


def request_key(request: JobRequest) -> str:
    """The content key one request routes (and dedups) by."""
    return cell_key(resolve_program_text(request), request.cell)


class KeyRouter:
    """Stable content-key -> shard-index mapping."""

    __slots__ = ("shards",)

    #: Hex digits of the key consulted for placement (64 bits — far
    #: beyond any realistic shard count).
    PREFIX = 16

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"a fleet needs at least one shard: {shards}")
        self.shards = shards

    def shard_for(self, key: str) -> int:
        """Owning shard of ``key`` (uniform, stateless, stable)."""
        return int(key[:self.PREFIX], 16) % self.shards

    def __repr__(self) -> str:
        return f"KeyRouter(shards={self.shards})"
