"""``repro top``: a live terminal dashboard over the fleet stats plane.

Curses-free by design: each refresh is one ANSI home+clear escape
followed by a full repaint, which works in any VT100-ish terminal,
inside ``tmux``, and in CI logs (where the escapes are harmless
noise).  All data comes from the ``STATS`` and ``HEALTH`` wire ops —
the dashboard is a pure *reader* of the serving system and cannot
perturb the compute path it is watching.

:func:`render_top` is the pure half (stats dict -> screen string) so
tests can assert on the rendering without a terminal or a server;
:func:`run_top` is the polling loop the CLI drives.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

from repro.serve.client import Client

#: Home the cursor + clear to end of screen (repaint without scrollback
#: spam, unlike a full ``\x1b[2J`` which some terminals flash on).
ANSI_REFRESH = "\x1b[H\x1b[J"


def _fmt_bytes(n: object) -> str:
    try:
        value = float(n)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "?"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" \
                else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"


def _fmt_us(value: object) -> str:
    if value is None:
        return "-"
    try:
        micros = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "-"
    if micros < 1000:
        return f"{micros:.0f}µs"
    if micros < 1e6:
        return f"{micros / 1e3:.1f}ms"
    return f"{micros / 1e6:.2f}s"


def render_top(stats: Dict[str, object], *,
               endpoint: str = "",
               previous: Optional[Dict[str, object]] = None,
               interval: float = 1.0) -> str:
    """One full dashboard frame from a ``STATS`` payload.

    ``previous`` (the prior poll's payload) turns monotonic counters
    into rates: requests/s is the delta of ``fleet.requests`` over the
    poll ``interval``.
    """
    lines: List[str] = []
    server = stats.get("server") or {}
    metrics = stats.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}

    uptime = server.get("uptime_seconds", 0)
    header = f"repro top — {endpoint}"
    lines.append(header)
    lines.append(
        f"server pid {server.get('pid', '?')}  "
        f"up {float(uptime):8.1f}s  "
        f"protocol v{server.get('protocol_version', '?')}  "
        f"{'CLOSED' if stats.get('closed') else 'serving'}"
    )

    rate = ""
    if previous is not None:
        prev_counters = (previous.get("metrics") or {}).get("counters") \
            or {}
        delta = counters.get("fleet.requests", 0) \
            - prev_counters.get("fleet.requests", 0)
        if interval > 0:
            rate = f"  {delta / interval:8.1f} req/s"
    lines.append(
        f"requests {counters.get('fleet.requests', 0):>8}  "
        f"completed {counters.get('fleet.completed', 0):>8}  "
        f"failed {counters.get('fleet.failed', 0):>6}  "
        f"deduped {counters.get('fleet.deduped', 0):>6}{rate}"
    )
    lines.append("")

    # -- shard table -----------------------------------------------------
    lines.append(f"{'SHARD':>5} {'UP':>4} {'GEN':>4} {'QUEUE':>6} "
                 f"{'INFLIGHT':>8} {'STORE-HIT':>9} {'STORE-MISS':>10} "
                 f"{'ENTRIES':>8}")
    for shard in stats.get("shards") or []:
        service = shard.get("service") or {}
        store = service.get("store") or {}
        lines.append(
            f"{shard.get('index', '?'):>5} "
            f"{'yes' if shard.get('up') else 'NO':>4} "
            f"{shard.get('generation', 0):>4} "
            f"{service.get('queued', 0):>6} "
            f"{service.get('inflight', 0):>8} "
            f"{store.get('hits', '-'):>9} "
            f"{store.get('misses', '-'):>10} "
            f"{store.get('entries', '-'):>8}"
        )
    lines.append("")

    # -- tiers + supervision ---------------------------------------------
    hot = stats.get("hot") or {}
    lines.append(
        f"hot tier  {hot.get('entries', 0)}/{hot.get('max', 0)} entries  "
        f"~{_fmt_bytes(hot.get('bytes', 0))}   "
        f"hits {counters.get('fleet.hot_hits', 0)}  "
        f"evictions {counters.get('fleet.hot_evictions', 0)}"
    )
    lines.append(
        f"inflight dedup {stats.get('inflight', 0)}   "
        f"restarts {counters.get('fleet.shard_restarts', 0)}  "
        f"deaths {counters.get('fleet.shard_deaths', 0)}  "
        f"retries {counters.get('fleet.shard_retries', 0)}"
    )
    memo_bits = [
        f"{name.split('.', 1)[1]} {gauges[name]:g}"
        for name in sorted(gauges) if name.startswith("memo.")
    ]
    if memo_bits:
        lines.append("region memo  " + "  ".join(memo_bits))
    group_bits = [
        f"{name.rsplit('.', 1)[1]} {counters[name]}"
        for name in ("serve.groups.formed", "serve.groups.reused")
        if name in counters
    ]
    if group_bits:
        lines.append("worker groups  " + "  ".join(group_bits))
    lines.append("")

    # -- rolling latency --------------------------------------------------
    latency = stats.get("latency") or {}
    if latency:
        lines.append(f"{'OP':>8} {'COUNT':>7} {'P50':>9} {'P95':>9} "
                     f"{'P99':>9} {'MAX':>9}   (rolling)")
        for op in sorted(latency):
            summary = latency[op] or {}
            lines.append(
                f"{op:>8} {summary.get('count', 0):>7} "
                f"{_fmt_us(summary.get('p50')):>9} "
                f"{_fmt_us(summary.get('p95')):>9} "
                f"{_fmt_us(summary.get('p99')):>9} "
                f"{_fmt_us(summary.get('max')):>9}"
            )
    else:
        lines.append("(no requests in the rolling latency window)")
    return "\n".join(lines) + "\n"


def run_top(endpoint, *, interval: float = 1.0,
            iterations: Optional[int] = None,
            stream=None, clear: bool = True,
            client: Optional[Client] = None) -> int:
    """Poll ``STATS`` and repaint until interrupted.

    ``iterations`` bounds the loop (None = forever); ``clear=False``
    appends frames instead of repainting (pipes, logs).  Returns a
    process exit code.
    """
    out = stream if stream is not None else sys.stdout
    own_client = client is None
    if client is None:
        client = Client(endpoint, client_name="repro-top")
    previous: Optional[Dict[str, object]] = None
    count = 0
    try:
        while iterations is None or count < iterations:
            began = time.perf_counter()
            try:
                stats = client.stats()
            except Exception as error:
                if clear:
                    out.write(ANSI_REFRESH)
                out.write(f"repro top — {endpoint}\n"
                          f"unreachable: {error}\n")
                out.flush()
                previous = None
            else:
                frame = render_top(stats, endpoint=str(endpoint),
                                   previous=previous, interval=interval)
                if clear:
                    out.write(ANSI_REFRESH)
                out.write(frame)
                out.flush()
                previous = stats
            count += 1
            if iterations is not None and count >= iterations:
                break
            elapsed = time.perf_counter() - began
            time.sleep(max(0.0, interval - elapsed))
    except KeyboardInterrupt:
        pass
    finally:
        if own_client:
            client.close()
    return 0
