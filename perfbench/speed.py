"""Host-speed scaling: times expressed at the speed of a reference loop.

The shared virtual machines this benchmark runs on change speed by up
to 1.8x in spells from seconds to minutes, for every workload at once.
A run of ten to thirty seconds catches a different share of slow spells
each time, and that share, not the program, set most of the run-to-run
spread of every timing.

So the benchmark times fixed loops of its own between stretches of the
program's work, a fraction of a second apart, and scales each stretch
by ``REFERENCE_S`` over the loops' time around it.  A timing then reads
as it would on a host that runs the loops in exactly ``REFERENCE_S``; a
program that does more or slower work still reads slower, because the
loops never call into the program.  The raw times are kept beside the
scaled ones in each run's record line.

The loops imitate the kinds of work the program does, since a slow
spell does not slow every kind alike: plain interpreter work, copying
an object graph (as ``ir.clone`` does), and list-scheduling a small
dependence graph.  Over four minutes of a cold grid group timed between
samples, in 10-second blocks, the raw block times spread 0.20 (third
minus first quartile over the median); scaled by the interpreter loop
alone 0.079, by the scheduling loop 0.071, by the three together 0.057.
"""

from __future__ import annotations

import copy
import gc
import random
import statistics
from time import perf_counter
from typing import Dict, List

#: The reference loops' time, as a geometric mean, on the host the
#: scaled times refer to.  On the two-vCPU Xeon virtual machine the
#: benchmark was built on, a sample took 0.8 ms at the fast end (tenth
#: percentile) and 1.2 ms at the median.
REFERENCE_S = 1.0e-3

#: Each loop's sample is the median of this many back-to-back runs.
#: A median, not the fastest: a slow spell often alternates fast and
#: slow moments faster than the program's laps, and the program runs
#: through both; the fastest run would see only the fast ones.
REFERENCE_REPEATS = 3

_TABLE = tuple((i * 2654435761) & 0xFFFF for i in range(1024))


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, value: int) -> int:
    cell.value = (cell.value + value) & 0xFFFFFF
    return cell.value


def interpreter_loop() -> int:
    """Indexing, branches, attribute stores and calls."""
    cell, table = _Cell(), _TABLE
    for i in range(5000):
        value = table[i & 1023]
        if value & 1:
            _step(cell, value)
        else:
            cell.value ^= value
    return cell.value


class _Node:
    def __init__(self, index: int, rng: random.Random) -> None:
        self.index = index
        self.kind = rng.choice(("alu", "mem", "branch"))
        self.latency = 1 + index % 3
        self.succs: List[int] = sorted({
            rng.randrange(index + 1, index + 30) for _ in range(2)
            if index + 1 < _NODES_N} & set(range(_NODES_N)))
        self.attrs = {"name": f"n{index}", "uses": [index, index + 1]}


_NODES_N = 400
_rng = random.Random(7)
_NODES = tuple(_Node(index, _rng) for index in range(_NODES_N))
del _rng


def copy_loop() -> int:
    """Deep-copy part of an acyclic object graph; the collector is off
    meanwhile, and reference counting frees the copy."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return len(copy.deepcopy(_NODES[:60]))
    finally:
        if enabled:
            gc.enable()


def schedule_loop() -> int:
    """Heights, then a four-wide list schedule of the node graph."""
    nodes = _NODES
    height = [0] * len(nodes)
    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        height[index] = node.latency + max(
            (height[succ] for succ in node.succs), default=0)
    preds = [0] * len(nodes)
    for node in nodes:
        for succ in node.succs:
            preds[succ] += 1
    ready = [index for index, count in enumerate(preds) if count == 0]
    placed: Dict[int, int] = {}
    cycle = 0
    while ready:
        ready.sort(key=lambda index: (-height[index], index))
        issue, ready = ready[:4], ready[4:]
        for index in issue:
            placed[index] = cycle
            for succ in nodes[index].succs:
                preds[succ] -= 1
                if preds[succ] == 0:
                    ready.append(succ)
        cycle += 1
    return cycle


REFERENCE_LOOPS = (interpreter_loop, copy_loop, schedule_loop)


def reference_time() -> float:
    """Geometric mean of each loop's median of ``REFERENCE_REPEATS``."""
    product = 1.0
    for loop in REFERENCE_LOOPS:
        runs = []
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            loop()
            runs.append(perf_counter() - start)
        product *= statistics.median(runs)
    return product ** (1.0 / len(REFERENCE_LOOPS))


class Speedometer:
    """Splits a stretch of work into laps, each bracketed by reference
    samples, and sums them raw and scaled.

    ``lap()`` ends the current lap and starts the next; reference time
    falls between laps, so neither sum includes it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [reference_time()]
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.start = perf_counter()

    def lap(self) -> float:
        """End the current lap; return the scale that applies to it."""
        end = perf_counter()
        before = self.samples[-1]
        self.samples.append(reference_time())
        scale = 2.0 * REFERENCE_S / (before + self.samples[-1])
        self.raw_s += end - self.start
        self.scaled_s += (end - self.start) * scale
        self.start = perf_counter()
        return scale
