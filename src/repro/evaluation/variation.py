"""Profile-variation studies (the paper's first future-work item).

"First, we would like to investigate the performance of treegion schedules
across different sets of inputs, to see the effects of profile variations
using the various heuristics" — Section 6.  The paper also hypothesizes
(Section 3) that the exit-count heuristic, while weaker under a faithful
profile, "may preserve performance better" under variation, and notes that
dependence height "is useful when profile information is unavailable or
unreliable".

Machinery:

* :func:`edge_probabilities` — turn profiled edge weights into per-block
  branching probabilities;
* :func:`solve_weights` — recover steady-state block/edge weights for a
  given probability assignment by solving the linear flow system
  ``w = e + P^T w`` (numpy dense solve; loops handled exactly);
* :func:`perturb_profile` — jitter the probabilities multiplicatively
  (log-normal noise) and occasionally flip a two-way branch, then re-solve
  — a synthetic "different input set";
* :func:`time_under_current_weights` — re-price existing schedules under
  whatever weights the CFG currently carries (the schedules themselves
  are unchanged: that is the point of the study).

The headline property, tested in ``tests/test_variation.py``: treegion
formation is profile-independent and the dependence-height heuristic uses
no weights, so its schedules are *invariant* under profile variation,
while global weight trades some robustness for its peak performance.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.cfg import CFG
from repro.schedule.schedule import RegionSchedule


def edge_probabilities(cfg: CFG) -> Dict[int, float]:
    """Per-edge branch probabilities derived from profiled weights.

    Keyed by ``id(edge)``.  Blocks whose out-edges carry no weight get a
    uniform split (the paper's region formers behave the same way on
    zero-profile code).
    """
    probabilities: Dict[int, float] = {}
    for block in cfg.blocks():
        if not block.out_edges:
            continue
        total = sum(edge.weight for edge in block.out_edges)
        for edge in block.out_edges:
            if total > 0:
                probabilities[id(edge)] = edge.weight / total
            else:
                probabilities[id(edge)] = 1.0 / len(block.out_edges)
    return probabilities


def solve_weights(
    cfg: CFG,
    probabilities: Dict[int, float],
    entry_count: float,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Block and edge weights consistent with the given probabilities.

    Solves the flow equations ``w_b = entry_b + sum_{e: e.dst = b} p_e *
    w_{e.src}`` exactly — loops become geometric series without any
    iteration cap.  Returns ({bid: weight}, {id(edge): weight}).

    Raises ``numpy.linalg.LinAlgError`` if the system is singular (a loop
    with no exit probability); profiled CFGs of terminating programs are
    always solvable.
    """
    blocks = cfg.blocks()
    index = {block.bid: i for i, block in enumerate(blocks)}
    n = len(blocks)
    matrix = np.eye(n)
    entry_vector = np.zeros(n)
    if cfg.entry is not None:
        entry_vector[index[cfg.entry.bid]] = entry_count
    for block in blocks:
        for edge in block.out_edges:
            probability = probabilities.get(id(edge), 0.0)
            matrix[index[edge.dst.bid], index[block.bid]] -= probability
    solution = np.linalg.solve(matrix, entry_vector)

    block_weights = {block.bid: max(0.0, float(solution[index[block.bid]]))
                     for block in blocks}
    edge_weights: Dict[int, float] = {}
    for block in blocks:
        for edge in block.out_edges:
            edge_weights[id(edge)] = (
                block_weights[block.bid] * probabilities.get(id(edge), 0.0)
            )
    return block_weights, edge_weights


def apply_weights(cfg: CFG, block_weights: Dict[int, float],
                  edge_weights: Dict[int, float]) -> None:
    """Write solved weights back onto the CFG."""
    for block in cfg.blocks():
        block.weight = block_weights[block.bid]
        for edge in block.out_edges:
            edge.weight = edge_weights[id(edge)]


def snapshot_weights(cfg: CFG):
    """Capture current weights so a study can restore them afterwards."""
    return (
        {block.bid: block.weight for block in cfg.blocks()},
        {id(edge): edge.weight
         for block in cfg.blocks() for edge in block.out_edges},
    )


def restore_weights(cfg: CFG, snapshot) -> None:
    block_weights, edge_weights = snapshot
    for block in cfg.blocks():
        block.weight = block_weights[block.bid]
        for edge in block.out_edges:
            edge.weight = edge_weights[id(edge)]


def perturb_profile(
    cfg: CFG,
    seed: int,
    magnitude: float = 0.5,
    flip_probability: float = 0.1,
    entry_count: Optional[float] = None,
) -> None:
    """Mutate the CFG's weights into a plausible "different input" profile.

    Each out-edge probability is scaled by log-normal noise of the given
    magnitude; two-way branches additionally *flip* (swap arm
    probabilities) with ``flip_probability`` — the kind of change a
    different input set produces.  Weights are then re-solved for flow
    consistency.
    """
    rng = random.Random(seed)
    if entry_count is None:
        entry_count = cfg.entry.weight if cfg.entry is not None else 1.0
        if entry_count <= 0:
            entry_count = 1.0
    probabilities = edge_probabilities(cfg)
    for block in cfg.blocks():
        edges = block.out_edges
        if not edges:
            continue
        raw = []
        for edge in edges:
            noise = np.exp(rng.gauss(0.0, magnitude))
            raw.append(max(1e-9, probabilities[id(edge)] * noise))
        if len(edges) == 2 and rng.random() < flip_probability:
            raw.reverse()
        total = sum(raw)
        for edge, value in zip(edges, raw):
            probabilities[id(edge)] = value / total
    block_weights, edge_weights = solve_weights(cfg, probabilities,
                                                entry_count)
    apply_weights(cfg, block_weights, edge_weights)


def time_under_current_weights(schedules: Iterable[RegionSchedule]) -> float:
    """Re-price fixed schedules under the CFG's *current* weights.

    Exit retire cycles stay what the (training-profile) scheduler chose;
    only the weights change — exactly the situation of running a schedule
    on an input it was not tuned for.
    """
    total = 0.0
    for schedule in schedules:
        for record in schedule.exits:
            exit = record.exit
            weight = (
                exit.edge.weight if exit.edge is not None
                else exit.source.weight
            )
            total += weight * record.cycle
    return total


def variation_study(
    program,
    scheme_factory,
    machine,
    heuristics: Sequence[str],
    seeds: Sequence[int],
    magnitude: float = 0.5,
) -> Dict[str, Dict[str, float]]:
    """Quantify each heuristic's robustness to profile variation.

    For each heuristic: schedule under the training profile; for each
    perturbation seed, re-price the *fixed* schedules under the perturbed
    profile and compare against an oracle rescheduled with the perturbed
    profile.  Returns, per heuristic::

        {"train": T_train, "test": mean T_test(fixed schedule),
         "oracle": mean T_test(rescheduled), "degradation": test/oracle}

    Degradation 1.0 = perfectly robust.
    """
    from repro.evaluation.engine import evaluate_program
    from repro.ir.clone import clone_program
    from repro.schedule.scheduler import ScheduleOptions, schedule_partition

    results: Dict[str, Dict[str, float]] = {}
    for heuristic in heuristics:
        options = ScheduleOptions(heuristic=heuristic)
        # Perturbation rewrites profile weights, so it works on a copy
        # even when the scheme itself leaves the input alone.
        trained = evaluate_program(clone_program(program), scheme_factory(),
                                   machine, options)
        schedules = trained.schedules
        cfgs = [function.cfg for function in trained.program.functions()]
        train_time = sum(s.weighted_time for s in schedules)

        test_times: List[float] = []
        oracle_times: List[float] = []
        for seed in seeds:
            snapshots = []
            for cfg in cfgs:
                snapshots.append(snapshot_weights(cfg))
                perturb_profile(cfg, seed, magnitude=magnitude)
            test_times.append(time_under_current_weights(schedules))
            oracle = []
            for partition in trained.partitions:
                oracle.extend(schedule_partition(partition, machine, options))
            oracle_times.append(time_under_current_weights(oracle))
            for cfg, snapshot in zip(cfgs, snapshots):
                restore_weights(cfg, snapshot)

        mean_test = sum(test_times) / len(test_times)
        mean_oracle = sum(oracle_times) / len(oracle_times)
        results[heuristic] = {
            "train": train_time,
            "test": mean_test,
            "oracle": mean_oracle,
            "degradation": mean_test / mean_oracle if mean_oracle else 1.0,
        }
    return results
