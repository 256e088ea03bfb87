"""The classic-optimization driver: all passes to a fixed point."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import CFG
from repro.ir.function import Function, Program
from repro.ir.verify import verify_function
from repro.opt.cfgopt import remove_unreachable, simplify_branches, straighten
from repro.opt.dce import eliminate_dead_code
from repro.opt.fold import fold_constants
from repro.opt.local import propagate_block_local


@dataclass
class OptStats:
    """What the optimizer did, for reporting and tests."""

    folded: int = 0
    propagated: int = 0
    branches_simplified: int = 0
    blocks_removed: int = 0
    blocks_merged: int = 0
    ops_removed: int = 0
    iterations: int = 0
    ops_before: int = 0
    ops_after: int = 0

    def merge(self, other: "OptStats") -> None:
        self.folded += other.folded
        self.propagated += other.propagated
        self.branches_simplified += other.branches_simplified
        self.blocks_removed += other.blocks_removed
        self.blocks_merged += other.blocks_merged
        self.ops_removed += other.ops_removed
        self.iterations = max(self.iterations, other.iterations)
        self.ops_before += other.ops_before
        self.ops_after += other.ops_after

    def __str__(self) -> str:
        return (
            f"ops {self.ops_before} -> {self.ops_after} "
            f"(folded {self.folded}, propagated {self.propagated}, "
            f"dce {self.ops_removed}, branches {self.branches_simplified}, "
            f"blocks -{self.blocks_removed}/-{self.blocks_merged} merged)"
        )


def _one_round(cfg: CFG, stats: OptStats) -> int:
    changed = 0
    folded = fold_constants(cfg)
    stats.folded += folded
    changed += folded

    propagated = propagate_block_local(cfg)
    stats.propagated += propagated
    changed += propagated

    folded = fold_constants(cfg)
    stats.folded += folded
    changed += folded

    simplified = simplify_branches(cfg)
    stats.branches_simplified += simplified
    changed += simplified

    removed_blocks = remove_unreachable(cfg)
    stats.blocks_removed += removed_blocks
    changed += removed_blocks

    merged = straighten(cfg)
    stats.blocks_merged += merged
    changed += merged

    dead = eliminate_dead_code(cfg)
    stats.ops_removed += dead
    changed += dead
    return changed


def optimize_function(function: Function, max_rounds: int = 10) -> OptStats:
    """Run the classic pipeline on one function until nothing changes."""
    stats = OptStats(ops_before=function.cfg.total_ops)
    for round_index in range(max_rounds):
        stats.iterations = round_index + 1
        if _one_round(function.cfg, stats) == 0:
            break
    stats.ops_after = function.cfg.total_ops
    verify_function(function)
    return stats


def optimize_program(program: Program, max_rounds: int = 10) -> OptStats:
    """Optimize every function; returns merged statistics."""
    total = OptStats()
    for function in program.functions():
        total.merge(optimize_function(function, max_rounds=max_rounds))
    return total
