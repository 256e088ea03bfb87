"""SPECint95 stand-in presets.

One :class:`SynthParams` per benchmark, tuned so the *shape* statistics the
paper reports (Tables 1 and 2: blocks and ops per treegion/SLR) and the
branch-behaviour pathologies it analyses come out qualitatively right:

=========  =====================================================
compress   small program, mildly biased branches
gcc        large, switch-heavy (wide shallow treegions, Fig. 9)
go         large, deep branchy code, bigger blocks
ijpeg      loop kernels with strongly biased branches (Fig. 7)
li         small interpreter loop, moderate switches
m88ksim    simulator: big decode switches, larger treegions
perl       interpreter: the widest switches in the suite (Fig. 9)
vortex     straight-line check chains (linearized trees, Fig. 10)
=========  =====================================================

Absolute sizes are scaled down (hundreds of blocks per program instead of
tens of thousands) to keep the full experiment matrix fast; all comparisons
in the paper are ratios, which scaling preserves.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.function import Program
from repro.workloads.synthetic import SynthParams, generate_program

SPECINT95: Dict[str, SynthParams] = {
    "compress": SynthParams(
        name="compress", seed=9501, target_blocks=90, toplevel=9, depth=3,
        block_ops_mean=6.5, switch_odds=0.15, switch_fanout=(3, 5),
        loop_odds=1.2, chain_odds=0.3, bias_lo=0.52, bias_hi=0.75,
        full_bias_prob=0.05, chain_frac=0.75,
    ),
    "gcc": SynthParams(
        name="gcc", seed=9502, target_blocks=520, toplevel=40, depth=3,
        block_ops_mean=6.5, switch_odds=0.35, switch_fanout=(8, 40),
        switch_skew=2.2, loop_odds=0.8, chain_odds=0.4,
        bias_lo=0.5, bias_hi=0.72, full_bias_prob=0.08, chain_frac=0.75,
    ),
    "go": SynthParams(
        name="go", seed=9503, target_blocks=320, toplevel=24, depth=3,
        block_ops_mean=7.0, switch_odds=0.25, switch_fanout=(4, 12),
        ite_odds=5.0, loop_odds=0.9, chain_odds=0.3,
        bias_lo=0.5, bias_hi=0.7, full_bias_prob=0.04, chain_frac=0.72,
    ),
    "ijpeg": SynthParams(
        name="ijpeg", seed=9504, target_blocks=220, toplevel=18, depth=2,
        block_ops_mean=7.0, fp_frac=0.10, switch_odds=0.2,
        switch_fanout=(3, 8), loop_odds=1.6, chain_odds=0.2,
        bias_lo=0.85, bias_hi=0.99, full_bias_prob=0.45, chain_frac=0.7,
    ),
    "li": SynthParams(
        name="li", seed=9505, target_blocks=150, toplevel=14, depth=3,
        block_ops_mean=6.0, switch_odds=0.35, switch_fanout=(4, 10),
        loop_odds=1.0, chain_odds=0.4, bias_lo=0.5, bias_hi=0.72,
        full_bias_prob=0.06, chain_frac=0.78,
    ),
    "m88ksim": SynthParams(
        name="m88ksim", seed=9506, target_blocks=260, toplevel=18, depth=3,
        block_ops_mean=7.5, switch_odds=0.5, switch_fanout=(6, 20),
        switch_skew=1.6, loop_odds=0.9, chain_odds=0.5,
        bias_lo=0.52, bias_hi=0.75, full_bias_prob=0.07, chain_frac=0.75,
    ),
    "perl": SynthParams(
        name="perl", seed=9507, target_blocks=500, toplevel=34, depth=3,
        block_ops_mean=6.5, switch_odds=0.35, switch_fanout=(10, 48),
        switch_skew=2.6, loop_odds=0.7, chain_odds=0.3,
        bias_lo=0.5, bias_hi=0.72, full_bias_prob=0.08, chain_frac=0.75,
    ),
    "vortex": SynthParams(
        name="vortex", seed=9508, target_blocks=300, toplevel=18, depth=3,
        block_ops_mean=9.5, block_ops_sd=3.5, switch_odds=0.3,
        switch_fanout=(3, 8), loop_odds=0.6, chain_odds=1.2,
        chain_len=(3, 6), bias_lo=0.52, bias_hi=0.75, full_bias_prob=0.05,
        chain_frac=0.78,
    ),
}

BENCHMARK_NAMES: List[str] = list(SPECINT95)

_cache: Dict[str, Program] = {}


def build_benchmark(name: str, use_cache: bool = True) -> Program:
    """Generate (or fetch the cached) stand-in program for a benchmark.

    Callers that mutate the CFG must clone first
    (:func:`repro.evaluation.schemes.form_program` does) — the cache hands
    out the same object.
    """
    if use_cache and name in _cache:
        return _cache[name]
    program = generate_program(SPECINT95[name])
    if use_cache:
        _cache[name] = program
    return program


def build_suite(use_cache: bool = True) -> Dict[str, Program]:
    """All eight benchmarks, keyed by name, in the paper's table order."""
    return {name: build_benchmark(name, use_cache) for name in BENCHMARK_NAMES}
