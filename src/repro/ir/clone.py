"""Deep-copying functions.

Region formation with tail duplication mutates the CFG, and the experiment
harness schedules the *same* program under several region schemes, so every
scheme works on its own copy.  The clone preserves block/op ids, weights,
edge kinds, and provenance so statistics computed on a clone match the
original exactly.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.cfg import BasicBlock, CFG
from repro.ir.function import Function, Program


def clone_cfg(source: CFG) -> CFG:
    """Structure-identical deep copy (same bids, op uids, weights)."""
    target = CFG()
    mapping: Dict[int, BasicBlock] = {}
    for block in source.blocks():
        copy = BasicBlock(block.bid, name=block.name, cfg=target)
        copy.weight = block.weight
        copy.origin = block.origin
        for op in block.ops:
            new_op = op.clone(op.uid)
            new_op.origin = op.origin
            new_op.speculative = op.speculative
            copy.ops.append(new_op)
        mapping[block.bid] = copy
        target._blocks[block.bid] = copy  # keep identical ids
        target._block_ids.reserve(block.bid)
    # Replay op-id space so fresh ops in the clone never collide.
    max_uid = 0
    for block in source.blocks():
        for op in block.ops:
            max_uid = max(max_uid, op.uid)
    target._op_ids.reserve(max_uid)
    for block in source.blocks():
        copy = mapping[block.bid]
        for edge in block.out_edges:
            target.add_edge(
                copy,
                mapping[edge.dst.bid],
                edge.kind,
                case_value=edge.case_value,
                weight=edge.weight,
            )
    if source.entry is not None:
        target.entry = mapping[source.entry.bid]
    return target


def clone_function(source: Function) -> Function:
    """Deep-copy a function; the register factory state is replicated."""
    target = Function(source.name, list(source.params))
    target.cfg = clone_cfg(source.cfg)
    # Reserve every register mentioned anywhere so fresh names are safe.
    for block in target.cfg.blocks():
        for op in block.ops:
            for reg in op.defined_registers():
                target.regs.reserve(reg)
            for reg in op.used_registers():
                target.regs.reserve(reg)
    return target


def clone_globals(source: Program) -> Program:
    """The source's entry and a copy of its globals, no functions."""
    target = Program(entry=source.entry_name)
    for var in source.globals.values():
        target.add_global(var.name, size=var.size, initial=list(var.initial))
    return target


def clone_program(source: Program) -> Program:
    target = clone_globals(source)
    for function in source.functions():
        target.add_function(clone_function(function))
    return target
