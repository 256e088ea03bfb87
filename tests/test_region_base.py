"""Unit tests for the Region base class and machine models."""

import contextlib
import io
import pathlib

import pytest

from repro.cli import main

from repro.machine import (
    MachineModel,
    PAPER_MACHINES,
    SCALAR_1U,
    VLIW_4U,
    VLIW_8U,
    universal_machine,
)
from repro.ir import CFG, EdgeKind, Opcode
from repro.regions.region import Region, RegionPartition
from repro.util.errors import SchedulingError

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _tree_region():
    """root -> (a, b); a -> (c, d): a 5-block tree with CFG edges."""
    cfg = CFG()
    root, a, b, c, d = (cfg.new_block(n) for n in "racbd"[0:5])
    root, a, b, c, d = cfg.blocks()
    cfg.add_edge(root, a, EdgeKind.TAKEN)
    cfg.add_edge(root, b, EdgeKind.FALLTHROUGH)
    cfg.add_edge(a, c, EdgeKind.TAKEN)
    cfg.add_edge(a, d, EdgeKind.FALLTHROUGH)
    region = Region("test")
    region.add_block(root)
    region.add_block(a, parent=root)
    region.add_block(b, parent=root)
    region.add_block(c, parent=a)
    region.add_block(d, parent=a)
    return cfg, region, (root, a, b, c, d)


class TestRegionStructure:
    def test_root_and_membership(self):
        _cfg, region, (root, a, b, c, d) = _tree_region()
        assert region.root is root
        assert all(blk in region for blk in (root, a, b, c, d))
        assert region.block_count == 5

    def test_paths_and_leaves(self):
        _cfg, region, (root, a, b, c, d) = _tree_region()
        assert {leaf.bid for leaf in region.leaves()} == {b.bid, c.bid, d.bid}
        assert region.path_count == 3
        paths = {path[-1].bid: [blk.bid for blk in path]
                 for path in region.paths()}
        assert paths[c.bid] == [root.bid, a.bid, c.bid]
        assert paths[b.bid] == [root.bid, b.bid]

    def test_depth_and_path_to(self):
        _cfg, region, (root, a, b, c, d) = _tree_region()
        assert region.depth(root) == 0
        assert region.depth(a) == 1
        assert region.depth(c) == 2
        assert [x.bid for x in region.path_to(d)] == [root.bid, a.bid, d.bid]

    def test_subtree_and_dominates(self):
        _cfg, region, (root, a, b, c, d) = _tree_region()
        assert {x.bid for x in region.subtree(a)} == {a.bid, c.bid, d.bid}
        assert region.dominates(root, d)
        assert region.dominates(a, c)
        assert not region.dominates(b, c)
        assert not region.dominates(c, a)

    def test_double_add_rejected(self):
        _cfg, region, blocks = _tree_region()
        with pytest.raises(SchedulingError):
            region.add_block(blocks[1], parent=blocks[0])

    def test_second_root_rejected(self):
        cfg = CFG()
        x, y = cfg.new_block(), cfg.new_block()
        region = Region("t")
        region.add_block(x)
        with pytest.raises(SchedulingError):
            region.add_block(y)  # no parent, root exists

    def test_foreign_parent_rejected(self):
        cfg = CFG()
        x, y, z = cfg.new_block(), cfg.new_block(), cfg.new_block()
        region = Region("t")
        region.add_block(x)
        with pytest.raises(SchedulingError):
            region.add_block(z, parent=y)

    def test_exit_to_own_root_counts(self):
        cfg = CFG()
        header, body = cfg.new_block(), cfg.new_block()
        cfg.append_op(header, Opcode.NOP)
        cfg.add_edge(header, body, EdgeKind.FALLTHROUGH, weight=5.0)
        back = cfg.new_op(Opcode.BRU, target=header.bid)
        body.ops.append(back)
        cfg.add_edge(body, header, EdgeKind.TAKEN, weight=5.0)
        region = Region("loop")
        region.add_block(header)
        region.add_block(body, parent=header)
        exits = region.exits()
        assert len(exits) == 1
        assert exits[0].target is header


class TestRegionPartition:
    def test_double_membership_rejected(self):
        cfg = CFG()
        x = cfg.new_block()
        r1, r2 = Region("a"), Region("b")
        r1.add_block(x)
        partition = RegionPartition("t")
        partition.add(r1)
        r2_dup = Region("b")
        r2_dup.add_block(x)
        with pytest.raises(SchedulingError):
            partition.add(r2_dup)

    def test_ids_follow_add_order(self):
        cfg = CFG()
        regions = []
        for _ in range(3):
            region = Region("t")
            region.add_block(cfg.new_block())
            regions.append(region)
        assert [r.rid for r in regions] == [0, 0, 0]
        partition = RegionPartition("t")
        for region in reversed(regions):
            partition.add(region)
        assert [r.rid for r in partition] == [1, 2, 3]
        assert "region #1 " in repr(regions[2])

    def test_repeated_cli_run_prints_identical_text(self):
        # Two identical commands in one process: printed region ids come
        # from the partition alone, not from what ran before.
        argv = ["schedule", str(EXAMPLES / "dotprod.mc"), "--args", "10",
                "--scheme", "treegion", "--machine", "4U"]
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert "region #1 " in outputs[0]

    def test_covering_detects_gaps(self):
        cfg = CFG()
        x, y = cfg.new_block(), cfg.new_block()
        partition = RegionPartition("t")
        region = Region("t")
        region.add_block(x)
        partition.add(region)
        with pytest.raises(SchedulingError):
            partition.verify_covering(cfg)


class TestMachineModels:
    def test_paper_latencies(self):
        for machine in (SCALAR_1U, VLIW_4U, VLIW_8U):
            assert machine.latency_of(Opcode.LD) == 2
            assert machine.latency_of(Opcode.FMUL) == 3
            assert machine.latency_of(Opcode.FDIV) == 9
            assert machine.latency_of(Opcode.ADD) == 1
            assert machine.latency_of(Opcode.ST) == 1

    def test_paper_machines_registry(self):
        assert PAPER_MACHINES["4U"].issue_width == 4
        assert PAPER_MACHINES["8U"].issue_width == 8

    def test_universal_machine_factory(self):
        machine = universal_machine(16)
        assert machine.issue_width == 16
        assert machine.name == "16U"
        assert machine.use_btr

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(name="bad", issue_width=0)

    def test_custom_latency_table(self):
        machine = MachineModel(name="c", issue_width=2,
                               latencies={Opcode.ADD: 5})
        assert machine.latency_of(Opcode.ADD) == 5
        assert machine.latency_of(Opcode.SUB) == 1

    def test_str(self):
        assert str(VLIW_4U) == "4U(4-issue)"
