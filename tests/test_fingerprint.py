"""Region/machine content fingerprints (``repro.schedule.fingerprint``).

The region memo is only sound if the fingerprint is *canonical* —
invariant under everything the scheduler cannot observe (register
numbering, block ids, op uids) and sensitive to everything it can
(opcodes, immediates, weights, exit structure, live-out sets).
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import form_treegions
from repro.ir import (CompareCond, EdgeKind, Function, IRBuilder, Opcode,
                      RegClass, Register)
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function
from repro.machine import VLIW_4U, VLIW_8U, MachineModel
from repro.schedule.fingerprint import (
    latency_fingerprint,
    machine_fingerprint,
    region_fingerprint,
)
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark


def _diamond(offset=0, imm=2, use_sub=False, then_weight=None,
             swap_targets=False):
    """The if/else diamond with canonicalization knobs.

    ``offset`` burns that many register indices before building, so the
    op stream is an alpha-renamed twin; the other knobs change content
    the scheduler *can* observe.
    """
    fn = Function("diamond", [Register(RegClass.GPR, 0)])
    fn.regs.reserve(Register(RegClass.GPR, 0))
    for _ in range(offset):
        fn.regs.fresh_gpr()
    b = IRBuilder(fn)
    entry = b.block("entry")
    then_bb = b.block("then")
    else_bb = b.block("else")
    join = b.block("join")

    b.at(entry)
    t = b.mov(0)
    if use_sub:
        e = b.sub(fn.params[0], 0)
    else:
        e = b.add(fn.params[0], 0)
    p = b.cmpp(CompareCond.GT, fn.params[0], 0)
    if swap_targets:
        b.br_true(p, else_bb, then_bb)
    else:
        b.br_true(p, then_bb, else_bb)

    b.at(then_bb)
    b.mov(1, dest=t)
    b.jump(join)

    b.at(else_bb)
    b.mov(imm, dest=e)
    b.fallthrough(join)

    b.at(join)
    b.add(t, e)
    b.ret(0)
    if then_weight is not None:
        then_bb.weight = then_weight
    return fn


def _root_fingerprint(fn):
    partition = form_treegions(fn.cfg)
    region = partition.region_of(fn.cfg.entry)
    return region_fingerprint(region, liveness_of(fn.cfg))


class TestCanonicalization:
    def test_deterministic(self):
        assert _root_fingerprint(_diamond()) == _root_fingerprint(_diamond())

    def test_alpha_renamed_twin_equal(self):
        # Same structure, register indices shifted by 7: the scheduler
        # cannot tell them apart, so neither may the fingerprint.
        assert (_root_fingerprint(_diamond())
                == _root_fingerprint(_diamond(offset=7)))

    def test_clone_equal(self):
        fn = build_paper_example().entry_function
        twin = clone_function(fn)
        ours = [region_fingerprint(r, liveness_of(fn.cfg))
                for r in form_treegions(fn.cfg)]
        theirs = [region_fingerprint(r, liveness_of(twin.cfg))
                  for r in form_treegions(twin.cfg)]
        assert ours == theirs

    def test_opcode_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(use_sub=True)))

    def test_immediate_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(imm=3)))

    def test_weight_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(then_weight=40.0)))

    def test_exit_structure_differs(self):
        # Swapping the branch's taken/fallthrough targets rewires which
        # edge reaches which block — observable through exit order.
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(swap_targets=True)))

    def test_distinct_regions_distinct_fingerprints(self):
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        fingerprints = [region_fingerprint(r, liveness)
                        for r in form_treegions(fn.cfg)]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_liveness_none_keys_differently(self):
        fn = _diamond()
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        with_liveness = region_fingerprint(region, liveness_of(fn.cfg))
        # Fresh region objects: the digest is cached on the region.
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        without = region_fingerprint(region, None)
        assert with_liveness != without


class TestGoldenDigests:
    """Fingerprints pinned to their hex digests.

    The digests key every on-disk region store, so a change to the
    canonical form, however harmless to scheduling, orphans every stored
    artifact.  Such a change must bump ``FINGERPRINT_FORMAT`` and update
    these digests in the same commit; anything else that moves them is a
    bug.
    """

    PAPER_EXAMPLE = (
        "9de3991d670eb19c04d11006fed8c85fecbc27905807081f866ab7609c1fa759",
        "1aec25df52943d9a6bda2d80e5ecdb17890c597e7a5899a3c27bfa812e7e546c",
        "20ef887a9f4eff6ed7416d3cbbfd32339a30bff5145c391ce6f18f60c9b3efee",
    )
    DIAMOND = (
        "88be5a9388b68048c492aedd92662532973fb1af9f66517b6e0e1131f21b0616")
    DIAMOND_NO_LIVENESS = (
        "4a53dfa75f5221466cddd982dd4fb36f7e9dd0040bc8ca0095ed46eaba7e5850")
    #: SHA-256 over the concatenated digests of compress's treegions.
    COMPRESS_TREEGIONS = (
        "668ea36cff3079eac1a62beb155b3d8b6bbf00866bb6f935decb21aac3e555cf")

    def test_paper_example_treegions(self):
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        assert tuple(region_fingerprint(r, liveness)
                     for r in form_treegions(fn.cfg)) == self.PAPER_EXAMPLE

    def test_diamond_with_liveness(self):
        assert _root_fingerprint(_diamond()) == self.DIAMOND

    def test_diamond_without_liveness(self):
        fn = _diamond()
        region = form_treegions(fn.cfg).region_of(fn.cfg.entry)
        assert region_fingerprint(region, None) == self.DIAMOND_NO_LIVENESS

    def test_compress_treegions(self):
        digest = hashlib.sha256()
        for fn in build_benchmark("compress").functions():
            liveness = liveness_of(fn.cfg)
            for region in form_treegions(fn.cfg):
                digest.update(region_fingerprint(region, liveness).encode())
        assert digest.hexdigest() == self.COMPRESS_TREEGIONS


class TestCrossProcessStability:
    def test_subprocess_agrees(self):
        """Fingerprints must be stable across interpreters — they key
        the on-disk region store.  The child runs under a different
        PYTHONHASHSEED to prove hash-seed independence."""
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        local = [region_fingerprint(r, liveness)
                 for r in form_treegions(fn.cfg)]
        code = (
            "from repro.core import form_treegions\n"
            "from repro.ir.analysis_cache import liveness_of\n"
            "from repro.schedule.fingerprint import region_fingerprint\n"
            "from repro.workloads.paper_example import build_paper_example\n"
            "fn = build_paper_example().entry_function\n"
            "liveness = liveness_of(fn.cfg)\n"
            "for region in form_treegions(fn.cfg):\n"
            "    print(region_fingerprint(region, liveness))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "271828"
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert out.stdout.split() == local


class TestMachineFingerprints:
    def test_distinguishes_issue_width(self):
        assert machine_fingerprint(VLIW_4U) != machine_fingerprint(VLIW_8U)

    def test_latency_fingerprint_shared_across_widths(self):
        # 4U and 8U differ only in issue width, which the DDG builder
        # never reads — they must share one latency fingerprint.
        assert latency_fingerprint(VLIW_4U) == latency_fingerprint(VLIW_8U)

    def test_latency_fingerprint_sees_latency_table(self):
        slow_loads = MachineModel(name="4U", issue_width=4,
                                  latencies={Opcode.LD: 5})
        assert latency_fingerprint(slow_loads) != latency_fingerprint(VLIW_4U)

    def test_latency_fingerprint_sees_btr(self):
        no_btr = MachineModel(name="4U", issue_width=4, use_btr=False)
        assert latency_fingerprint(no_btr) != latency_fingerprint(VLIW_4U)


def _revive_in_worker(registers):
    """Runs in a spawned worker: the registers arrive unpickled under
    another interpreter's hash seed and travel back pickled again."""
    return [(register, str(register), hash(register))
            for register in registers]


_CLASS_BY_VALUE_ORDER = sorted(RegClass, key=lambda rclass: rclass.value)


class TestRegisterHash:
    """A register is an ``int``: it hashes and compares in C, in the
    order the old (class value, index) tuple key gave."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_CLASS_BY_VALUE_ORDER),
                              st.integers(0, (1 << 32) - 1)),
                    min_size=2, max_size=30))
    def test_order_matches_field_tuple(self, fields):
        registers = [Register(rclass, index) for rclass, index in fields]
        assert sorted(registers) == sorted(
            registers, key=lambda reg: (reg.rclass.value, reg.index))
        for register, (rclass, index) in zip(registers, fields):
            assert register.rclass is rclass and register.index == index

    def test_equal_registers_hash_equal(self):
        assert (hash(Register(RegClass.PRED, 1))
                == hash(Register(RegClass.PRED, 1)))
        assert Register(RegClass.PRED, 1) == Register(RegClass.PRED, 1)
        assert Register(RegClass.PRED, 1) != Register(RegClass.GPR, 1)
        assert len({Register(rclass, 0) for rclass in RegClass}) == 3

    def test_pickle_round_trip(self):
        import pickle

        register = Register(RegClass.BTR, 2)
        revived = pickle.loads(pickle.dumps(register))
        assert revived == register
        assert type(revived) is Register
        assert hash(revived) == hash(register)
        assert {register: "x"}[revived] == "x"

    def test_pickle_round_trip_through_spawn_worker(self):
        import multiprocessing

        registers = [Register(RegClass.GPR, 7), Register(RegClass.PRED, 0),
                     Register(RegClass.BTR, (1 << 32) - 1)]
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            echoed = pool.apply(_revive_in_worker, (registers,))
        assert [register for register, _, _ in echoed] == registers
        assert all(type(register) is Register for register, _, _ in echoed)
        assert [name for _, name, _ in echoed] == ["r7", "p0", "b4294967295"]
        assert [code for _, _, code in echoed] == list(map(hash, registers))

    def test_truthy_and_distinct_from_its_index(self):
        for rclass in RegClass:
            for index in (0, 1, 41, (1 << 32) - 1):
                register = Register(rclass, index)
                assert register
                assert register != index
                assert register not in {index: None}
                assert str(register) == f"{rclass.prefix}{index}"
                assert f"{register:>6}" == f"{str(register):>6}"
                assert repr(register) == f"Register({register})"

    @pytest.mark.parametrize("index", [-1, 1 << 32, 1 << 40])
    def test_out_of_range_index_raises(self, index):
        with pytest.raises(ValueError):
            Register(RegClass.GPR, index)


class TestIdentityHashes:
    """Registers and the IR enums hash in C; a Python-level ``__hash__``
    coming back would put an interpreter call on every dict and set
    probe of renaming, the DDG and the fingerprint."""

    def test_register_hash_is_int_hash(self):
        assert Register.__hash__ is int.__hash__
        assert Register.__eq__ is int.__eq__

    @pytest.mark.parametrize("enum_type",
                             [RegClass, Opcode, CompareCond, EdgeKind])
    def test_ir_enums_hash_by_identity(self, enum_type):
        assert enum_type.__hash__ is object.__hash__
