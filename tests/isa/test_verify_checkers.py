"""Known-bad corpus: one seeded program per checker class.

Each test pins the exact diagnostic -- checker id, severity, and anchoring
instruction index -- so checker regressions are caught precisely, and the
``verify=`` enforcement hooks are exercised at the end.
"""

import pytest

from repro.isa import Features, Imm, KernelBuilder, assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import BEQ, BR, LDL, ROLL, SBOX, STL
from repro.isa.program import Program
from repro.isa.verify import VerificationError, verify_program


def diags(result, checker):
    return [d for d in result.diagnostics if d.checker == checker]


def raw_program(*instructions):
    program = Program()
    for instruction in instructions:
        program.add(instruction)
    return program.finalize()


# --------------------------------------------------------------------- #
# Dataflow lints
# --------------------------------------------------------------------- #

def test_use_before_def():
    result = verify_program(assemble("addq r1, r2, #1\nhalt"))
    (d,) = diags(result, "use-before-def")
    assert (d.severity, d.index, d.detail["reg"]) == ("warning", 0, 2)


def test_use_before_def_only_on_some_path():
    result = verify_program(assemble("""
        ldiq r1, 1
        beq  r1, skip
        ldiq r2, 5
    skip:
        addq r3, r2, #1
        halt
    """))
    (d,) = diags(result, "use-before-def")
    assert (d.index, d.detail["reg"]) == (3, 2)
    assert "some path" in d.message


def test_dead_write():
    result = verify_program(
        assemble("ldiq r1, 5\nldiq r1, 6\nstl r1, 0(r31)\nhalt")
    )
    (d,) = diags(result, "dead-write")
    assert (d.severity, d.index, d.detail["reg"]) == ("warning", 0, 1)


def test_loop_carried_value_is_not_a_dead_write():
    result = verify_program(assemble("""
        ldiq r1, 0
        ldiq r2, 4
    loop:
        addq r1, r1, #1
        subq r2, r2, #1
        bne  r2, loop
        halt
    """))
    assert diags(result, "dead-write") == []


def test_unreachable():
    # Code a branch jumps over, and a dead tail after an early HALT.
    for source in ("br end\naddq r1, r1, #1\nend: halt",
                   "halt\naddq r1, r1, #1\nhalt"):
        result = verify_program(assemble(source))
        (d,) = diags(result, "unreachable")
        assert (d.severity, d.index) == ("warning", 1), source


# --------------------------------------------------------------------- #
# Structural checks
# --------------------------------------------------------------------- #

def test_branch_past_end_is_an_error():
    # finalize() allows target == len; the machine would fall off the end.
    program = raw_program(
        Instruction(BR, target=1),
    )
    result = verify_program(program)
    found = diags(result, "branch-target")
    assert any(d.severity == "error" and d.index == 0 for d in found)


def test_missing_halt_is_an_error():
    result = verify_program(assemble("addq r1, r1, #1"))
    (d,) = diags(result, "branch-target")
    assert (d.severity, d.index) == ("error", 0)
    assert "past the program end" in d.message


def test_empty_program_is_missing_its_halt():
    # Both backends raise "fell off program end at pc=0" on it.
    result = verify_program(Program().finalize())
    (d,) = result.diagnostics
    assert (d.checker, d.severity, d.index) == ("branch-target", "error",
                                                None)
    assert "past the program end" in d.message
    assert result.worst_severity() == "error"


def test_unconditional_self_branch_is_an_error():
    program = raw_program(Instruction(BR, target=0), Instruction(0))
    (d,) = diags(verify_program(program), "branch-target")
    assert (d.severity, d.index) == ("error", 0)
    assert "never terminates" in d.message


def test_branch_to_fall_through_is_a_warning():
    program = raw_program(
        Instruction(BEQ, src1=1, target=1),
        Instruction(0),
    )
    (d,) = diags(verify_program(program), "branch-target")
    assert (d.severity, d.index) == ("warning", 0)


def test_range_displacement_error():
    program = raw_program(
        Instruction(LDL, dest=1, src2=2, disp=1 << 20),
        Instruction(0),
    )
    found = diags(verify_program(program), "range")
    assert any(
        d.severity == "error" and d.index == 0
        and d.detail["field"] == "disp" for d in found
    )


def test_range_absolute_idiom_allows_wide_displacement():
    # disp(r31) is the absolute-address idiom: 0xF000 is legal there.
    result = verify_program(assemble("ldl r1, 0xF000(r31)\nhalt"))
    assert diags(result, "range") == []


def test_range_rotate_amount_warning():
    program = raw_program(
        Instruction(ROLL, dest=1, src1=1, lit=45),
        Instruction(0),
    )
    (d,) = diags(verify_program(program), "range")
    assert (d.severity, d.index, d.detail["field"]) == ("warning", 0, "lit")
    assert "executes as 13" in d.message


def test_feature_gate():
    program = assemble("roll r1, r2, #3\nhalt")
    result = verify_program(program, features=Features.NOROT)
    (d,) = diags(result, "feature-gate")
    assert (d.severity, d.index) == ("error", 0)
    assert d.detail == {"required": "ROT", "declared": "NOROT"}
    # The same program is clean at ROT, and ungated without a declared level.
    assert diags(verify_program(program, features=Features.ROT),
                 "feature-gate") == []
    assert diags(verify_program(program), "feature-gate") == []


def test_feature_gate_crypto_ops_need_opt():
    program = assemble("sbox.0.0 r1, r2, r3\nhalt")
    result = verify_program(program, features=Features.ROT)
    (d,) = diags(result, "feature-gate")
    assert (d.severity, d.index, d.detail["required"]) == ("error", 0, "OPT")


def test_scratch_consumed_from_entry_is_an_error():
    result = verify_program(assemble("addq r1, r28, #1\nhalt"))
    (d,) = diags(result, "scratch-discipline")
    assert (d.severity, d.index, d.detail["reg"]) == ("error", 0, 28)


def test_scratch_live_across_back_edge_is_a_warning():
    result = verify_program(assemble("""
        ldiq r28, 1
        ldiq r2, 4
    loop:
        addq r1, r28, #0
        addq r28, r28, #1
        subq r2, r2, #1
        bne  r2, loop
        halt
    """))
    (d,) = diags(result, "scratch-discipline")
    # Anchored at the back-edge branch; r28 is loop-carried.
    assert (d.severity, d.index, d.detail["reg"]) == ("warning", 5, 28)


def test_scratch_local_to_idiom_is_clean():
    kb = KernelBuilder(Features.NOROT)
    a, count = kb.regs("a", "count")
    kb.ldiq(a, 7)
    kb.ldiq(count, 3)
    kb.label("loop")
    kb.rotl32(a, a, 5)  # NOROT idiom uses scratch internally
    kb.subq(count, count, Imm(1))
    kb.bne(count, "loop")
    kb.halt()
    result = verify_program(kb.build(), features=Features.NOROT)
    assert diags(result, "scratch-discipline") == []


# --------------------------------------------------------------------- #
# SBox coherence
# --------------------------------------------------------------------- #

def _sbox_program(sync: bool, aliased_read: bool = False) -> Program:
    kb = KernelBuilder(Features.OPT)
    base, idx, out, val = kb.regs("base", "idx", "out", "val")
    kb.ldiq(base, 0x1000)
    kb.ldiq(idx, 3)
    kb.ldiq(val, 99)
    kb.sbox(out, base, idx, 0, 0)          # seeds table-0 taint on base
    kb.stl(val, base, 8)                   # store through the table base
    if sync:
        kb.sboxsync(0)
    kb.sbox(out, base, idx, 0, 0, aliased=aliased_read)
    kb.halt()
    return kb.build()


def test_sbox_store_without_sync_is_an_error():
    result = verify_program(_sbox_program(sync=False))
    (d,) = diags(result, "sbox-coherence")
    assert (d.severity, d.index, d.detail["table"]) == ("error", 5, 0)


def test_sbox_store_with_sync_is_clean():
    result = verify_program(_sbox_program(sync=True))
    assert diags(result, "sbox-coherence") == []


def test_aliased_sbox_read_is_exempt():
    result = verify_program(_sbox_program(sync=False, aliased_read=True))
    assert diags(result, "sbox-coherence") == []


def test_sbox_dirty_via_derived_pointer():
    kb = KernelBuilder(Features.OPT)
    base, ptr, idx, out, val = kb.regs("base", "ptr", "idx", "out", "val")
    kb.ldiq(base, 0x1000)
    kb.ldiq(idx, 1)
    kb.ldiq(val, 7)
    kb.sbox(out, base, idx, 0, 2)
    kb.s4addq(ptr, idx, base)              # derived pointer into the table
    kb.stl(val, ptr, 0)
    kb.sbox(out, base, idx, 0, 2)
    kb.halt()
    result = verify_program(kb.build())
    (d,) = diags(result, "sbox-coherence")
    assert (d.index, d.detail["table"]) == (6, 2)


def test_sbox_sync_on_only_one_path_still_errors():
    program = raw_program(
        Instruction(28, dest=1, lit=0x1000),               # ldiq base
        Instruction(28, dest=2, lit=0),                    # ldiq idx
        Instruction(SBOX, dest=3, src1=1, src2=2, table=1),
        Instruction(STL, src1=2, src2=1, disp=0),          # dirty table 1
        Instruction(BEQ, src1=2, target=6),                # skip the sync
        Instruction(58, table=1),                          # sboxsync.1
        Instruction(SBOX, dest=3, src1=1, src2=2, table=1),
        Instruction(0),
    )
    (d,) = diags(verify_program(program), "sbox-coherence")
    assert (d.severity, d.index) == ("error", 6)


# --------------------------------------------------------------------- #
# Enforcement hooks
# --------------------------------------------------------------------- #

def test_assemble_verify_hook_raises():
    with pytest.raises(VerificationError) as excinfo:
        assemble("addq r1, r2, #1\nhalt", verify="warning")
    assert any(d.checker == "use-before-def"
               for d in excinfo.value.result.diagnostics)


def test_assemble_verify_hook_passes_clean_code():
    program = assemble("ldiq r2, 1\naddq r1, r2, #1\nstl r1, 0(r31)\nhalt",
                       verify="warning")
    assert program.finalized


def test_builder_verify_hook_checks_feature_gate():
    kb = KernelBuilder(Features.OPT)
    a, b = kb.regs("a", "b")
    kb.ldiq(a, 1)
    kb.roll(b, a, Imm(3))
    kb.ldiq(b, 2)  # dead write
    kb.stl(b, kb.zero, 0x100)
    kb.halt()
    with pytest.raises(VerificationError, match="dead-write"):
        kb.build(verify="warning")


def test_builder_verify_hook_threshold():
    kb = KernelBuilder(Features.OPT)
    a = kb.reg("a")
    kb.ldiq(a, 1)
    kb.ldiq(a, 2)  # dead write: a warning, below the "error" threshold
    kb.stl(a, kb.zero, 0x100)
    kb.halt()
    assert kb.build(verify="error").finalized


def test_assembler_rejects_unknown_verify_threshold():
    with pytest.raises(ValueError, match="unknown severity"):
        assemble("halt", verify="fatal")


# --------------------------------------------------------------------- #
# Lattice-backed lints (value range, width, store forwarding)
# --------------------------------------------------------------------- #

def test_value_range_register_amount_overflow():
    # r1 provably holds 100 > 63, used as a register shift amount.
    result = verify_program(assemble("""
        ldiq r1, 100
        ldiq r2, 1
        sll  r3, r2, r1
        stl  r3, 0x100(r31)
        halt
    """))
    (d,) = diags(result, "value-range")
    assert (d.severity, d.index) == ("warning", 2)
    assert (d.detail["reg"], d.detail["lo"], d.detail["mask"]) == (1, 100, 63)


def test_value_range_silent_when_amount_fits():
    result = verify_program(assemble("""
        ldiq r1, 13
        ldiq r2, 1
        sll  r3, r2, r1
        stl  r3, 0x100(r31)
        halt
    """))
    assert diags(result, "value-range") == []


def test_width_trunc_widening_at_join():
    # Fall-through path widens r1 to 41 bits; the join keeps the maximum,
    # so the 32-bit rotate after the join provably truncates.
    result = verify_program(assemble("""
        ldiq r1, 1
        ldiq r4, 0
        beq  r4, wide
        sll  r1, r1, #40
    wide:
        roll r2, r1, #3
        stl  r2, 0x100(r31)
        halt
    """))
    (d,) = diags(result, "width-trunc")
    assert (d.severity, d.index) == ("warning", 4)
    assert (d.detail["reg"], d.detail["width"]) == (1, 41)


def test_width_trunc_silent_on_narrow_operand():
    result = verify_program(assemble("""
        ldiq r1, 7
        roll r2, r1, #3
        stl  r2, 0x100(r31)
        halt
    """))
    assert diags(result, "width-trunc") == []


def test_store_forward_partial_overlap():
    # The 8-byte load starts 4 bytes into the 8-byte store: the queue
    # entry covers only half the load.
    result = verify_program(assemble("""
        ldiq r1, 77
        stq  r1, 0x800(r31)
        ldq  r2, 0x804(r31)
        stl  r2, 0x900(r31)
        halt
    """))
    (d,) = diags(result, "store-forward")
    assert (d.severity, d.index, d.detail["store"]) == ("warning", 2, 1)
    assert d.detail["load_bytes"] == [0x804, 0x80C]
    assert d.detail["store_bytes"] == [0x800, 0x808]


def test_store_forward_contained_load_is_silent():
    result = verify_program(assemble("""
        ldiq r1, 77
        stq  r1, 0x800(r31)
        ldl  r2, 0x800(r31)
        stl  r2, 0x900(r31)
        halt
    """))
    assert diags(result, "store-forward") == []


def test_store_forward_distance_ages_out_of_the_queue():
    # 32 younger stores separate the producing store from its load: the
    # entry can leave the smallest shipped (32-entry) store queue.
    filler = "\n".join(
        f"stq r1, {0xA00 + 8 * k:#x}(r31)" for k in range(32)
    )
    result = verify_program(assemble(f"""
        ldiq r1, 77
        stq  r1, 0x800(r31)
        {filler}
        ldq  r2, 0x800(r31)
        stl  r2, 0x900(r31)
        halt
    """))
    (d,) = diags(result, "store-forward")
    assert (d.severity, d.index) == ("warning", 34)
    assert (d.detail["store"], d.detail["distance"]) == (1, 32)


def test_store_forward_unknown_store_vetoes():
    # The intervening store through an unproved pointer could re-cover
    # the load, so no diagnostic may fire.
    result = verify_program(assemble("""
        ldiq r1, 77
        ldq  r3, 0xC00(r31)
        stq  r1, 0x800(r31)
        stq  r1, 0(r3)
        ldq  r2, 0x804(r31)
        stl  r2, 0x900(r31)
        halt
    """))
    assert diags(result, "store-forward") == []


def test_store_forward_aliased_sbox_base_store():
    # A byte store into the proved SBOX entry the aliased read consumes:
    # 1 byte cannot forward a 4-byte table entry.
    kb = KernelBuilder(Features.OPT)
    base, idx, out, val = kb.regs("base", "idx", "out", "val")
    kb.ldiq(base, 0x1000)
    kb.ldiq(idx, 3)
    kb.ldiq(val, 99)
    kb.stb(val, base, 13)                   # one byte of entry [0x100C,0x1010)
    kb.sbox(out, base, idx, 0, 0, aliased=True)
    kb.stl(out, kb.zero, 0x900)
    kb.halt()
    result = verify_program(kb.build())
    (d,) = diags(result, "store-forward")
    assert (d.severity, d.index, d.detail["store"]) == ("warning", 4, 3)
    assert d.detail["load_bytes"] == [0x100C, 0x1010]
    assert d.detail["store_bytes"] == [0x100D, 0x100E]
