"""Directed semantics tests for every RISC-A opcode via the assembler.

Every test runs on every backend, with its operands from ``ldiq`` (which
the compiled backend folds as constants) and from memory (which it
cannot), so the hand-written expected values check both generated forms.
"""

import pytest

from repro.sim import Memory, SimulationError
from tests.isa.backend_run import every_backend, run_source

M64 = 0xFFFFFFFFFFFFFFFF


def run_and_read(source: str, backend: str, operands: str,
                 result_addr: int = 0x400, width: int = 8,
                 memory: Memory | None = None) -> int:
    memory = memory or Memory(1 << 16)
    run_source(source, memory, backend, operands)
    return memory.read(result_addr, width)


def _store_result(expr_lines: str, result_reg: str = "r9") -> str:
    return f"{expr_lines}\n    stq {result_reg}, 0x400(r31)\n    halt\n"


@pytest.mark.parametrize("op,a,b,expected", [
    ("addq", 3, 4, 7),
    ("addq", 0xFFFFFFFFFFFFFFFF, 1, 0),
    ("subq", 3, 4, 0xFFFFFFFFFFFFFFFF),
    ("addl", 0xFFFFFFFF, 1, 0),                      # zero-extended 32-bit
    ("subl", 0, 1, 0xFFFFFFFF),
    ("and", 0b1100, 0b1010, 0b1000),
    ("bis", 0b1100, 0b1010, 0b1110),
    ("xor", 0b1100, 0b1010, 0b0110),
    ("bic", 0b1111, 0b1010, 0b0101),
    ("sll", 1, 63, 1 << 63),
    ("srl", 1 << 63, 63, 1),
    ("mull", 0xFFFFFFFF, 2, 0xFFFFFFFE),             # 32-bit wraparound
    ("mulq", 1 << 32, 1 << 32, 0),                   # 64-bit wraparound
    ("cmpeq", 5, 5, 1),
    ("cmpeq", 5, 6, 0),
    ("cmpult", 3, 4, 1),
    ("cmpult", 4, 3, 0),
    ("cmpule", 4, 4, 1),
    ("s4addq", 3, 100, 112),
    ("s8addq", 3, 100, 124),
    ("extbl", 0x0123456789ABCDEF, 2, 0xAB),
    ("insbl", 0xEF, 2, 0xEF0000),
    ("zapnot", 0x0123456789ABCDEF, 0x0F, 0x89ABCDEF),
])
@every_backend
def test_operate_register_forms(op, a, b, expected, backend, operands):
    source = _store_result(f"""
    ldiq r1, {a}
    ldiq r2, {b}
    {op} r9, r1, r2
    """)
    assert run_and_read(source, backend, operands) == expected


@every_backend
def test_operate_literal_form(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 40
    addq r9, r1, #2
    """), backend, operands) == 42


@every_backend
def test_sra_sign_extension(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 0x8000000000000000
    sra  r9, r1, #60
    """), backend, operands) == 0xFFFFFFFFFFFFFFF8


@every_backend
def test_cmplt_signed(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 0xFFFFFFFFFFFFFFFF   ; -1
    ldiq r2, 1
    cmplt r9, r1, r2
    """), backend, operands) == 1


@pytest.mark.parametrize("op,a,b,expected", [
    ("cmplt", -1, 1, 1), ("cmplt", 1, -1, 0), ("cmplt", -2, -2, 0),
    ("cmple", -1, 1, 1), ("cmple", 1, -1, 0), ("cmple", -2, -2, 1),
    ("cmple", 5, 5, 1), ("cmple", 6, 5, 0),
    ("cmple", -(1 << 63), (1 << 63) - 1, 1),
    ("cmple", (1 << 63) - 1, -(1 << 63), 0),
    ("cmple", -1, "#0", 1), ("cmple", 1, "#0", 0), ("cmplt", -1, "#0", 1),
])
@every_backend
def test_signed_compares(op, a, b, expected, backend, operands):
    """CMPLT/CMPLE compare as signed 64-bit values, register or literal."""
    rb = b if isinstance(b, str) else "r2"
    source = _store_result(f"""
    ldiq r1, {a & M64:#x}
    ldiq r2, {(b if isinstance(b, int) else 0) & M64:#x}
    {op} r9, r1, {rb}
    """)
    assert run_and_read(source, backend, operands) == expected


@every_backend
def test_ornot(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 0
    ldiq r2, 0xFFFFFFFFFFFFFFF0
    ornot r9, r1, r2
    """), backend, operands) == 0xF


@every_backend
def test_cmov_both_ways(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 0
    ldiq r2, 111
    ldiq r9, 5
    cmoveq r9, r1, r2
    """), backend, operands) == 111
    assert run_and_read(_store_result("""
    ldiq r1, 7
    ldiq r2, 111
    ldiq r9, 5
    cmovne r9, r1, r2
    """), backend, operands) == 111
    assert run_and_read(_store_result("""
    ldiq r1, 7
    ldiq r2, 111
    ldiq r9, 5
    cmoveq r9, r1, r2
    """), backend, operands) == 5


@every_backend
def test_lda_displacement(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 1000
    lda  r9, 24(r1)
    """), backend, operands) == 1024
    assert run_and_read(_store_result("""
    ldiq r1, 1000
    lda  r9, -24(r1)
    """), backend, operands) == 976


@every_backend
def test_r31_reads_zero_and_ignores_writes(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r31, 123
    addq r9, r31, #0
    """), backend, operands) == 0


@every_backend
def test_memory_roundtrip_all_widths(backend, operands):
    memory = Memory(1 << 16)
    source = """
    ldiq r1, 0x0123456789ABCDEF
    stq r1, 0x500(r31)
    ldq r2, 0x500(r31)
    stl r2, 0x510(r31)
    ldl r3, 0x510(r31)
    stw r3, 0x520(r31)
    ldwu r4, 0x520(r31)
    stb r4, 0x530(r31)
    ldbu r5, 0x530(r31)
    stq r5, 0x400(r31)
    halt
    """
    assert run_and_read(source, backend, operands, memory=memory) == 0xEF
    assert memory.read(0x510, 4) == 0x89ABCDEF


@every_backend
def test_ldl_zero_extends(backend, operands):
    assert run_and_read(_store_result("""
    ldiq r1, 0xFFFFFFFF
    stl r1, 0x500(r31)
    ldl r9, 0x500(r31)
    """), backend, operands) == 0xFFFFFFFF


@every_backend
def test_branches(backend, operands):
    source = """
    ldiq r1, 3
    ldiq r9, 0
loop:
    addq r9, r9, #10
    subq r1, r1, #1
    bne r1, loop
    stq r9, 0x400(r31)
    halt
    """
    assert run_and_read(source, backend, operands) == 30


@pytest.mark.parametrize("br,value,branches", [
    ("beq", 0, True), ("beq", 1, False),
    ("bne", 0, False), ("bne", 1, True),
    ("blt", 0xFFFFFFFFFFFFFFFF, True), ("blt", 0, False), ("blt", 1, False),
    ("ble", 0, True), ("ble", 1, False),
    ("bgt", 1, True), ("bgt", 0, False),
    ("bge", 0, True), ("bge", 0xFFFFFFFFFFFFFFFF, False),
])
@every_backend
def test_conditional_branches(br, value, branches, backend, operands):
    source = f"""
    ldiq r1, {value}
    ldiq r9, 1
    {br} r1, yes
    ldiq r9, 2
yes:
    stq r9, 0x400(r31)
    halt
    """
    assert run_and_read(source, backend, operands) == (1 if branches else 2)


@every_backend
def test_unconditional_branch(backend, operands):
    source = """
    ldiq r9, 1
    br skip
    ldiq r9, 2
skip:
    stq r9, 0x400(r31)
    halt
    """
    assert run_and_read(source, backend, operands) == 1


@every_backend
def test_runaway_detection(backend, operands):
    with pytest.raises(SimulationError, match="exceeded 1000 instructions"):
        run_source("loop: br loop\n halt", Memory(1 << 16), backend,
                   operands, max_instructions=1000)


@every_backend
def test_unaligned_access_faults(backend, operands):
    with pytest.raises(SimulationError, match=r"LDL at 0x2 \(pc 1\)"):
        run_source("ldiq r2, 2\n ldl r1, 0(r2)\n halt", Memory(1 << 16),
                   backend, operands)


@every_backend
def test_out_of_range_access_faults(backend, operands):
    with pytest.raises(SimulationError, match=r"STQ at 0x10000 \(pc 1\)"):
        run_source("ldiq r2, 0x10000\n stq r2, 0(r2)\n halt",
                   Memory(1 << 16), backend, operands)
