"""RISC-A opcode definitions.

RISC-A is the 64-bit Alpha-like load/store ISA the reproduction's kernels are
written in, plus the paper's cryptography extensions (Figure 8).  Each opcode
carries:

* an integer code (both functional backends dispatch on it),
* a *timing class* that selects the functional unit pool and latency in the
  timing simulator,
* a default *operation category* for the paper's Figure 7 kernel
  characterization (builder helpers override it when an instruction is part
  of a synthesized idiom, e.g. a shift inside a software rotate counts as
  "rotate", matching the paper's by-hand classification), and
* the register facts the analyses read: whether it writes or reads its
  destination, and how many bits its result always fits in.

Its semantics is one emitter in :mod:`repro.isa.semantics`, keyed by the
opcode's name, from which both functional backends are generated.

Deviations from real Alpha, chosen for clarity and documented in DESIGN.md:
``ADDL``-family results are zero-extended rather than sign-extended (cipher
code treats words as unsigned), ``LDL`` zero-extends, and ``LDIQ`` materializes
a full 64-bit immediate in one instruction (real Alpha needs an LDAH/LDA
sequence or a literal pool; kernel constants are table addresses loaded in
setup code, so the simplification does not perturb kernel-loop statistics).
"""

from __future__ import annotations

from dataclasses import dataclass

# Timing classes -- functional unit pools in the timing model.
IALU = "ialu"          # single-cycle integer ops, compares, CMOVs, branches
MUL32 = "mul32"        # 32-bit multiply
MUL64 = "mul64"        # 64-bit multiply
MULMOD_UNIT = "mulmod" # 16-bit modular multiply (paper: 4 cycles)
ROTATOR = "rotator"    # rotate / rotate-xor / XBOX unit (paper Table 2)
LOAD = "load"
STORE = "store"
SBOX_UNIT = "sbox"     # SBOX instruction (d-cache port or SBox cache)
SYNC = "sync"

# Figure 7 operation categories.
ARITH = "arith"
LOGIC = "logic"
ROTATE = "rotate"
MULTIPLY = "multiply"
SUBST = "sbox"
PERMUTE = "permute"
LDST = "ldst"
CONTROL = "control"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    code: int
    name: str
    fmt: str        # 'none' | 'op' | 'mem' | 'br' | 'ldi' | 'sbox' | 'sync' | 'xbox'
    klass: str      # timing class
    category: str   # default Figure 7 category
    writes_dest: bool = True
    reads_dest: bool = False  # ROLX/RORX and CMOV read their destination
    #: Bits the result always fits in, whatever the operands (or None).
    result_bits: "int | None" = None


_SPECS: list[OpSpec] = []


def _op(code, name, fmt, klass, category, writes_dest=True, reads_dest=False,
        result_bits=None):
    spec = OpSpec(code, name, fmt, klass, category, writes_dest, reads_dest,
                  result_bits)
    _SPECS.append(spec)
    return code


# Control / machine.
HALT = _op(0, "halt", "none", IALU, CONTROL, writes_dest=False)

# Integer operate instructions (rb may be an 8-bit literal).
ADDQ = _op(1, "addq", "op", IALU, ARITH)
SUBQ = _op(2, "subq", "op", IALU, ARITH)
ADDL = _op(3, "addl", "op", IALU, ARITH)
SUBL = _op(4, "subl", "op", IALU, ARITH, result_bits=32)
AND = _op(5, "and", "op", IALU, LOGIC)
BIS = _op(6, "bis", "op", IALU, LOGIC)
XOR = _op(7, "xor", "op", IALU, LOGIC)
BIC = _op(8, "bic", "op", IALU, LOGIC)
ORNOT = _op(9, "ornot", "op", IALU, LOGIC)
SLL = _op(10, "sll", "op", IALU, LOGIC)
SRL = _op(11, "srl", "op", IALU, LOGIC)
SRA = _op(12, "sra", "op", IALU, LOGIC)
MULL = _op(13, "mull", "op", MUL32, MULTIPLY)
MULQ = _op(14, "mulq", "op", MUL64, MULTIPLY)
CMPEQ = _op(15, "cmpeq", "op", IALU, ARITH, result_bits=1)
CMPULT = _op(16, "cmpult", "op", IALU, ARITH, result_bits=1)
CMPULE = _op(17, "cmpule", "op", IALU, ARITH, result_bits=1)
CMPLT = _op(18, "cmplt", "op", IALU, ARITH, result_bits=1)
CMPLE = _op(19, "cmple", "op", IALU, ARITH, result_bits=1)
EXTBL = _op(20, "extbl", "op", IALU, LOGIC, result_bits=8)
INSBL = _op(21, "insbl", "op", IALU, LOGIC)
ZAPNOT = _op(22, "zapnot", "op", IALU, LOGIC)
S4ADDQ = _op(23, "s4addq", "op", IALU, ARITH)
S8ADDQ = _op(24, "s8addq", "op", IALU, ARITH)
CMOVEQ = _op(25, "cmoveq", "op", IALU, LOGIC, reads_dest=True)
CMOVNE = _op(26, "cmovne", "op", IALU, LOGIC, reads_dest=True)

# Address/immediate materialization.
LDA = _op(27, "lda", "mem", IALU, ARITH)    # rc = rb + sext16(disp)
LDIQ = _op(28, "ldiq", "ldi", IALU, ARITH)  # rc = imm64 (simulator pseudo-op)

# Memory.
LDQ = _op(30, "ldq", "mem", LOAD, LDST, result_bits=64)
# LDL zero-extends (see the module docstring).
LDL = _op(31, "ldl", "mem", LOAD, LDST, result_bits=32)
LDWU = _op(32, "ldwu", "mem", LOAD, LDST, result_bits=16)
LDBU = _op(33, "ldbu", "mem", LOAD, LDST, result_bits=8)
STQ = _op(34, "stq", "mem", STORE, LDST, writes_dest=False)
STL = _op(35, "stl", "mem", STORE, LDST, writes_dest=False)
STW = _op(36, "stw", "mem", STORE, LDST, writes_dest=False)
STB = _op(37, "stb", "mem", STORE, LDST, writes_dest=False)

# Branches (conditional branches test ra against zero).
BR = _op(40, "br", "br", IALU, CONTROL, writes_dest=False)
BEQ = _op(41, "beq", "br", IALU, CONTROL, writes_dest=False)
BNE = _op(42, "bne", "br", IALU, CONTROL, writes_dest=False)
BLT = _op(43, "blt", "br", IALU, CONTROL, writes_dest=False)
BLE = _op(44, "ble", "br", IALU, CONTROL, writes_dest=False)
BGT = _op(45, "bgt", "br", IALU, CONTROL, writes_dest=False)
BGE = _op(46, "bge", "br", IALU, CONTROL, writes_dest=False)

# Related-work extension (paper section 7): Shi & Lee's GRP instruction, a
# stable bit partition -- source bits whose control bit is 0 pack into the
# low end (original order), bits with 1 above them.  log2(N) GRPs realize
# any N-bit permutation (5 instructions for 32 bits vs XBOX's 7).
GRPL = _op(48, "grpl", "op", ROTATOR, PERMUTE, result_bits=32)
GRPQ = _op(49, "grpq", "op", ROTATOR, PERMUTE, result_bits=64)

# Cryptography extensions (paper Figure 8).
ROLL = _op(50, "roll", "op", ROTATOR, ROTATE, result_bits=32)
RORL = _op(51, "rorl", "op", ROTATOR, ROTATE, result_bits=32)
ROLQ = _op(52, "rolq", "op", ROTATOR, ROTATE)
RORQ = _op(53, "rorq", "op", ROTATOR, ROTATE)
ROLXL = _op(54, "rolxl", "op", ROTATOR, ROTATE, reads_dest=True, result_bits=32)
RORXL = _op(55, "rorxl", "op", ROTATOR, ROTATE, reads_dest=True, result_bits=32)
MULMOD = _op(56, "mulmod", "op", MULMOD_UNIT, MULTIPLY, result_bits=16)
SBOX = _op(57, "sbox", "sbox", SBOX_UNIT, SUBST, result_bits=32)
SBOXSYNC = _op(58, "sboxsync", "sync", SYNC, CONTROL, writes_dest=False)
XBOX = _op(59, "xbox", "xbox", ROTATOR, PERMUTE)

SPECS: dict[int, OpSpec] = {spec.code: spec for spec in _SPECS}
SPECS_BY_NAME: dict[str, OpSpec] = {spec.name: spec for spec in _SPECS}

BRANCH_CODES = frozenset({BR, BEQ, BNE, BLT, BLE, BGT, BGE})
COND_BRANCH_CODES = frozenset({BEQ, BNE, BLT, BLE, BGT, BGE})
LOAD_CODES = frozenset({LDQ, LDL, LDWU, LDBU})
STORE_CODES = frozenset({STQ, STL, STW, STB})
MEM_SIZES = {LDQ: 8, LDL: 4, LDWU: 2, LDBU: 1, STQ: 8, STL: 4, STW: 2, STB: 1}
