"""Programmatic assembler for cipher kernels.

:class:`KernelBuilder` is how the kernels in ``repro.kernels`` are written:
one Python "kernel source" per cipher emits RISC-A instructions through thin
per-opcode methods, and *idiom helpers* (:meth:`rotl32`, :meth:`sbox_lookup`,
:meth:`mulmod16`, :meth:`permute64`) that expand to different instruction
sequences depending on the kernel's :class:`~repro.isa.features.Features`
level -- exactly mirroring how the paper recodes each cipher for its ISA
extensions while keeping one algorithmic source.

Conventions:

* Registers are allocated by name (:meth:`reg`); ``r28``-``r30`` are reserved
  assembler scratch used inside idiom expansions; ``r31`` is hardwired zero.
* The second operand of operate instructions is a register index or
  :class:`Imm` (the Alpha-style 8-bit literal).
* Every emit method accepts ``category=`` to override the Figure 7
  classification (idiom helpers set it so, e.g., a shift inside a synthesized
  rotate counts as "rotate", matching the paper's by-hand accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import opcodes as op
from repro.isa.features import Features
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, SCRATCH_REGS, ZERO_REG
from repro.isa.verify.ranges import validate_emit


@dataclass(frozen=True)
class Imm:
    """An 8-bit operate literal (0..255)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise ValueError(f"operate literal {self.value} must be 0..255")


class KernelBuilder:
    """Emit a RISC-A :class:`Program` with feature-gated idioms."""

    def __init__(self, features: Features = Features.OPT):
        self.features = features
        self.program = Program()
        self._regs: dict[str, int] = {}
        self._free = [
            r for r in range(NUM_REGS - 1, -1, -1)
            if r not in SCRATCH_REGS and r != ZERO_REG
        ]
        self._label_seq = 0

    # ------------------------------------------------------------------ #
    # Register management
    # ------------------------------------------------------------------ #

    def reg(self, name: str) -> int:
        """Allocate (or look up) a named register."""
        if name not in self._regs:
            if not self._free:
                raise RuntimeError(
                    f"out of registers allocating {name!r}; "
                    f"live: {sorted(self._regs)}"
                )
            self._regs[name] = self._free.pop()
        return self._regs[name]

    def regs(self, *names: str) -> list[int]:
        return [self.reg(name) for name in names]

    def free(self, *names: str) -> None:
        """Release named registers back to the pool."""
        for name in names:
            index = self._regs.pop(name)
            self._free.append(index)

    @property
    def zero(self) -> int:
        return ZERO_REG

    # ------------------------------------------------------------------ #
    # Labels and raw emission
    # ------------------------------------------------------------------ #

    def label(self, name: str) -> str:
        self.program.mark_label(name)
        return name

    def unique_label(self, stem: str) -> str:
        self._label_seq += 1
        return f"{stem}__{self._label_seq}"

    def build(self, verify: str | None = None) -> Program:
        """Finalize and return the program.

        ``verify`` opts into static verification: pass a severity threshold
        ("warning" or "error") to lint the finalized program against the
        builder's feature level and raise
        :class:`~repro.isa.verify.VerificationError` on findings at or
        above it.
        """
        program = self.program.finalize()
        if verify is not None:
            from repro.isa.verify import enforce, verify_program

            enforce(
                verify_program(program, features=self.features,
                               name="<builder>"),
                verify,
            )
        return program

    def _emit(self, instruction: Instruction) -> None:
        validate_emit(instruction)
        self.program.add(instruction)

    def _operate(self, code: int, dest: int, ra: int, rb, category=None) -> None:
        if isinstance(rb, Imm):
            instruction = Instruction(
                code, dest=dest, src1=ra, lit=rb.value, category=category
            )
        else:
            instruction = Instruction(
                code, dest=dest, src1=ra, src2=rb, category=category
            )
        self._emit(instruction)

    # ------------------------------------------------------------------ #
    # Thin per-opcode emitters
    # ------------------------------------------------------------------ #

    def addq(self, dest, ra, rb, category=None):
        self._operate(op.ADDQ, dest, ra, rb, category)

    def subq(self, dest, ra, rb, category=None):
        self._operate(op.SUBQ, dest, ra, rb, category)

    def addl(self, dest, ra, rb, category=None):
        self._operate(op.ADDL, dest, ra, rb, category)

    def subl(self, dest, ra, rb, category=None):
        self._operate(op.SUBL, dest, ra, rb, category)

    def and_(self, dest, ra, rb, category=None):
        self._operate(op.AND, dest, ra, rb, category)

    def bis(self, dest, ra, rb, category=None):
        self._operate(op.BIS, dest, ra, rb, category)

    def xor(self, dest, ra, rb, category=None):
        self._operate(op.XOR, dest, ra, rb, category)

    def bic(self, dest, ra, rb, category=None):
        self._operate(op.BIC, dest, ra, rb, category)

    def ornot(self, dest, ra, rb, category=None):
        self._operate(op.ORNOT, dest, ra, rb, category)

    def sll(self, dest, ra, rb, category=None):
        self._operate(op.SLL, dest, ra, rb, category)

    def srl(self, dest, ra, rb, category=None):
        self._operate(op.SRL, dest, ra, rb, category)

    def sra(self, dest, ra, rb, category=None):
        self._operate(op.SRA, dest, ra, rb, category)

    def mull(self, dest, ra, rb, category=None):
        self._operate(op.MULL, dest, ra, rb, category)

    def mulq(self, dest, ra, rb, category=None):
        self._operate(op.MULQ, dest, ra, rb, category)

    def cmpeq(self, dest, ra, rb, category=None):
        self._operate(op.CMPEQ, dest, ra, rb, category)

    def cmpult(self, dest, ra, rb, category=None):
        self._operate(op.CMPULT, dest, ra, rb, category)

    def cmpule(self, dest, ra, rb, category=None):
        self._operate(op.CMPULE, dest, ra, rb, category)

    def cmplt(self, dest, ra, rb, category=None):
        self._operate(op.CMPLT, dest, ra, rb, category)

    def cmple(self, dest, ra, rb, category=None):
        self._operate(op.CMPLE, dest, ra, rb, category)

    def extbl(self, dest, ra, rb, category=None):
        self._operate(op.EXTBL, dest, ra, rb, category)

    def insbl(self, dest, ra, rb, category=None):
        self._operate(op.INSBL, dest, ra, rb, category)

    def zapnot(self, dest, ra, rb, category=None):
        self._operate(op.ZAPNOT, dest, ra, rb, category)

    def s4addq(self, dest, ra, rb, category=None):
        self._operate(op.S4ADDQ, dest, ra, rb, category)

    def s8addq(self, dest, ra, rb, category=None):
        self._operate(op.S8ADDQ, dest, ra, rb, category)

    def cmoveq(self, dest, ra, rb, category=None):
        self._operate(op.CMOVEQ, dest, ra, rb, category)

    def cmovne(self, dest, ra, rb, category=None):
        self._operate(op.CMOVNE, dest, ra, rb, category)

    def mov(self, dest, ra, category=None):
        """Pseudo-op: dest = ra (BIS ra, ra)."""
        self._operate(op.BIS, dest, ra, ra, category)

    def lda(self, dest, base, disp, category=None):
        self._emit(Instruction(op.LDA, dest=dest, src2=base, disp=disp,
                               category=category))

    def ldiq(self, dest, value, category=None):
        self._emit(Instruction(op.LDIQ, dest=dest,
                               lit=value & 0xFFFFFFFFFFFFFFFF,
                               category=category))

    # Memory.
    def ldq(self, dest, base, disp=0, category=None):
        self._emit(Instruction(op.LDQ, dest=dest, src2=base, disp=disp,
                               category=category))

    def ldl(self, dest, base, disp=0, category=None):
        self._emit(Instruction(op.LDL, dest=dest, src2=base, disp=disp,
                               category=category))

    def ldwu(self, dest, base, disp=0, category=None):
        self._emit(Instruction(op.LDWU, dest=dest, src2=base, disp=disp,
                               category=category))

    def ldbu(self, dest, base, disp=0, category=None):
        self._emit(Instruction(op.LDBU, dest=dest, src2=base, disp=disp,
                               category=category))

    def stq(self, value, base, disp=0, category=None):
        self._emit(Instruction(op.STQ, src1=value, src2=base, disp=disp,
                               category=category))

    def stl(self, value, base, disp=0, category=None):
        self._emit(Instruction(op.STL, src1=value, src2=base, disp=disp,
                               category=category))

    def stw(self, value, base, disp=0, category=None):
        self._emit(Instruction(op.STW, src1=value, src2=base, disp=disp,
                               category=category))

    def stb(self, value, base, disp=0, category=None):
        self._emit(Instruction(op.STB, src1=value, src2=base, disp=disp,
                               category=category))

    # Branches.
    def br(self, target, category=None):
        self._emit(Instruction(op.BR, target=target, category=category))

    def beq(self, ra, target, category=None):
        self._emit(Instruction(op.BEQ, src1=ra, target=target, category=category))

    def bne(self, ra, target, category=None):
        self._emit(Instruction(op.BNE, src1=ra, target=target, category=category))

    def blt(self, ra, target, category=None):
        self._emit(Instruction(op.BLT, src1=ra, target=target, category=category))

    def ble(self, ra, target, category=None):
        self._emit(Instruction(op.BLE, src1=ra, target=target, category=category))

    def bgt(self, ra, target, category=None):
        self._emit(Instruction(op.BGT, src1=ra, target=target, category=category))

    def bge(self, ra, target, category=None):
        self._emit(Instruction(op.BGE, src1=ra, target=target, category=category))

    def halt(self):
        self._emit(Instruction(op.HALT))

    # Crypto extensions (only legal at Features.OPT, except plain rotates
    # which are legal at Features.ROT).
    def _require(self, needed: Features, what: str) -> None:
        if self.features < needed:
            raise RuntimeError(
                f"{what} requires {needed.name} features, kernel is "
                f"{self.features.name}"
            )

    def roll(self, dest, ra, rb, category=None):
        self._require(Features.ROT, "roll")
        self._operate(op.ROLL, dest, ra, rb, category)

    def rorl(self, dest, ra, rb, category=None):
        self._require(Features.ROT, "rorl")
        self._operate(op.RORL, dest, ra, rb, category)

    def rolq(self, dest, ra, rb, category=None):
        self._require(Features.ROT, "rolq")
        self._operate(op.ROLQ, dest, ra, rb, category)

    def rorq(self, dest, ra, rb, category=None):
        self._require(Features.ROT, "rorq")
        self._operate(op.RORQ, dest, ra, rb, category)

    def rolxl(self, dest, ra, amount, category=None):
        self._require(Features.OPT, "rolxl")
        self._operate(op.ROLXL, dest, ra, Imm(amount & 31), category)

    def rorxl(self, dest, ra, amount, category=None):
        self._require(Features.OPT, "rorxl")
        self._operate(op.RORXL, dest, ra, Imm(amount & 31), category)

    def mulmod(self, dest, ra, rb, category=None):
        self._require(Features.OPT, "mulmod")
        self._operate(op.MULMOD, dest, ra, rb, category)

    def grpl(self, dest, ra, rb, category=None):
        self._require(Features.OPT, "grpl")
        self._operate(op.GRPL, dest, ra, rb, category)

    def grpq(self, dest, ra, rb, category=None):
        self._require(Features.OPT, "grpq")
        self._operate(op.GRPQ, dest, ra, rb, category)

    def sbox(self, dest, table_base, index, byte_index, table_id,
             aliased=False, category=None):
        self._require(Features.OPT, "sbox")
        self._emit(Instruction(
            op.SBOX, dest=dest, src1=table_base, src2=index,
            bsel=byte_index, table=table_id, aliased=aliased,
            category=category,
        ))

    def sboxsync(self, table_id, category=None):
        self._require(Features.OPT, "sboxsync")
        self._emit(Instruction(op.SBOXSYNC, table=table_id, category=category))

    def xbox(self, dest, ra, map_reg, byte_index, category=None):
        self._require(Features.OPT, "xbox")
        self._emit(Instruction(
            op.XBOX, dest=dest, src1=ra, src2=map_reg, bsel=byte_index,
            category=category,
        ))

    # ------------------------------------------------------------------ #
    # Feature-gated idiom helpers (the paper's recoding knobs)
    # ------------------------------------------------------------------ #

    def rotl32(self, dest, src, amount: int, category=op.ROTATE) -> None:
        """dest = rotl32(src, constant amount).

        OPT/ROT: one ROLL.  NOROT: three instructions / two cycles (the
        paper's synthesized constant rotate): the shifted halves cannot
        overlap, so a 32-bit add merges them.
        """
        amount &= 31
        if self.features.has_rotates:
            self.roll(dest, src, Imm(amount), category=category)
            return
        t0, t1 = SCRATCH_REGS[0], SCRATCH_REGS[1]
        self.sll(t0, src, Imm(amount), category=category)
        self.srl(t1, src, Imm(32 - amount), category=category)
        self.addl(dest, t0, t1, category=category)

    def rotr32(self, dest, src, amount: int, category=op.ROTATE) -> None:
        self.rotl32(dest, src, (32 - amount) & 31, category=category)

    def rotl32_var(self, dest, src, amount_reg: int, masked: bool = False,
                   category=op.ROTATE) -> None:
        """dest = rotl32(src, reg amount).

        OPT/ROT: one ROLL.  NOROT: the paper's four-instruction synthesized
        variable rotate (three if the amount is already masked to 0..31).
        ``src`` must be a zero-extended 32-bit value.
        """
        if self.features.has_rotates:
            self.roll(dest, src, amount_reg, category=category)
            return
        t0, t1, t2 = SCRATCH_REGS
        shift = amount_reg
        if not masked:
            self.and_(t2, amount_reg, Imm(31), category=category)
            shift = t2
        self.sll(t0, src, shift, category=category)
        self.srl(t1, t0, Imm(32), category=category)
        self.addl(dest, t0, t1, category=category)

    def rotr32_var(self, dest, src, amount_reg: int, masked: bool = False,
                   category=op.ROTATE) -> None:
        """dest = rotr32(src, reg amount) = rotl32(src, 32 - amount)."""
        if self.features.has_rotates:
            self.rorl(dest, src, amount_reg, category=category)
            return
        # rotl by (32 - amount) mod 32: negate, then the masked-rotate idiom.
        t2 = SCRATCH_REGS[2]
        self.subq(t2, self.zero, amount_reg, category=category)
        self.rotl32_var(dest, src, t2, masked=False, category=category)

    def rotl32_xor(self, dest, src, amount: int, category=op.ROTATE) -> None:
        """dest ^= rotl32(src, constant amount) -- the ROLX combining op.

        OPT: one ROLXL.  ROT: ROLL + XOR.  NOROT: synthesized rotate + XOR.
        """
        if self.features.has_crypto:
            self.rolxl(dest, src, amount, category=category)
            return
        t2 = SCRATCH_REGS[2]
        self.rotl32(t2, src, amount, category=category)
        self.xor(dest, dest, t2, category=category)

    def sbox_lookup(self, dest, table_base, index, byte_index: int,
                    table_id: int, aliased: bool = False,
                    category=op.SUBST) -> None:
        """dest = table[byte_index'th byte of index], 256x32-bit table.

        OPT: one SBOX instruction (2 cycles via the d-cache port, 1 via an
        SBox cache).  Baseline: the paper's three-instruction sequence --
        extract byte, scaled add, load (5 cycles).
        """
        if self.features.has_crypto:
            self.sbox(dest, table_base, index, byte_index, table_id,
                      aliased=aliased, category=category)
            return
        t0 = SCRATCH_REGS[0]
        self.extbl(t0, index, Imm(byte_index), category=category)
        self.s4addq(t0, t0, table_base, category=category)
        self.ldl(dest, t0, 0, category=category)

    def mulmod16(self, dest, ra, rb, category=op.MULTIPLY) -> None:
        """dest = IDEA multiply of two 16-bit operands (0 means 2^16).

        OPT: one 4-cycle MULMOD.  Baseline: the standard software low-high
        decomposition with a (highly biased) zero test, as in the Ascom IDEA
        code the paper measured.
        """
        if self.features.has_crypto:
            self.mulmod(dest, ra, rb, category=category)
            return
        t0, t1, t2 = SCRATCH_REGS
        zero_case = self.unique_label("mulmod_zero")
        done = self.unique_label("mulmod_done")
        # Alpha has no 16-bit registers: mask both operands (the Compaq
        # compiler emits the same ZAPNOTs for uint16 arithmetic).  MULMOD
        # hardware masks internally, so the OPT path above skips this.
        self.zapnot(t1, ra, Imm(0x3), category=category)
        self.zapnot(t2, rb, Imm(0x3), category=category)
        ra, rb = t1, t2
        self.mull(t0, ra, rb, category=category)
        self.beq(t0, zero_case, category=op.CONTROL)
        self.srl(t1, t0, Imm(16), category=category)       # hi
        self.zapnot(t0, t0, Imm(0x3), category=category)   # lo (16 bits)
        self.cmpult(t2, t0, t1, category=category)         # borrow
        self.subl(t0, t0, t1, category=category)
        self.addl(t0, t0, t2, category=category)
        self.zapnot(dest, t0, Imm(0x3), category=category)
        self.br(done, category=op.CONTROL)
        self.label(zero_case)
        # t0 (the zero product) is free here; ra/rb live in t1/t2.
        self.ldiq(t0, 1, category=category)
        self.subl(t0, t0, ra, category=category)
        self.subl(t0, t0, rb, category=category)
        self.zapnot(dest, t0, Imm(0x3), category=category)
        self.label(done)

    def permute64(self, dest, src, map_regs: list[int],
                  category=op.PERMUTE) -> None:
        """dest = 64-bit bit-permutation of src given 8 preloaded map registers.

        OPT only: 8 XBOX (one per destination byte) + 7 OR merges -- the
        64-bit analogue of the paper's 7-instruction 32-bit permutation.
        Baseline kernels use algorithm-specific shift/mask idioms instead
        (see the 3DES kernel's PERM_OP).
        """
        self._require(Features.OPT, "permute64")
        if len(map_regs) != 8:
            raise ValueError("permute64 needs 8 permutation-map registers")
        t0 = SCRATCH_REGS[0]
        for byte_index in range(8):
            target = dest if byte_index == 0 else t0
            self.xbox(target, src, map_regs[byte_index], byte_index,
                      category=category)
            if byte_index:
                self.bis(dest, dest, t0, category=category)

    def permute64_grp(self, dest, src, controls: list[int],
                      category=op.PERMUTE) -> None:
        """dest = 64-bit permutation of src via six GRPQ stages (section 7).

        ``controls`` are the stage words from ``repro.isa.grp.grp_controls``;
        each is materialized with LDIQ into assembler scratch.  Six GRPs
        versus XBOX's 8-XBOX + 7-OR -- the Shi & Lee advantage the paper
        acknowledges.
        """
        self._require(Features.OPT, "permute64_grp")
        if len(controls) != 6:
            raise ValueError("a 64-bit GRP permutation needs 6 stage controls")
        t_ctrl = SCRATCH_REGS[1]
        current = src
        for control in controls:
            self.ldiq(t_ctrl, control, category=category)
            self.grpq(dest, current, t_ctrl, category=category)
            current = dest
