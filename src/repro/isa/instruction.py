"""The RISC-A instruction record.

A single mutable-until-finalized dataclass covers every format; the
functional and timing simulators read the fields appropriate to the opcode's
format (see ``repro.isa.opcodes``).  Field conventions:

* ``dest`` -- destination register (or None).
* ``src1`` -- first source register: operate ra, store *value* register,
  conditional-branch test register, SBOX *table base*, XBOX operand.
* ``src2`` -- second source register: operate rb (None when ``lit`` is used),
  memory *base* register, SBOX *index*, XBOX permutation map.
* ``lit`` -- 8-bit operate literal, or the 64-bit LDIQ immediate.
* ``disp`` -- signed 16-bit memory displacement.
* ``target`` -- branch target: a label string until the program is finalized,
  then an instruction index.
* ``table``/``bsel``/``aliased`` -- SBOX/XBOX modifiers.
* ``category`` -- Figure 7 operation category (builder helpers override the
  opcode default when an instruction belongs to a synthesized idiom).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import SPECS, OpSpec


@dataclass
class Instruction:
    code: int
    dest: int | None = None
    src1: int | None = None
    src2: int | None = None
    lit: int | None = None
    disp: int = 0
    target: str | int | None = None
    table: int = 0
    bsel: int = 0
    aliased: bool = False
    category: str | None = None

    def __post_init__(self) -> None:
        if self.code not in SPECS:
            raise ValueError(f"unknown opcode code {self.code}")
        if self.category is None:
            self.category = self.spec.category

    @property
    def spec(self) -> OpSpec:
        return SPECS[self.code]

    @property
    def name(self) -> str:
        return self.spec.name

    def source_regs(self) -> tuple[int, ...]:
        """Registers this instruction reads (for dependence tracking)."""
        sources = []
        if self.src1 is not None:
            sources.append(self.src1)
        if self.src2 is not None:
            sources.append(self.src2)
        if self.spec.reads_dest and self.dest is not None:
            sources.append(self.dest)
        return tuple(sources)

    def render(self) -> str:
        """Assembly-like rendering (for disassembly listings and debugging)."""
        spec = self.spec
        name = spec.name
        if spec.fmt == "none":
            return name
        if spec.fmt == "sync":
            return f"{name}.{self.table}"
        if spec.fmt == "ldi":
            return f"{name} r{self.dest}, 0x{self.lit:x}"
        if spec.fmt == "mem":
            if spec.klass == "store":
                return f"{name} r{self.src1}, {self.disp}(r{self.src2})"
            return f"{name} r{self.dest}, {self.disp}(r{self.src2})"
        if spec.fmt == "br":
            reg = "" if self.src1 is None else f"r{self.src1}, "
            return f"{name} {reg}{self.target}"
        if spec.fmt == "sbox":
            suffix = ".a" if self.aliased else ""
            return (
                f"{name}.{self.table}.{self.bsel}{suffix} "
                f"r{self.src1}, r{self.src2}, r{self.dest}"
            )
        if spec.fmt == "xbox":
            return f"{name}.{self.bsel} r{self.src1}, r{self.src2}, r{self.dest}"
        # operate format (destination first, matching the assembler syntax)
        rb = f"#{self.lit}" if self.src2 is None else f"r{self.src2}"
        return f"{name} r{self.dest}, r{self.src1}, {rb}"
