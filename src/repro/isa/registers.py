"""RISC-A register file conventions.

32 integer registers of 64 bits.  ``r31`` always reads as zero and writes to
it are discarded, like the Alpha.  The paper's ISA extensions deliberately
stay within two register sources and one destination (plus an in-instruction
literal) to avoid adding register file ports -- see paper section 5.
"""

from __future__ import annotations

NUM_REGS = 32
ZERO_REG = 31
#: Registers reserved as assembler scratch for idiom expansions
#: (:class:`repro.isa.builder.KernelBuilder` re-exports this).
SCRATCH_REGS = (28, 29, 30)


def parse_reg(token: str) -> int:
    """Parse 'r<N>' (or 'zero') into a register index."""
    token = token.strip().lower()
    if token == "zero":
        return ZERO_REG
    if token.startswith("r"):
        try:
            index = int(token[1:])
        except ValueError as exc:
            raise ValueError(f"bad register {token!r}") from exc
        if 0 <= index < NUM_REGS:
            return index
    raise ValueError(f"bad register {token!r}")
