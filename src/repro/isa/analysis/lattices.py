"""The lattice library: transfer functions over parallel instruction arrays.

Each ``make_*_step(arrays)`` returns a transfer function ``step(state, i)``
mutating a 33-slot per-register state in place (slots 0..31 are the
architectural registers, slot 32 is the discard slot that array builders
map ``r31``/no-dest writes to).  ``arrays`` is anything exposing the
compiled backend's parallel arrays -- a :class:`repro.sim.machine.Machine`
or a :class:`repro.isa.analysis.passes.ProgramArrays` -- so one transfer
function serves both the backend's elision fixpoint and program-level
analysis.

Lattices:

* **width** (`make_width_step`): register -> ``w`` such that the value is
  known to be a non-negative int < 2**w (``w`` <= 64), or
  :data:`UNKNOWN_WIDTH`.  Join is ``max`` (wider is less precise);
  :func:`infer_widths` widens and then narrows, so a loop-carried width
  does not climb one bit per pass.
* **trailing zeros** (`make_tz_step`): register -> ``t`` such that the low
  ``t`` bits are known zero.  Join is ``min``.
* **constants** (`make_const_step`): register -> the exact interpreter
  value, or ``None``.  Join keeps a value only when both sides agree.
* **value range** (`make_range_step`): register -> ``(lo, hi)`` bounds on
  the held value (which is then provably non-negative), or ``None`` for
  no information.  Join is the interval hull; :func:`infer_ranges` adds
  widening, then narrowing, so loop-carried intervals converge.

The compiled backend runs the width, trailing-zeros and constant
fixpoints to decide which masks and checks its code can drop; the
verifier, the cost model and the alias pass read the same lattices
through :class:`~repro.isa.analysis.passes.ProgramAnalyses`.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.isa.analysis.cfg import CFG
from repro.isa.analysis.solver import infer_dataflow
from repro.isa.opcodes import (
    ADDL, ADDQ, AND, BIC, BIS, CMOVEQ, CMOVNE, INSBL, LDA, LDIQ, MULL, MULQ,
    ORNOT, ROLQ, RORQ, S4ADDQ, S8ADDQ, SLL, SPECS, SRA, SRL, SUBL, SUBQ,
    XBOX, XOR, ZAPNOT,
)

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

#: Register-width lattice top: value may be negative or >= 2**64, so no
#: mask or sign-handling may be elided.
UNKNOWN_WIDTH = 999

#: Opcodes that write a register result (everything but control flow,
#: stores, SBOXSYNC and HALT).  CMOV writes conditionally but still
#: needs its destination pinned and written back.
WRITES_DEST = frozenset(
    spec.code for spec in SPECS.values() if spec.writes_dest
)

#: Opcodes whose result always fits in a fixed number of bits.
_RESULT_BITS: "dict[int, int]" = {
    spec.code: spec.result_bits for spec in SPECS.values()
    if spec.result_bits is not None
}
_ADD_SUB = frozenset({ADDQ, SUBQ, ADDL, SUBL})


class InstructionArrays(Protocol):
    """The parallel-array program representation the lattices consume."""

    code: Sequence[int]
    dest: Sequence[int]
    src1: Sequence[int]
    src2: Sequence[int]
    lit: "Sequence[int | None]"
    disp: Sequence[int]
    bsel: Sequence[int]


Step = Callable[[list, int], None]


def lit_width(value: "int | None") -> "int | None":
    """Bits needed for a literal; negative literals are unknown-width."""
    if value is None:
        return None
    return value.bit_length() if value >= 0 else UNKNOWN_WIDTH


#: ZAPNOT byte-select -> 64-bit mask keeping the selected bytes.
ZAPNOT_MASKS = tuple(
    sum(0xFF << (8 * bit) for bit in range(8) if sel & (1 << bit))
    for sel in range(256)
)


def tz_of_int(value: int) -> int:
    """Trailing zero bits of a 64-bit value pattern (tz(0) == 64)."""
    value &= M64
    if value == 0:
        return 64
    return (value & -value).bit_length() - 1


# --------------------------------------------------------------------- #
# Width lattice
# --------------------------------------------------------------------- #

def make_width_step(arrays: InstructionArrays) -> Step:
    """Transfer function of the register-width dataflow.

    ``state`` maps register slot -> w such that the value is known to be
    a non-negative int < 2**w (w <= 64), or ``UNKNOWN_WIDTH``.  Shared by
    the fixpoint and by the compiled backend's code emission, so elision
    decisions always see exactly the widths the analysis proved.
    """
    code, dest, src1, src2 = (
        arrays.code, arrays.dest, arrays.src1, arrays.src2,
    )
    lit, disp, bsel = arrays.lit, arrays.disp, arrays.bsel

    def step(state: list, i: int) -> None:
        c = code[i]
        if c not in WRITES_DEST:
            return
        d = dest[i]
        w1 = 0 if src1[i] == 31 else state[src1[i]]
        L = lit[i]
        lw = lit_width(L)
        wb = lw if lw is not None else (
            0 if src2[i] == 31 else state[src2[i]]
        )
        if c == ADDQ:
            w = max(w1, wb) + 1 if max(w1, wb) < 64 else 64
        elif c == SUBQ:
            w = 64
        elif c == ADDL:
            w = max(w1, wb) + 1 if max(w1, wb) < 32 else 32
        elif c == AND:  # a >= 0, so the result <= a even for negative b
            w = min(w1, wb) if wb != UNKNOWN_WIDTH else w1
        elif c == BIS or c == XOR:
            w = max(w1, wb)
        elif c == BIC:  # result <= a
            w = min(w1, 64)
        elif c == ORNOT:
            w = 64
        elif c == SLL:
            if L is not None and w1 != UNKNOWN_WIDTH:
                w = min(w1 + (L & 63), 64)
            else:
                w = 64
        elif c == SRL:
            if w1 == UNKNOWN_WIDTH:
                w = UNKNOWN_WIDTH
            elif L is not None:
                w = max(w1 - (L & 63), 0)
            else:
                w = w1
        elif c == SRA:
            if w1 <= 63:
                w = max(w1 - (L & 63), 0) if L is not None else w1
            else:
                w = 64
        elif c == MULL:
            w1m = min(w1, 32)
            wbm = (L & M32).bit_length() if L is not None else min(wb, 32)
            w = min(w1m + wbm, 32)
        elif c == MULQ:
            w = w1 + wb if w1 + wb <= 64 else 64
        elif c == INSBL:
            w = 8 + (L & 7) * 8 if L is not None else 64
        elif c == ZAPNOT:
            if L is not None:
                w = min(w1, ZAPNOT_MASKS[L & 0xFF].bit_length())
            else:
                w = min(w1, 64)
        elif c == S4ADDQ:
            m = max(w1 + 2, wb)
            w = m + 1 if m < 64 else 64
        elif c == S8ADDQ:
            m = max(w1 + 3, wb)
            w = m + 1 if m < 64 else 64
        elif c == CMOVEQ or c == CMOVNE:  # may keep the old value
            w = max(state[d], wb)
        elif c == LDA:
            base = src2[i]
            dp = disp[i]
            if base == 31:
                w = (dp & M64).bit_length()
            else:
                wb2 = state[base]
                if dp == 0:
                    w = min(wb2, 64)
                elif wb2 != UNKNOWN_WIDTH and dp > 0:
                    m = max(wb2, dp.bit_length())
                    w = m + 1 if m < 64 else 64
                else:
                    w = 64
        elif c == LDIQ:
            w = lw if lw is not None else UNKNOWN_WIDTH
        elif c == ROLQ or c == RORQ:
            w = w1 if (L is not None and not (
                (L & 63) if c == ROLQ else ((64 - (L & 63)) & 63))) else 64
        elif c == XBOX:
            w = bsel[i] * 8 + 8
        else:
            w = _RESULT_BITS[c]
        state[d] = min(w, UNKNOWN_WIDTH)

    return step


def infer_widths(cfg: CFG, step: Step) -> "list[list[int]]":
    """Register widths: bigger is less precise, so the join is ``max``.

    A loop-carried width climbs one bit per pass around its loop, so a
    (block, register) fact enlarged a second time widens to 64 (or
    stays :data:`UNKNOWN_WIDTH`), and narrowing then recomputes what the
    loop actually bounds, such as a counter masked to 8 bits.
    """
    return infer_dataflow(cfg, step, top=64, join=max, widen_after=1)


# --------------------------------------------------------------------- #
# Trailing-zeros lattice
# --------------------------------------------------------------------- #

def make_tz_step(arrays: InstructionArrays) -> Step:
    """Transfer function of the register-alignment dataflow.

    ``state`` maps register slot -> t such that the value's low ``t``
    bits are known to be zero (a lower bound; smaller is less precise).
    Used to elide alignment checks on load/store addresses.  All rules
    hold modulo 2**64, so the masked/unmasked distinction of the width
    lattice is irrelevant here.
    """
    code, dest, src1, src2 = (
        arrays.code, arrays.dest, arrays.src1, arrays.src2,
    )
    lit, disp = arrays.lit, arrays.disp

    def step(state: list, i: int) -> None:
        c = code[i]
        if c not in WRITES_DEST:
            return
        d = dest[i]
        s1 = src1[i]
        t1 = 64 if s1 == 31 else state[s1]
        L = lit[i]
        if L is not None:
            tb = tz_of_int(L)
        elif src2[i] == 31:
            tb = 64
        else:
            tb = state[src2[i]]
        if c in _ADD_SUB:  # add/sub: masking never touches low bits
            state[d] = min(t1, tb)
        elif c == AND:  # only clears bits
            state[d] = max(t1, tb)
        elif c == BIS or c == XOR:
            state[d] = min(t1, tb)
        elif c == BIC or c == ZAPNOT:  # keep or clear source bits
            state[d] = t1
        elif c == SLL:
            state[d] = min(t1 + (L & 63), 64) if L is not None else t1
        elif c == SRL or c == SRA:
            state[d] = max(t1 - (L & 63), 0) if L is not None else 0
        elif c == MULL or c == MULQ:
            state[d] = min(t1 + tb, 64)
        elif c == INSBL:  # (a & 0xFF) << (s * 8)
            state[d] = min(t1 + (L & 7) * 8, 64) if L is not None else t1
        elif c == S4ADDQ:
            state[d] = min(t1 + 2, tb)
        elif c == S8ADDQ:
            state[d] = min(t1 + 3, tb)
        elif c == CMOVEQ or c == CMOVNE:  # old value or the new operand
            state[d] = min(state[d], tb)
        elif c == LDA:
            dtz = tz_of_int(disp[i])
            base = src2[i]
            state[d] = dtz if base == 31 else min(state[base], dtz)
        elif c == LDIQ:
            state[d] = tz_of_int(L)
        else:  # loads, compares, rotates, GRP, XBOX, MULMOD, SBOX...
            state[d] = 0

    return step


def infer_trailing_zeros(cfg: CFG, step: Step) -> "list[list[int]]":
    """Trailing zeros: smaller is less precise, so the join is ``min``."""
    return infer_dataflow(cfg, step, top=0, join=min)


# --------------------------------------------------------------------- #
# Constant lattice
# --------------------------------------------------------------------- #

def const_join(a: "int | None", b: "int | None") -> "int | None":
    return a if a == b else None


def make_const_step(arrays: InstructionArrays) -> Step:
    """Transfer function of the register-constant dataflow.

    ``state`` maps register slot -> the exact value the interpreter
    would hold (LDIQ stores its literal raw, LDA masks to 64 bits), or
    ``None`` when unknown.  Only immediate-forming opcodes propagate;
    everything else conservatively clobbers.  Proved constants fold
    into operand positions, where CPython's own constant folding then
    collapses expressions like ``(4096 & -1024)``.
    """
    code, dest, src2 = arrays.code, arrays.dest, arrays.src2
    lit, disp = arrays.lit, arrays.disp

    def step(state: list, i: int) -> None:
        c = code[i]
        if c not in WRITES_DEST:
            return
        d = dest[i]
        if c == LDIQ:
            state[d] = lit[i]
        elif c == LDA:
            base = src2[i]
            bv = 0 if base == 31 else state[base]
            state[d] = None if bv is None else (bv + disp[i]) & M64
        else:
            state[d] = None

    return step


def infer_constants(cfg: CFG, step: Step) -> "list[list]":
    """Exact constants: the join keeps a value only when paths agree."""
    return infer_dataflow(cfg, step, top=None, join=const_join)


# --------------------------------------------------------------------- #
# Value-range lattice
# --------------------------------------------------------------------- #

#: An interval fact ``(lo, hi)``: the register provably holds a plain
#: non-negative int in that range.  ``None`` is top (no information; the
#: value may even be a negative or >= 2**64 raw literal).
Range = "tuple[int, int] | None"


def range_join(a: Range, b: Range) -> Range:
    """Interval hull; ``None`` (no information) absorbs."""
    if a is None or b is None:
        return None
    return (min(a[0], b[0]), max(a[1], b[1]))


def make_range_step(arrays: InstructionArrays) -> Step:
    """Transfer function of the value-range dataflow.

    Every rule is justified against the functional interpreter: a fact is
    produced only when the opcode's result is provably a non-negative
    Python int within the interval for *any* operand values consistent
    with the incoming facts.  Opcodes that can produce negative or
    unmasked values (SUBQ, ORNOT, SRA of wide values, raw negative
    literals) go straight to top.
    """
    code, dest, src1, src2 = (
        arrays.code, arrays.dest, arrays.src1, arrays.src2,
    )
    lit, disp, bsel = arrays.lit, arrays.disp, arrays.bsel

    def operand(reg: int, state: list) -> Range:
        return (0, 0) if reg == 31 else state[reg]

    def step(state: list, i: int) -> None:
        c = code[i]
        if c not in WRITES_DEST:
            return
        d = dest[i]
        r1 = operand(src1[i], state)
        L = lit[i]
        if L is not None:
            rb: Range = (L, L) if 0 <= L <= M64 else None
        else:
            rb = operand(src2[i], state)
        out: Range = None
        if c == ADDQ:
            if r1 is not None and rb is not None \
                    and r1[1] + rb[1] <= M64:
                out = (r1[0] + rb[0], r1[1] + rb[1])
        elif c == ADDL:
            if r1 is not None and rb is not None \
                    and r1[1] + rb[1] <= M32:
                out = (r1[0] + rb[0], r1[1] + rb[1])
            else:
                out = (0, M32)
        elif c == AND:  # in [0, min(hi)] when either side is known
            if r1 is not None and rb is not None:
                out = (0, min(r1[1], rb[1]))
            elif r1 is not None:
                out = (0, r1[1])
            elif rb is not None:
                out = (0, rb[1])
        elif c == BIS:  # >= each operand, < next power of two
            if r1 is not None and rb is not None:
                bits = max(r1[1].bit_length(), rb[1].bit_length())
                out = (max(r1[0], rb[0]), min((1 << bits) - 1, M64))
        elif c == XOR:
            if r1 is not None and rb is not None:
                bits = max(r1[1].bit_length(), rb[1].bit_length())
                out = (0, min((1 << bits) - 1, M64))
        elif c == BIC:  # result <= a
            if r1 is not None:
                out = (0, r1[1])
        elif c == SLL:
            if L is not None and r1 is not None \
                    and (r1[1] << (L & 63)) <= M64:
                out = (r1[0] << (L & 63), r1[1] << (L & 63))
        elif c == SRL:
            if r1 is not None:
                if L is not None:
                    out = (r1[0] >> (L & 63), r1[1] >> (L & 63))
                else:
                    out = (0, r1[1])
        elif c == SRA:  # equals SRL while the sign bit is clear
            if r1 is not None and r1[1] < 1 << 63:
                if L is not None:
                    out = (r1[0] >> (L & 63), r1[1] >> (L & 63))
                else:
                    out = (0, r1[1])
        elif c == MULL:
            out = (0, M32)
        elif c == MULQ:
            if r1 is not None and rb is not None \
                    and r1[1] * rb[1] <= M64:
                out = (r1[0] * rb[0], r1[1] * rb[1])
        elif c == INSBL:
            if L is not None:
                out = (0, 0xFF << ((L & 7) * 8))
        elif c == ZAPNOT:  # a & mask, so bounded by both
            if L is not None:
                mask = ZAPNOT_MASKS[L & 0xFF]
                hi = min(r1[1], mask) if r1 is not None else mask
                out = (0, hi)
            elif r1 is not None:
                out = (0, r1[1])
        elif c == S4ADDQ:
            if r1 is not None and rb is not None \
                    and 4 * r1[1] + rb[1] <= M64:
                out = (4 * r1[0] + rb[0], 4 * r1[1] + rb[1])
        elif c == S8ADDQ:
            if r1 is not None and rb is not None \
                    and 8 * r1[1] + rb[1] <= M64:
                out = (8 * r1[0] + rb[0], 8 * r1[1] + rb[1])
        elif c == CMOVEQ or c == CMOVNE:  # old value or the new operand
            out = range_join(state[d], rb)
        elif c == LDA:
            base = src2[i]
            dp = disp[i]
            if base == 31:
                v = dp & M64
                out = (v, v)
            else:
                rb2 = state[base]
                if rb2 is not None and rb2[0] + dp >= 0 \
                        and rb2[1] + dp <= M64:
                    out = (rb2[0] + dp, rb2[1] + dp)
        elif c == LDIQ:  # raw literal; a negative one stays unmasked
            if L is not None and 0 <= L <= M64:
                out = (L, L)
        elif c == ROLQ or c == RORQ:
            out = (0, M64)
        elif c == XBOX:
            out = (0, (1 << (bsel[i] * 8 + 8)) - 1)
        elif c in _RESULT_BITS:
            out = (0, (1 << _RESULT_BITS[c]) - 1)
        state[d] = out

    return step


#: Interval joins tolerated per (block, register) before widening to top.
WIDEN_AFTER = 3


def infer_ranges(cfg: CFG, step: Step) -> "list[list]":
    """Value ranges with widening, so loop-carried intervals converge.

    The plain hull join never terminates on a counted loop (the induction
    variable's interval grows by one step per fixpoint pass), so after a
    register's interval at a block entry has been enlarged
    :data:`WIDEN_AFTER` times it is widened straight to top.  Widening
    only ever *loses* precision, so soundness is unaffected; the
    narrowing phase that follows wins back intervals a loop re-bounds.
    """
    return infer_dataflow(cfg, step, top=None, join=range_join,
                          widen_after=WIDEN_AFTER)
