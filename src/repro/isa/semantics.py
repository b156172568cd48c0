"""The ISA semantics, written once: one source emitter per opcode.

Each emitter in :data:`EMITTERS`, keyed by OpSpec name, writes the Python
statements that execute one instruction (a branch's emitter returns its
taken condition: ``True``, ``False`` or an expression).  It writes them
against :class:`Facts`: operand expressions with their proved widths and
constants, the literal, displacement, byte select, static pc, memory size
and recording mode.  A fact known at generation time folds into the code
and drops the masks and checks its proof covers; a :class:`Run` fact is
the expression that reads it at run time.  Both functional backends are
generated from these emitters: the interpreter's dispatch arms from the
default facts, where nothing is known, and the compiled backend's code
by calling each emitter per static instruction with what its lattices
proved.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.isa import opcodes as op
from repro.isa.analysis.lattices import UNKNOWN_WIDTH, ZAPNOT_MASKS, tz_of_int

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
MSB = 0x8000000000000000


class Run(str):
    """A fact read at run time: the source expression that reads it."""


class Facts:
    """What an emitter knows about one instruction: by default nothing.

    ``D`` is the destination; ``A``/``wa``/``ca`` the first operand's
    expression, proved width and constant; ``B``/``wb`` the second
    operand (the literal or the ``src2`` register); ``L`` the literal
    (``None`` in register form).  The defaults read everything from the
    decoded arrays at run time and access memory through portable
    ``int.from_bytes``/``to_bytes`` slices -- the interpreter's arms.
    Emitters of memory opcodes set ``addr`` to the address the trace
    records; the frame defines ``lim<size>`` (the largest in-range
    address), ``_zap`` (:data:`ZAPNOT_MASKS`), ``_grp`` and ``_xbox``.
    """

    D = "regs[dest[pc]]"
    A = "regs[src1[pc]]"
    B = "(lit[pc] if lit[pc] is not None else regs[src2[pc]])"
    wa: int = UNKNOWN_WIDTH
    wb: int = UNKNOWN_WIDTH
    ca: "int | None" = None
    L: "int | None | Run" = Run("lit[pc]")
    disp: "int | Run" = Run("disp[pc]")
    bsel: "int | Run" = Run("bsel[pc]")
    pc: "int | Run" = Run("pc")
    mem_size: "int | Run" = Run("mem_size")
    trace: "bool | Run" = Run("record_trace")
    addr_name = "addr"
    addr: "str | None" = None

    def count(self, key: str) -> None:
        """Record one elision or fold decision (compiled reports)."""

    def reg2(self) -> "tuple[str, int]":
        """Expression and width of the ``src2`` register itself."""
        return "regs[src2[pc]]", UNKNOWN_WIDTH

    def base(self) -> "tuple[str, int, int | None, int]":
        """The address base: expression, width, constant, trailing zeros."""
        return "regs[src2[pc]]", UNKNOWN_WIDTH, None, 0

    def load(self, size: int, addr: str) -> str:
        if size == 1:
            return f"data[{addr}]"
        return f"int.from_bytes(data[{addr} : {addr} + {size}], 'little')"

    def load_word(self, index: str) -> str:
        """The 4-byte word at word index ``index``.

        Only SBOX asks, and only when no trace records its address, so
        run-time facts never reach it.
        """
        raise NotImplementedError

    def store(self, size: int, addr: str, value: str) -> str:
        return (f"data[{addr} : {addr} + {size}]"
                f" = ({value}).to_bytes({size}, 'little')")


#: OpSpec name -> emitter: statements, or a branch's taken condition.
EMITTERS: "dict[str, Callable[[Facts], Any]]" = {}


def _emits(name: str, **params: object):
    """Register the decorated emitter for opcode ``name``."""
    def register(fn):
        EMITTERS[name] = partial(fn, **params) if params else fn
        return fn
    return register


def _unproved(bound: int, f: Facts, size: int) -> bool:
    """Whether an address bounded by ``bound`` may overrun memory."""
    return isinstance(f.mem_size, Run) or bound > f.mem_size - size


# --------------------------------------------------------------------- #
# Integer operates
# --------------------------------------------------------------------- #

@_emits("xor", sym="^")
@_emits("bis", sym="|")
def _or_like(f: Facts, sym: str) -> "list[str]":
    if f.A == "0":
        return [f"{f.D} = {f.B}"]
    if f.B == "0":
        return [f"{f.D} = {f.A}"]
    return [f"{f.D} = {f.A} {sym} {f.B}"]


@_emits("and")
def _and(f: Facts) -> "list[str]":
    L, wa = f.L, f.wa
    if f.A == "0" or f.B == "0":
        return [f"{f.D} = 0"]
    if (isinstance(L, int) and wa <= 64
            and (L & M64) & ((1 << wa) - 1) == (1 << wa) - 1):
        f.count("masks_elided")
        return [f"{f.D} = {f.A}"]  # mask covers the proved width
    return [f"{f.D} = {f.A} & {f.B}"]


@_emits("addq", bits=64)
@_emits("addl", bits=32)
def _add(f: Facts, bits: int) -> "list[str]":
    A, B = f.A, f.B
    mask = (1 << bits) - 1
    expr = B if A == "0" else A if B == "0" else f"{A} + {B}"
    if max(f.wa, f.wb) < bits:
        f.count("masks_elided")
        return [f"{f.D} = {expr}"]
    if expr in (A, B):
        return [f"{f.D} = {expr} & {mask:#x}"]
    return [f"{f.D} = ({expr}) & {mask:#x}"]


@_emits("subq", bits=64)
@_emits("subl", bits=32)
def _sub(f: Facts, bits: int) -> "list[str]":
    if f.B == "0" and f.wa <= bits:
        f.count("masks_elided")
        return [f"{f.D} = {f.A}"]
    return [f"{f.D} = ({f.A} - {f.B}) & {(1 << bits) - 1:#x}"]


@_emits("bic")
def _bic(f: Facts) -> "list[str]":
    if isinstance(f.L, int):
        return [f"{f.D} = {f.A} & {(~f.L) & M64:#x}"]
    if f.B == "0":
        if f.wa <= 64:
            f.count("masks_elided")
            return [f"{f.D} = {f.A}"]
        return [f"{f.D} = {f.A} & {M64:#x}"]
    return [f"{f.D} = {f.A} & ~{f.B} & {M64:#x}"]


@_emits("ornot")
def _ornot(f: Facts) -> "list[str]":
    if isinstance(f.L, int):
        inner = f"{(~f.L) & M64:#x}"
    else:
        inner = f"(~{f.B} & {M64:#x})"
    if f.wa <= 64:
        f.count("masks_elided")
        return [f"{f.D} = {f.A} | {inner}"]
    return [f"{f.D} = ({f.A} | {inner}) & {M64:#x}"]


@_emits("sll")
def _sll(f: Facts) -> "list[str]":
    D, A, wa = f.D, f.A, f.wa
    if not isinstance(f.L, int):
        return [f"{D} = ({A} << ({f.B} & 63)) & {M64:#x}"]
    s = f.L & 63
    if s == 0:
        if wa <= 64:
            f.count("masks_elided")
            return [f"{D} = {A}"]
        return [f"{D} = {A} & {M64:#x}"]
    if wa + s <= 64:
        f.count("masks_elided")
        return [f"{D} = {A} << {s}"]
    return [f"{D} = ({A} << {s}) & {M64:#x}"]


@_emits("srl")
def _srl(f: Facts) -> "list[str]":
    if not isinstance(f.L, int):
        return [f"{f.D} = {f.A} >> ({f.B} & 63)"]
    s = f.L & 63
    return [f"{f.D} = {f.A}" if s == 0 else f"{f.D} = {f.A} >> {s}"]


@_emits("sra")
def _sra(f: Facts) -> "list[str]":
    D, A, L = f.D, f.A, f.L
    sh = str(L & 63) if isinstance(L, int) else f"({f.B} & 63)"
    if f.wa <= 63:
        f.count("masks_elided")
        if isinstance(L, int) and L & 63 == 0:
            return [f"{D} = {A}"]
        return [f"{D} = {A} >> {sh}"]
    return [
        f"t = {A}",
        f"if t & {MSB:#x}:",
        f"    t -= {1 << 64:#x}",
        f"{D} = (t >> {sh}) & {M64:#x}",
    ]


@_emits("mull")
def _mull(f: Facts) -> "list[str]":
    A, B, wa = f.A, f.B, f.wa
    am = A if wa <= 32 else f"({A} & {M32:#x})"
    if isinstance(f.L, int):
        bv = f.L & M32
        bm, wbm = str(bv), bv.bit_length()
    else:
        bm = B if f.wb <= 32 else f"({B} & {M32:#x})"
        wbm = min(f.wb, 32)
    if min(wa, 32) + wbm <= 32:
        f.count("masks_elided")
        return [f"{f.D} = {am} * {bm}"]
    return [f"{f.D} = ({am} * {bm}) & {M32:#x}"]


@_emits("mulq")
def _mulq(f: Facts) -> "list[str]":
    if f.wa + f.wb <= 64:
        f.count("masks_elided")
        return [f"{f.D} = {f.A} * {f.B}"]
    return [f"{f.D} = ({f.A} * {f.B}) & {M64:#x}"]


@_emits("cmplt", sym="<")
@_emits("cmple", sym="<=")
def _signed_compare(f: Facts, sym: str) -> "list[str]":
    out: "list[str]" = []
    if f.wa <= 63:
        f.count("masks_elided")
        left = f.A
    else:
        out += [f"t = {f.A}", f"if t & {MSB:#x}:", f"    t -= {1 << 64:#x}"]
        left = "t"
    if isinstance(f.L, int):
        right = str(f.L - (1 << 64) if f.L & MSB else f.L)
    elif f.wb <= 63:
        f.count("masks_elided")
        right = f.B
    else:
        out += [f"u = {f.B}", f"if u & {MSB:#x}:", f"    u -= {1 << 64:#x}"]
        right = "u"
    out.append(f"{f.D} = 1 if {left} {sym} {right} else 0")
    return out


@_emits("extbl")
def _extbl(f: Facts) -> "list[str]":
    D, A, wa = f.D, f.A, f.wa
    if not isinstance(f.L, int):
        return [f"{D} = ({A} >> (({f.B} & 7) * 8)) & 0xFF"]
    s = (f.L & 7) * 8
    if s:
        return [f"{D} = ({A} >> {s}) & 0xFF"]
    if wa <= 8:
        f.count("masks_elided")
        return [f"{D} = {A}"]
    return [f"{D} = {A} & 0xFF"]


@_emits("insbl")
def _insbl(f: Facts) -> "list[str]":
    am = f.A if f.wa <= 8 else f"({f.A} & 0xFF)"
    if not isinstance(f.L, int):
        return [f"{f.D} = {am} << (({f.B} & 7) * 8)"]
    s = (f.L & 7) * 8
    return [f"{f.D} = {am} << {s}" if s else f"{f.D} = {am}"]


@_emits("zapnot")
def _zapnot(f: Facts) -> "list[str]":
    if not isinstance(f.L, int):
        return [f"{f.D} = {f.A} & _zap[{f.B} & 0xFF]"]
    mask = ZAPNOT_MASKS[f.L & 0xFF]
    wa = f.wa
    if wa <= 64 and mask & ((1 << wa) - 1) == (1 << wa) - 1:
        f.count("masks_elided")
        return [f"{f.D} = {f.A}"]
    return [f"{f.D} = {f.A} & {mask:#x}"]


@_emits("s4addq", scale=4, extra=2)
@_emits("s8addq", scale=8, extra=3)
def _scaled_add(f: Facts, scale: int, extra: int) -> "list[str]":
    prod = f"{f.A} * {scale}"
    expr = prod if f.B == "0" else f"{prod} + {f.B}"
    if max(f.wa + extra, f.wb) < 64:
        f.count("masks_elided")
        return [f"{f.D} = {expr}"]
    return [f"{f.D} = ({expr}) & {M64:#x}"]


@_emits("cmoveq", sym="==")
@_emits("cmovne", sym="!=")
def _cmov(f: Facts, sym: str) -> "list[str]":
    if f.A == "0":  # the test is decided: r31 is zero
        return [f"{f.D} = {f.B}"] if sym == "==" else []
    return [f"if {f.A} {sym} 0:", f"    {f.D} = {f.B}"]


@_emits("lda")
def _lda(f: Facts) -> "list[str]":
    rb, wb, bv, _tz = f.base()
    dp = f.disp
    if bv is not None and isinstance(dp, int):
        return [f"{f.D} = {(bv + dp) & M64:#x}"]
    if dp == 0:
        if wb <= 64:
            f.count("masks_elided")
            return [f"{f.D} = {rb}"]
        return [f"{f.D} = {rb} & {M64:#x}"]
    if (isinstance(dp, int) and wb != UNKNOWN_WIDTH and dp > 0
            and max(wb, dp.bit_length()) < 64):
        f.count("masks_elided")
        return [f"{f.D} = {rb} + {dp}"]
    return [f"{f.D} = ({rb} + {dp}) & {M64:#x}"]


# --------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------- #

def _address(f: Facts) -> "tuple[list[str], str, int, int, str]":
    """Effective-address statements, its name, and proved facts.

    Returns ``(stmts, name, bound, align, expr)``: the address is known
    to be <= ``bound`` with its low ``align`` bits zero, so callers can
    elide range and alignment checks the proof covers (and inline
    ``expr`` when the temporary itself is unneeded).
    """
    rb, wb, bv, tz = f.base()
    dp = f.disp
    if bv is not None and isinstance(dp, int):
        if rb != "0":
            f.count("constants_folded")
        val = (bv + dp) & M64
        expr = f"{val:#x}"
        return [], expr, val, tz_of_int(val), expr
    if not isinstance(dp, int):
        expr, bound, atz = f"({rb} + {dp}) & {M64:#x}", M64, 0
    else:
        atz = min(tz, tz_of_int(dp)) if dp else tz
        if dp == 0:
            if wb <= 64:
                expr, bound = rb, (1 << wb) - 1
            else:
                expr, bound = f"{rb} & {M64:#x}", M64
        elif wb != UNKNOWN_WIDTH and dp > 0 and max(wb, dp.bit_length()) < 64:
            expr, bound = f"{rb} + {dp}", (1 << wb) - 1 + dp
        else:
            expr, bound = f"({rb} + {dp}) & {M64:#x}", M64
    if f.trace is False and expr == rb:
        # No trace entry will quote the address and the register
        # itself is the address: skip the temporary entirely.
        return [], rb, bound, atz, rb
    return [f"{f.addr_name} = {expr}"], f.addr_name, bound, atz, expr


def _checked_address(f: Facts, what: str, size: int) -> "tuple[list[str], str]":
    """Address statements plus the alignment and range checks not proved."""
    shift = size.bit_length() - 1
    stmts, av, bound, atz, aex = _address(f)
    conds = []
    if atz < shift:
        conds.append(f"{av} & {size - 1}")
    elif shift:
        f.count("align_checks_elided")
    if _unproved(bound, f, size):
        conds.append(f"{av} > lim{size}")
    else:
        f.count("bounds_checks_elided")
    if f.trace is False and not conds and stmts:
        # Checks are proved away and nothing quotes the address:
        # fold the computation into the access itself.
        stmts, av = [], f"({aex})"
    if conds:
        if isinstance(f.pc, Run):
            fault = f"'{what} at 0x%x (pc %d)' % ({av}, {f.pc})"
        else:
            fault = f"'{what} at 0x%x (pc {f.pc})' % {av}"
        stmts += [f"if {' or '.join(conds)}:",
                  f"    raise SimulationError({fault})"]
    f.addr = av
    return stmts, av


@_emits("ldq", size=8, what="LDQ")
@_emits("ldl", size=4, what="LDL")
@_emits("ldwu", size=2, what="LDWU")
@_emits("ldbu", size=1, what="LDBU")
def _load(f: Facts, size: int, what: str) -> "list[str]":
    out, av = _checked_address(f, what, size)
    out.append(f"{f.D} = {f.load(size, av)}")
    return out


@_emits("stq", size=8, what="STQ")
@_emits("stl", size=4, what="STL")
@_emits("stw", size=2, what="STW")
@_emits("stb", size=1, what="STB")
def _store(f: Facts, size: int, what: str) -> "list[str]":
    out, av = _checked_address(f, what, size)
    bits = size * 8
    if size == 1:
        value = f.A if f.wa <= 8 else f"{f.A} & 0xFF"
        out.append(f"data[{av}] = {value}")
    elif size == 8 and f.wa > 64:
        # Value not proved < 2**64: the to_bytes path keeps the
        # OverflowError a wider or negative value raises.
        out.append(f"data[{av} : {av} + 8] = ({f.A}).to_bytes(8, 'little')")
    else:
        value = f.A if f.wa <= bits else f"{f.A} & {(1 << bits) - 1:#x}"
        out.append(f.store(size, av, value))
    return out


@_emits("sbox")
def _sbox(f: Facts) -> "list[str]":
    """SBOX: the 4-byte entry at (base & ~0x3FF) | (index byte << 2)."""
    D, A, wa, a = f.D, f.A, f.wa, f.addr_name
    s2, ws2 = f.reg2()
    if not isinstance(f.bsel, int):
        idx = f"(({s2} >> ({f.bsel} * 8)) & 0xFF)"
    elif f.bsel:
        idx = f"(({s2} >> {f.bsel * 8}) & 0xFF)"
    elif ws2 <= 8:
        idx = s2
    else:
        idx = f"({s2} & 0xFF)"
    if wa <= 10:
        f.count("masks_elided")
    base_expr = "" if wa <= 10 else f"({A} & -1024) | "
    cv1 = f.ca
    if cv1 is not None and cv1 >= 0:
        bound = (cv1 & -1024) | 1020
    elif wa <= 10:
        bound = 1020
    elif wa <= 64:
        bound = (((1 << wa) - 1) & ~1023) | 1020
    else:
        bound = M64
    if f.trace is False and not _unproved(bound, f, 4):
        # Nothing records the byte address, so emit the word index
        # directly: (base | (idx << 2)) >> 2 distributes to
        # (base >> 2) | idx (disjoint bit ranges).
        f.count("sbox_index_folds")
        f.count("bounds_checks_elided")
        f.addr = None
        if wa <= 10:
            return [f"{D} = {f.load_word(idx)}"]
        if cv1 is not None and cv1 >= 0:
            return [f"{D} = {f.load_word(f'{(cv1 & -1024) >> 2} | {idx}')}"]
        return [f"{D} = {f.load_word(f'({base_expr}({idx} << 2)) >> 2')}"]
    out = [f"{a} = {base_expr}({idx} << 2)"]
    if _unproved(bound, f, 4):
        out += [
            f"if {a} > lim4:",
            f"    raise SimulationError('SBOX access at 0x%x oob' % {a})",
        ]
    else:
        f.count("bounds_checks_elided")
    out.append(f"{D} = {f.load(4, a)}")
    f.addr = a
    return out


# --------------------------------------------------------------------- #
# Rotates and the crypto extensions
# --------------------------------------------------------------------- #

def _left(amount: "int | str", bits: int, left: bool) -> "int | str":
    """The left-rotate amount of a left or right rotate by ``amount``."""
    m = bits - 1
    if isinstance(amount, int):
        return (amount & m) if left else ((bits - (amount & m)) & m)
    return f"({amount} & {m})" if left else f"(({bits} - ({amount} & {m})) & {m})"


@_emits("roll", left=True)
@_emits("rorl", left=False)
def _rotate32(f: Facts, left: bool) -> "list[str]":
    D, A, wa = f.D, f.A, f.wa
    if not isinstance(f.L, int):
        return [
            f"t = {_left(f.B, 32, left)}",
            f"u = {A}" if wa <= 32 else f"u = {A} & {M32:#x}",
            f"{D} = ((u << t) | (u >> (32 - t))) & {M32:#x} if t else u",
        ]
    am = int(_left(f.L, 32, left))
    if am == 0:
        if wa <= 32:
            f.count("masks_elided")
            return [f"{D} = {A}"]
        return [f"{D} = {A} & {M32:#x}"]
    if wa <= 32:
        f.count("masks_elided")
        return [f"{D} = (({A} << {am}) | ({A} >> {32 - am})) & {M32:#x}"]
    return [
        f"u = {A} & {M32:#x}",
        f"{D} = ((u << {am}) | (u >> {32 - am})) & {M32:#x}",
    ]


@_emits("rolq", left=True)
@_emits("rorq", left=False)
def _rotate64(f: Facts, left: bool) -> "list[str]":
    D, A = f.D, f.A
    if not isinstance(f.L, int):
        return [
            f"t = {_left(f.B, 64, left)}",
            f"u = {A}",
            f"{D} = ((u << t) | (u >> (64 - t))) & {M64:#x} if t else u",
        ]
    am = int(_left(f.L, 64, left))
    if am == 0:
        return [f"{D} = {A}"]
    return [f"{D} = (({A} << {am}) | ({A} >> {64 - am})) & {M64:#x}"]


@_emits("rolxl", left=True)
@_emits("rorxl", left=False)
def _rotate_xor(f: Facts, left: bool) -> "list[str]":
    """ROLX/RORX: the destination xors in the rotated 32-bit source."""
    D, A, wa = f.D, f.A, f.wa
    if not isinstance(f.L, int):
        # u < 2**32, so u >> 32 is 0 and a zero amount needs no test.
        return [
            f"t = {_left(str(f.L), 32, left)}",
            f"u = {A}" if wa <= 32 else f"u = {A} & {M32:#x}",
            f"{D} = (((u << t) | (u >> (32 - t))) ^ {D}) & {M32:#x}",
        ]
    am = int(_left(f.L, 32, left))
    if wa <= 32:
        f.count("masks_elided")
        rot = A if am == 0 else f"(({A} << {am}) | ({A} >> {32 - am}))"
        return [f"{D} = ({rot} ^ {D}) & {M32:#x}"]
    rot = "u" if am == 0 else f"((u << {am}) | (u >> {32 - am}))"
    return [f"u = {A} & {M32:#x}", f"{D} = ({rot} ^ {D}) & {M32:#x}"]


@_emits("mulmod")
def _mulmod(f: Facts) -> "list[str]":
    """IDEA multiply modulo 2**16 + 1; an operand of 0 stands for 2**16."""
    if f.wa <= 16:
        f.count("masks_elided")
    texpr = (f"({f.A} or 0x10000)" if f.wa <= 16
             else f"(({f.A} & 0xFFFF) or 0x10000)")
    if isinstance(f.L, int):
        uexpr = str((f.L & 0xFFFF) or 0x10000)
    elif f.wb <= 16:
        f.count("masks_elided")
        uexpr = f"({f.B} or 0x10000)"
    else:
        uexpr = f"(({f.B} & 0xFFFF) or 0x10000)"
    return [f"{f.D} = (({texpr} * {uexpr}) % 0x10001) & 0xFFFF"]


@_emits("xbox")
def _emit_xbox(f: Facts) -> "list[str]":
    perm_map, _width = f.reg2()
    base_bit = f.bsel * 8 if isinstance(f.bsel, int) else f"{f.bsel} * 8"
    return [f"{f.D} = _xbox({f.A}, {perm_map}, {base_bit})"]


def grp(x: int, ctrl: int, width: int) -> int:
    """GRP (Shi & Lee): bits with control 0 pack low in order, 1s above.

    Generated code calls it as ``_grp``; :func:`repro.isa.grp.grp_apply`
    is the independent reference the tests compare it against.
    """
    low = high = 0
    low_count = high_count = 0
    for i in range(width):
        bit = (x >> i) & 1
        if (ctrl >> i) & 1:
            high |= bit << high_count
            high_count += 1
        else:
            low |= bit << low_count
            low_count += 1
    return low | (high << low_count)


def xbox(operand: int, perm_map: int, base_bit: int) -> int:
    """XBOX: the operand bits the map's 6-bit fields pick, at ``base_bit``.

    Generated code calls it as ``_xbox``.
    """
    result = 0
    for j in range(8):
        bit = (operand >> ((perm_map >> (6 * j)) & 0x3F)) & 1
        result |= bit << (base_bit + j)
    return result


# --------------------------------------------------------------------- #
# Branches: the taken condition on the tested register ``A``
# --------------------------------------------------------------------- #

#: ``name: (test of the signed value, run-time test, test when the value
#: is proved non-negative)``.
_CONDITIONS: "dict[str, tuple[Callable[[int], bool], str, bool | str]]" = {
    "beq": (lambda v: v == 0, "{a} == 0", "{a} == 0"),
    "bne": (lambda v: v != 0, "{a} != 0", "{a} != 0"),
    "blt": (lambda v: v < 0, "{a} & {msb}", False),
    "ble": (lambda v: v <= 0, "{a} == 0 or {a} & {msb}", "{a} == 0"),
    "bgt": (lambda v: v > 0, "{a} != 0 and not {a} & {msb}", "{a} != 0"),
    "bge": (lambda v: v >= 0, "not {a} & {msb}", True),
}


def _branch(f: Facts, name: str) -> "bool | str":
    test, signed, nonneg = _CONDITIONS[name]
    if f.ca is not None:  # fold the whole condition at generation time
        v = f.ca
        return test(v - (1 << 64) if (v >= 0 and v & MSB) else v)
    if f.wa <= 63:  # provably non-negative as a signed value
        return nonneg if isinstance(nonneg, bool) else nonneg.format(a=f.A)
    return signed.format(a=f.A, msb=f"{MSB:#x}")


EMITTERS.update((name, partial(_branch, name=name)) for name in _CONDITIONS)

# The one-line emitters.  HALT's effect is its frame's exit; SBOXSYNC is
# timing-only.
EMITTERS.update({
    "cmpeq": lambda f: [f"{f.D} = 1 if {f.A} == {f.B} else 0"],
    "cmpult": lambda f: [f"{f.D} = 1 if {f.A} < {f.B} else 0"],
    "cmpule": lambda f: [f"{f.D} = 1 if {f.A} <= {f.B} else 0"],
    "ldiq": lambda f: [f"{f.D} = {f.L}"],
    "grpl": lambda f: [f"{f.D} = _grp({f.A}, {f.B}, 32)"],
    "grpq": lambda f: [f"{f.D} = _grp({f.A}, {f.B}, 64)"],
    "br": lambda f: True,
    "halt": lambda f: [],
    "sboxsync": lambda f: [],
})
assert set(EMITTERS) == set(op.SPECS_BY_NAME), "one emitter per opcode"
