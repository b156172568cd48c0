"""Per-program compiled execution backend.

Translates a finalized :class:`~repro.isa.program.Program` into one
specialized Python generator function: every static instruction becomes
a handful of straight-line statements (operands constant-folded,
registers pinned in locals), basic blocks dispatch through a small
``while``/``elif`` chain, and the dynamic trace is staged
block-at-a-time with constant tuples.  The generated source is compiled
once and cached by program digest, so repeated sessions of the same
kernel pay zero codegen cost.

The output contract is bit-identical to the interpreter backend on every
successful execution: same ``TraceChunk`` entries *and boundaries*, same
final registers, memory and ``instructions_executed``
(``tests/sim/test_backend_equivalence.py`` is the oracle).  Failure
paths raise the same ``SimulationError`` messages, but may differ in how
much of the failing basic block's side effects landed, because the
runaway-instruction check runs once per block rather than once per
instruction; see ``docs/backends.md``.

Generated sources are registered in :mod:`linecache` under
``<repro-compiled:...>`` filenames so tracebacks show real lines and the
sampling profiler can attribute generated-code frames to the
``functional`` bucket (codegen itself lands in the ``compile`` bucket).
"""

from __future__ import annotations

import linecache
import re
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.isa.analysis.lattices import (
    UNKNOWN_WIDTH,
    WRITES_DEST,
    const_join,
    infer_widths,
    lit_width,
    make_const_step,
    make_tz_step,
    make_width_step,
    tz_of_int,
    zapnot_mask,
)
from repro.isa.analysis.solver import (
    BRANCH_CODES,
    IMPLEMENTED_CODES,
    block_successors,
    infer_dataflow,
    split_blocks,
)
from repro.sim.trace import (
    ADDR_TYPECODE,
    SEQ_TYPECODE,
    VALUE_TYPECODE,
    TraceChunk,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
_MSB = 0x8000000000000000

#: Generated code reads memory through ``memoryview.cast`` (native byte
#: order); on a big-endian host we delegate to the interpreter instead.
_LITTLE = sys.byteorder == "little"


_LOADS = {30: ("LDQ", 8, 8), 31: ("LDL", 4, 4),
          32: ("LDWU", 2, 2), 33: ("LDBU", 1, 1)}
_STORES = {34: ("STQ", 8, 8), 35: ("STL", 4, 4),
           36: ("STW", 2, 2), 37: ("STB", 1, 1)}


def _grp(x: int, ctrl: int, width: int) -> int:
    """GRPL/GRPQ (Shi & Lee) bit-gather, shared by all generated code."""
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


def _xbox(operand: int, perm_map: int, base_bit: int) -> int:
    """XBOX 8-bit permutation lookup, shared by all generated code."""
    result = 0
    for j in range(8):
        bit = (operand >> ((perm_map >> (6 * j)) & 0x3F)) & 1
        result |= bit << (base_bit + j)
    return result


def _drain(
    seq: list,
    addrs: list,
    values: "list | None",
    chunk_limit: int,
    trace_base: int,
) -> Iterator[TraceChunk]:
    """Carve exactly ``chunk_limit``-sized chunks off the staged lists.

    Generated code stages a whole basic block before checking the limit,
    so the staged lists can run past it; slicing here restores the exact
    interpreter chunk boundaries (every chunk full except the final
    partial).  Returns the updated ``trace_base`` via StopIteration so
    callers use ``trace_base = yield from _drain(...)``.
    """
    while len(seq) >= chunk_limit:
        yield TraceChunk(
            seq=array(SEQ_TYPECODE, seq[:chunk_limit]),
            addrs=array(ADDR_TYPECODE, addrs[:chunk_limit]),
            start=trace_base,
            values=(None if values is None
                    else array(VALUE_TYPECODE, values[:chunk_limit])),
        )
        del seq[:chunk_limit]
        del addrs[:chunk_limit]
        if values is not None:
            del values[:chunk_limit]
        trace_base += chunk_limit
    return trace_base


class CompiledBackend:
    """Backend that executes digest-cached per-program generated code."""

    name = "compiled"

    def execute(
        self,
        machine: "Machine",
        *,
        chunk_limit: int,
        record_trace: bool,
        record_values: bool,
        max_instructions: int,
    ) -> Iterator[TraceChunk]:
        if not _LITTLE or machine.memory.size & 7:
            # Word access goes through memoryview.cast, which needs a
            # little-endian host and an 8-byte-divisible buffer.  Every
            # Memory in the repo is a power of two; for exotic sizes the
            # interpreter is the (bit-identical) fallback.
            from repro.sim.backends.interpreter import _interpret

            return _interpret(
                machine, chunk_limit, record_trace, record_values,
                max_instructions,
            )
        fn = compiled_function(machine, record_trace, record_values)
        return fn(machine, chunk_limit, max_instructions)


_CODE_CACHE: dict[tuple[str, bool, bool, int], Callable[..., Any]] = {}

#: Optimization-counter keys every compile report carries (the codegen
#: increments these at each elision/fold decision point).
COUNTER_KEYS = (
    "masks_elided",
    "bounds_checks_elided",
    "align_checks_elided",
    "constants_folded",
    "branches_folded",
    "sbox_index_folds",
    "and_masks_folded",
)


@dataclass
class CompileReport:
    """What one program compilation did: counters, size, wall time.

    One report per generated function (same key as ``_CODE_CACHE``);
    ``source_cache_hits`` counts later requests served from the cache.
    Surfaced as ``backend`` ledger events (folded into ``compile.*``
    metrics by :class:`repro.obs.views.MetricsView`) and ``riscasim
    --backend compiled --explain``.
    """

    digest: str
    record_trace: bool
    record_values: bool
    mem_size: int
    instructions: int
    blocks: int
    source_lines: int
    compile_seconds: float
    counters: dict[str, int] = field(default_factory=dict)
    source_cache_hits: int = 0

    @property
    def mode(self) -> str:
        return (("t" if self.record_trace else "-")
                + ("v" if self.record_values else "-"))


_COMPILE_REPORTS: dict[tuple[str, bool, bool, int], CompileReport] = {}


def cache_info() -> dict[str, int]:
    """Size of the digest-keyed generated-function cache (for tests)."""
    return {"size": len(_CODE_CACHE)}


def cache_clear() -> None:
    """Drop all cached generated functions (for tests/benchmarks)."""
    _CODE_CACHE.clear()
    _COMPILE_REPORTS.clear()


def compile_reports() -> list[CompileReport]:
    """Every compilation this process performed, in compile order."""
    return list(_COMPILE_REPORTS.values())


def explain_table(reports: "list[CompileReport] | None" = None) -> str:
    """The ``riscasim --backend compiled --explain`` report table."""
    reports = compile_reports() if reports is None else reports
    if not reports:
        return "compiled backend: no programs compiled in this process"
    lines = [
        f"compiled backend: {len(reports)} program(s), "
        f"{sum(r.compile_seconds for r in reports) * 1e3:.1f} ms codegen, "
        f"{sum(r.source_cache_hits for r in reports)} source-cache hit(s)",
        f"  {'program':<10} {'mode':<4} {'instr':>6} {'lines':>6} "
        f"{'ms':>6} {'hits':>5}  optimizations",
    ]
    for report in reports:
        opts = ", ".join(
            f"{key.replace('_', ' ')} {report.counters[key]}"
            for key in COUNTER_KEYS if report.counters.get(key)
        ) or "none"
        lines.append(
            f"  {report.digest[:8]:<10} {report.mode:<4} "
            f"{report.instructions:>6} {report.source_lines:>6} "
            f"{report.compile_seconds * 1e3:>6.1f} "
            f"{report.source_cache_hits:>5}  {opts}"
        )
    return "\n".join(lines)


def _publish(type: str, data: dict) -> None:
    """Ledger event on the process's active bus, if one is installed.

    No bus can be active before the ledger module is loaded, so a
    process without telemetry never imports :mod:`repro.obs` from here.
    """
    ledger = sys.modules.get("repro.obs.events")
    if ledger is not None:
        ledger.publish_event("backend", type, data)


def compiled_function(
    machine: "Machine", record_trace: bool, record_values: bool
) -> Callable[..., Any]:
    """The generated generator function for this program+recording mode.

    Cached by ``(program.digest(), record_trace, record_values,
    memory.size)`` so every :class:`Machine` over the same program and
    memory geometry shares one compilation.  The memory size is part of
    the key because bounds-check elision proves addresses in range
    against it at codegen time.
    """
    key = (
        machine.program.digest(), record_trace, record_values,
        machine.memory.size,
    )
    fn = _CODE_CACHE.get(key)
    if fn is None:
        fn = _compile(machine, record_trace, record_values, key[0])
        _CODE_CACHE[key] = fn
        report = _COMPILE_REPORTS.get(key)
        if report is not None:
            _publish("compile", {
                "digest": key[0][:12],
                "mode": report.mode,
                "instructions": report.instructions,
                "source_lines": report.source_lines,
                "seconds": round(report.compile_seconds, 6),
                **{k: report.counters.get(k, 0) for k in COUNTER_KEYS},
            })
    else:
        report = _COMPILE_REPORTS.get(key)
        if report is not None:
            report.source_cache_hits += 1
        _publish("codegen-cache-hit", {"digest": key[0][:12]})
    return fn


def generated_source(
    machine: "Machine",
    record_trace: bool = True,
    record_values: bool = False,
) -> str:
    """The Python source the backend would execute (docs and tests)."""
    source, _counters, _blocks = _generate_source(
        machine, record_trace, record_values, "_compiled_run"
    )
    return source


def _compile(
    machine: "Machine",
    record_trace: bool,
    record_values: bool,
    digest: str,
) -> Callable[..., Any]:
    from repro.sim.machine import SimulationError, _ZAPNOT_MASKS

    began = time.perf_counter()
    func_name = f"_compiled_{digest[:8]}"
    source, counters, blocks = _generate_source(
        machine, record_trace, record_values, func_name
    )
    filename = (
        f"<repro-compiled:{digest[:8]}:"
        f"{'t' if record_trace else 'f'}{'v' if record_values else 'f'}:"
        f"{machine.memory.size}>"
    )
    # Register the source so tracebacks and the profiler see real lines.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    namespace: dict[str, Any] = {
        "SimulationError": SimulationError,
        "TraceChunk": TraceChunk,
        "array": array,
        "SEQ_T": SEQ_TYPECODE,
        "ADDR_T": ADDR_TYPECODE,
        "VAL_T": VALUE_TYPECODE,
        "_drain": _drain,
        "_grp": _grp,
        "_xbox": _xbox,
        "_ZAPNOT": _ZAPNOT_MASKS,
    }
    exec(compile(source, filename, "exec"), namespace)
    _COMPILE_REPORTS[
        (digest, record_trace, record_values, machine.memory.size)
    ] = CompileReport(
        digest=digest,
        record_trace=record_trace,
        record_values=record_values,
        mem_size=machine.memory.size,
        instructions=len(machine.code),
        blocks=blocks,
        source_lines=source.count("\n"),
        compile_seconds=time.perf_counter() - began,
        counters=counters,
    )
    return namespace[func_name]


def _generate_source(
    machine: "Machine",
    record_trace: bool,
    record_values: bool,
    func_name: str,
) -> "tuple[str, dict[str, int], int]":
    """Generate the source plus its optimization counters and block count.

    The counters (keys: :data:`COUNTER_KEYS`) are incremented at every
    elision/fold decision the emitters take, so a
    :class:`CompileReport` explains exactly what specialization bought
    for this program.
    """
    code, dest = machine.code, machine.dest
    src1, src2 = machine.src1, machine.src2
    lit, disp, target = machine.lit, machine.disp, machine.target
    bsel = machine.bsel
    n = len(code)

    lines: list[str] = []
    counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}

    def count(key: str, by: int = 1) -> None:
        counters[key] += by

    def w(indent: int, text: str = "") -> None:
        lines.append(("    " * indent + text) if text else "")

    w(0, f"def {func_name}(machine, chunk_limit, max_instructions):")
    w(1, "regs = machine.regs")
    w(1, "regs[31] = 0")
    if n == 0:
        w(1, "raise SimulationError('fell off program end at pc=0')")
        w(1, "if False:")
        w(2, "yield None")
        return "\n".join(lines) + "\n", counters, 0

    blocks, block_of = split_blocks(code, target, n)
    succs = block_successors(blocks, code, target, n)
    step = make_width_step(machine)
    widths = infer_widths(blocks, block_of, succs, step)
    tz_step = make_tz_step(machine)
    tzs = infer_dataflow(
        blocks, block_of, succs, tz_step, top=0, join=min,
    )
    const_step = make_const_step(machine)
    consts = infer_dataflow(
        blocks, block_of, succs, const_step,
        top=None, join=const_join,  # type: ignore[arg-type]
    )
    # Bounds proofs below compare against the machine's memory size, so
    # the generated function is specialized to it (part of the cache key).
    mem_size = machine.memory.size

    # Register-usage scan: which slots to pin in locals / write back.
    reads: set[int] = set()
    writes: set[int] = set()
    for i in range(n):
        c = code[i]
        if c not in IMPLEMENTED_CODES:
            continue
        reads.add(src1[i])
        reads.add(src2[i])
        if c in (54, 55):  # ROLXL/RORXL xor into their destination
            reads.add(dest[i])
        if c in WRITES_DEST:
            writes.add(dest[i])
    reads.discard(31)
    writes.discard(31)
    pinned = sorted(reads | writes)

    # The block bodies are generated first so the preamble only sets up
    # what they actually use (memoryview casts, bounds limits, tables).
    need_mv: set[int] = set()
    need_lims: set[int] = set()
    need_zap = False
    body: list[str] = []

    def wb(indent: int, text: str) -> None:
        body.append("    " * indent + text)

    def R(slot: int) -> str:
        return "0" if slot == 31 else f"r{slot}"

    def addr_code(
        i: int, state: list, tz: list, cst: list
    ) -> "tuple[list[str], str, int, int, str]":
        """Effective-address statements, its name, and proved facts.

        Returns ``(stmts, name, bound, align, expr)``: the address is
        known to be <= ``bound`` with its low ``align`` bits zero, so
        callers can elide range and alignment checks the proof covers
        (and inline ``expr`` when the temporary itself is unneeded).
        """
        base, dp = src2[i], disp[i]
        a = f"a{i}"
        bv = 0 if base == 31 else cst[base]
        if bv is not None:
            if base != 31:
                count("constants_folded")
            val = (bv + dp) & M64
            expr = f"{val:#x}"
            return [], expr, val, tz_of_int(val), expr
        rb = R(base)
        wb2 = state[base]
        atz = min(tz[base], tz_of_int(dp)) if dp else tz[base]
        if dp == 0:
            if wb2 <= 64:
                expr, bound = rb, (1 << wb2) - 1
            else:
                expr, bound = f"{rb} & {M64:#x}", M64
        elif wb2 != UNKNOWN_WIDTH and dp > 0 and max(wb2, dp.bit_length()) < 64:
            expr, bound = f"{rb} + {dp}", (1 << wb2) - 1 + dp
        else:
            expr, bound = f"({rb} + {dp}) & {M64:#x}", M64
        if not record_trace and expr == rb:
            # No trace entry will quote the address and the register
            # itself is the address: skip the temporary entirely.
            return [], rb, bound, atz, rb
        return [f"{a} = {expr}"], a, bound, atz, expr

    def operand(slot: int, state: list, cst: list) -> "tuple[str, int]":
        """Expression and width for a register read (const-folded)."""
        if slot == 31:
            return "0", 0
        v = cst[slot]
        if v is not None:
            count("constants_folded")
            return str(v), (v.bit_length() if v >= 0 else UNKNOWN_WIDTH)
        return f"r{slot}", state[slot]

    def instr_stmts(
        i: int, state: list, tz: list, cst: list
    ) -> "tuple[list[str], str | None]":
        nonlocal need_zap
        c = code[i]
        D = f"r{dest[i]}"
        A, w1 = operand(src1[i], state, cst)
        L = lit[i]
        if L is not None:
            B, wb_ = str(L), lit_width(L)
        else:
            B, wb_ = operand(src2[i], state, cst)
        out: list[str] = []
        addr: "str | None" = None
        if c == 7:  # XOR
            if A == "0":
                out = [f"{D} = {B}"]
            elif B == "0":
                out = [f"{D} = {A}"]
            else:
                out = [f"{D} = {A} ^ {B}"]
        elif c == 6:  # BIS
            if A == "0":
                out = [f"{D} = {B}"]
            elif B == "0":
                out = [f"{D} = {A}"]
            else:
                out = [f"{D} = {A} | {B}"]
        elif c == 5:  # AND
            if A == "0" or B == "0":
                out = [f"{D} = 0"]
            elif (L is not None and w1 <= 64
                    and (L & M64) & ((1 << w1) - 1) == (1 << w1) - 1):
                count("masks_elided")
                out = [f"{D} = {A}"]  # mask covers the proved width
            else:
                out = [f"{D} = {A} & {B}"]
        elif c in (1, 3):  # ADDQ / ADDL
            bits = 64 if c == 1 else 32
            mask = M64 if c == 1 else M32
            if A == "0":
                expr = B
            elif B == "0":
                expr = A
            else:
                expr = f"{A} + {B}"
            if max(w1, wb_) < bits:
                count("masks_elided")
                out = [f"{D} = {expr}"]
            elif expr in (A, B):
                out = [f"{D} = {expr} & {mask:#x}"]
            else:
                out = [f"{D} = ({expr}) & {mask:#x}"]
        elif c in (2, 4):  # SUBQ / SUBL
            bits = 64 if c == 2 else 32
            mask = M64 if c == 2 else M32
            if B == "0" and w1 <= bits:
                count("masks_elided")
                out = [f"{D} = {A}"]
            else:
                out = [f"{D} = ({A} - {B}) & {mask:#x}"]
        elif c == 8:  # BIC
            if L is not None:
                out = [f"{D} = {A} & {(~L) & M64:#x}"]
            elif B == "0":
                if w1 <= 64:
                    count("masks_elided")
                    out = [f"{D} = {A}"]
                else:
                    out = [f"{D} = {A} & {M64:#x}"]
            else:
                out = [f"{D} = {A} & ~{B} & {M64:#x}"]
        elif c == 9:  # ORNOT
            if L is not None:
                inner = f"{(~L) & M64:#x}"
            else:
                inner = f"(~{B} & {M64:#x})"
            if w1 <= 64:
                count("masks_elided")
                out = [f"{D} = {A} | {inner}"]
            else:
                out = [f"{D} = ({A} | {inner}) & {M64:#x}"]
        elif c == 10:  # SLL
            if L is not None:
                s = L & 63
                if s == 0:
                    if w1 <= 64:
                        count("masks_elided")
                        out = [f"{D} = {A}"]
                    else:
                        out = [f"{D} = {A} & {M64:#x}"]
                elif w1 + s <= 64:
                    count("masks_elided")
                    out = [f"{D} = {A} << {s}"]
                else:
                    out = [f"{D} = ({A} << {s}) & {M64:#x}"]
            else:
                out = [f"{D} = ({A} << ({B} & 63)) & {M64:#x}"]
        elif c == 11:  # SRL
            if L is not None:
                s = L & 63
                out = [f"{D} = {A}" if s == 0 else f"{D} = {A} >> {s}"]
            else:
                out = [f"{D} = {A} >> ({B} & 63)"]
        elif c == 12:  # SRA
            sh = str(L & 63) if L is not None else f"({B} & 63)"
            if w1 <= 63:
                count("masks_elided")
                if L is not None and L & 63 == 0:
                    out = [f"{D} = {A}"]
                else:
                    out = [f"{D} = {A} >> {sh}"]
            else:
                out = [
                    f"t = {A}",
                    f"if t & {_MSB:#x}:",
                    f"    t -= {1 << 64:#x}",
                    f"{D} = (t >> {sh}) & {M64:#x}",
                ]
        elif c == 13:  # MULL
            am = A if w1 <= 32 else f"({A} & {M32:#x})"
            if L is not None:
                bv = L & M32
                bm, wbm = str(bv), bv.bit_length()
            else:
                bm = B if wb_ <= 32 else f"({B} & {M32:#x})"
                wbm = min(wb_, 32)
            if min(w1, 32) + wbm <= 32:
                count("masks_elided")
                out = [f"{D} = {am} * {bm}"]
            else:
                out = [f"{D} = ({am} * {bm}) & {M32:#x}"]
        elif c == 14:  # MULQ
            if w1 + wb_ <= 64:
                count("masks_elided")
                out = [f"{D} = {A} * {B}"]
            else:
                out = [f"{D} = ({A} * {B}) & {M64:#x}"]
        elif c == 15:
            out = [f"{D} = 1 if {A} == {B} else 0"]
        elif c == 16:
            out = [f"{D} = 1 if {A} < {B} else 0"]
        elif c == 17:
            out = [f"{D} = 1 if {A} <= {B} else 0"]
        elif c in (18, 19):  # CMPLT / CMPLE (signed)
            cmp = "<" if c == 18 else "<="
            if w1 <= 63:
                count("masks_elided")
                left = A
            else:
                out += [
                    f"t = {A}",
                    f"if t & {_MSB:#x}:",
                    f"    t -= {1 << 64:#x}",
                ]
                left = "t"
            if L is not None:
                right = str(L - (1 << 64) if L & _MSB else L)
            elif wb_ <= 63:
                count("masks_elided")
                right = B
            else:
                out += [
                    f"u = {B}",
                    f"if u & {_MSB:#x}:",
                    f"    u -= {1 << 64:#x}",
                ]
                right = "u"
            out.append(f"{D} = 1 if {left} {cmp} {right} else 0")
        elif c == 20:  # EXTBL
            if L is not None:
                s = (L & 7) * 8
                if s == 0 and w1 <= 8:
                    count("masks_elided")
                out = [f"{D} = ({A} >> {s}) & 0xFF" if s
                       else (f"{D} = {A}" if w1 <= 8
                             else f"{D} = {A} & 0xFF")]
            else:
                out = [f"{D} = ({A} >> (({B} & 7) * 8)) & 0xFF"]
        elif c == 21:  # INSBL
            am = A if w1 <= 8 else f"({A} & 0xFF)"
            if L is not None:
                s = (L & 7) * 8
                out = [f"{D} = {am} << {s}" if s else f"{D} = {am}"]
            else:
                out = [f"{D} = {am} << (({B} & 7) * 8)"]
        elif c == 22:  # ZAPNOT
            if L is not None:
                mask = zapnot_mask(L & 0xFF)
                if w1 <= 64 and mask & ((1 << w1) - 1) == (1 << w1) - 1:
                    count("masks_elided")
                    out = [f"{D} = {A}"]
                else:
                    out = [f"{D} = {A} & {mask:#x}"]
            else:
                need_zap = True
                out = [f"{D} = {A} & _zap[{B} & 0xFF]"]
        elif c in (23, 24):  # S4ADDQ / S8ADDQ
            scale = 4 if c == 23 else 8
            extra = 2 if c == 23 else 3
            prod = f"{A} * {scale}"
            expr = prod if B == "0" else f"{prod} + {B}"
            if max(w1 + extra, wb_) < 64:
                count("masks_elided")
                out = [f"{D} = {expr}"]
            else:
                out = [f"{D} = ({expr}) & {M64:#x}"]
        elif c in (25, 26):  # CMOVEQ / CMOVNE
            if A == "0":
                out = [f"{D} = {B}"] if c == 25 else []
            else:
                test = "==" if c == 25 else "!="
                out = [f"if {A} {test} 0:", f"    {D} = {B}"]
        elif c == 27:  # LDA
            base, dp = src2[i], disp[i]
            bv = 0 if base == 31 else cst[base]
            if bv is not None:
                out = [f"{D} = {(bv + dp) & M64:#x}"]
            else:
                rb = R(base)
                wb2 = state[base]
                if dp == 0:
                    if wb2 <= 64:
                        count("masks_elided")
                    out = [f"{D} = {rb}" if wb2 <= 64
                           else f"{D} = {rb} & {M64:#x}"]
                elif (wb2 != UNKNOWN_WIDTH and dp > 0
                      and max(wb2, dp.bit_length()) < 64):
                    count("masks_elided")
                    out = [f"{D} = {rb} + {dp}"]
                else:
                    out = [f"{D} = ({rb} + {dp}) & {M64:#x}"]
        elif c == 28:  # LDIQ
            out = [f"{D} = {L}"]
        elif c in (30, 31, 32, 33):  # loads
            al, av, bound, atz, aex = addr_code(i, state, tz, cst)
            out = list(al)
            name, size, shift = {
                30: ("LDQ", 8, 3), 31: ("LDL", 4, 2),
                32: ("LDWU", 2, 1), 33: ("LDBU", 1, 0),
            }[c]
            conds = []
            if atz < shift:
                conds.append(f"{av} & {size - 1}")
            elif shift:
                count("align_checks_elided")
            if bound > mem_size - size:
                need_lims.add(size)
                conds.append(f"{av} > lim{size}")
            else:
                count("bounds_checks_elided")
            if not record_trace and not conds and al:
                # Checks are proved away and nothing quotes the address:
                # fold the computation into the access itself.
                out, av = [], f"({aex})"
            if conds:
                out += [
                    f"if {' or '.join(conds)}:",
                    f"    raise SimulationError('{name} at 0x%x (pc {i})'"
                    f" % {av})",
                ]
            if c == 33:
                out.append(f"{D} = data[{av}]")
            else:
                need_mv.add(size)
                out.append(f"{D} = mv{size}[{av} >> {shift}]")
            addr = av
            base = src2[i]
            if (disp[i] == 0 and base != 31 and cst[base] is None
                    and state[base] <= 64):
                # Past this point the base register itself was a valid
                # address (checked or proved), so it is < mem_size.
                state[base] = min(
                    state[base], (mem_size - size).bit_length()
                )
        elif c in (34, 35, 36, 37):  # stores
            al, av, bound, atz, aex = addr_code(i, state, tz, cst)
            out = list(al)
            name, size, shift = {
                34: ("STQ", 8, 3), 35: ("STL", 4, 2),
                36: ("STW", 2, 1), 37: ("STB", 1, 0),
            }[c]
            conds = []
            if atz < shift:
                conds.append(f"{av} & {size - 1}")
            elif shift:
                count("align_checks_elided")
            if bound > mem_size - size:
                need_lims.add(size)
                conds.append(f"{av} > lim{size}")
            else:
                count("bounds_checks_elided")
            if not record_trace and not conds and al:
                out, av = [], f"({aex})"
            if conds:
                out += [
                    f"if {' or '.join(conds)}:",
                    f"    raise SimulationError('{name} at 0x%x (pc {i})'"
                    f" % {av})",
                ]
            if c == 37:
                vexpr = A if w1 <= 8 else f"{A} & 0xFF"
                out.append(f"data[{av}] = {vexpr}")
            elif c == 34 and w1 > 64:
                # Value not proved < 2**64: the to_bytes path keeps
                # the interpreter's OverflowError behaviour.
                out.append(
                    f"data[{av} : {av} + 8] = ({A}).to_bytes(8, 'little')"
                )
            else:
                need_mv.add(size)
                bits = {34: 64, 35: 32, 36: 16}[c]
                mask = {34: M64, 35: M32, 36: 0xFFFF}[c]
                vexpr = A if w1 <= bits else f"{A} & {mask:#x}"
                out.append(f"mv{size}[{av} >> {shift}] = {vexpr}")
            addr = av
            base = src2[i]
            if (disp[i] == 0 and base != 31 and cst[base] is None
                    and state[base] <= 64):
                state[base] = min(
                    state[base], (mem_size - size).bit_length()
                )
        elif c in (50, 51):  # ROLL / RORL
            if L is not None:
                am = (L & 31) if c == 50 else ((32 - (L & 31)) & 31)
                if am == 0:
                    if w1 <= 32:
                        count("masks_elided")
                    out = [f"{D} = {A}" if w1 <= 32
                           else f"{D} = {A} & {M32:#x}"]
                elif w1 <= 32:
                    count("masks_elided")
                    out = [
                        f"{D} = (({A} << {am}) | ({A} >> {32 - am}))"
                        f" & {M32:#x}"
                    ]
                else:
                    out = [
                        f"u = {A} & {M32:#x}",
                        f"{D} = ((u << {am}) | (u >> {32 - am}))"
                        f" & {M32:#x}",
                    ]
            else:
                amount = (f"({B} & 31)" if c == 50
                          else f"((32 - ({B} & 31)) & 31)")
                out = [
                    f"t = {amount}",
                    (f"u = {A}" if w1 <= 32
                     else f"u = {A} & {M32:#x}"),
                    f"{D} = ((u << t) | (u >> (32 - t))) & {M32:#x}"
                    " if t else u",
                ]
        elif c in (52, 53):  # ROLQ / RORQ
            if L is not None:
                am = (L & 63) if c == 52 else ((64 - (L & 63)) & 63)
                if am == 0:
                    out = [f"{D} = {A}"]
                else:
                    out = [
                        f"{D} = (({A} << {am}) | ({A} >> {64 - am}))"
                        f" & {M64:#x}"
                    ]
            else:
                amount = (f"({B} & 63)" if c == 52
                          else f"((64 - ({B} & 63)) & 63)")
                out = [
                    f"t = {amount}",
                    f"u = {A}",
                    f"{D} = ((u << t) | (u >> (64 - t))) & {M64:#x}"
                    " if t else u",
                ]
        elif c in (54, 55):  # ROLXL / RORXL (xor-rotate into dest)
            am = (L & 31) if c == 54 else ((32 - (L & 31)) & 31)
            if w1 <= 32:
                count("masks_elided")
                rot = (A if am == 0
                       else f"(({A} << {am}) | ({A} >> {32 - am}))")
                out = [f"{D} = ({rot} ^ {D}) & {M32:#x}"]
            else:
                out = [f"u = {A} & {M32:#x}"]
                rot = ("u" if am == 0
                       else f"((u << {am}) | (u >> {32 - am}))")
                out.append(f"{D} = ({rot} ^ {D}) & {M32:#x}")
        elif c == 56:  # MULMOD (IDEA multiply, 0 represents 2^16)
            if w1 <= 16:
                count("masks_elided")
            texpr = (f"({A} or 0x10000)" if w1 <= 16
                     else f"(({A} & 0xFFFF) or 0x10000)")
            if L is not None:
                uexpr = str((L & 0xFFFF) or 0x10000)
            elif wb_ <= 16:
                count("masks_elided")
                uexpr = f"({B} or 0x10000)"
            else:
                uexpr = f"(({B} & 0xFFFF) or 0x10000)"
            out = [f"{D} = (({texpr} * {uexpr}) % 0x10001) & 0xFFFF"]
        elif c == 57:  # SBOX
            a = f"a{i}"
            sh = bsel[i] * 8
            s2, ws2 = operand(src2[i], state, cst)
            if sh:
                idx = f"(({s2} >> {sh}) & 0xFF)"
            elif ws2 <= 8:
                idx = s2
            else:
                idx = f"({s2} & 0xFF)"
            if w1 <= 10:
                count("masks_elided")
            base_expr = "" if w1 <= 10 else f"({A} & -1024) | "
            cv1 = None if src1[i] == 31 else cst[src1[i]]
            if cv1 is not None and cv1 >= 0:
                bound = (cv1 & -1024) | 1020
            elif w1 <= 10:
                bound = 1020
            elif w1 <= 64:
                bound = (((1 << w1) - 1) & ~1023) | 1020
            else:
                bound = M64
            need_mv.add(4)
            if not record_trace and bound <= mem_size - 4:
                # Nothing records the byte address, so emit the word
                # index directly: (base | (idx << 2)) >> 2 distributes
                # to (base >> 2) | idx (disjoint bit ranges).
                count("sbox_index_folds")
                count("bounds_checks_elided")
                if w1 <= 10:
                    out = [f"{D} = mv4[{idx}]"]
                elif cv1 is not None and cv1 >= 0:
                    out = [f"{D} = mv4[{(cv1 & -1024) >> 2} | {idx}]"]
                else:
                    out = [
                        f"{D} = mv4[({base_expr}({idx} << 2)) >> 2]"
                    ]
                addr = None
            else:
                out = [f"{a} = {base_expr}({idx} << 2)"]
                if bound > mem_size - 4:
                    need_lims.add(4)
                    out += [
                        f"if {a} > lim4:",
                        f"    raise SimulationError('SBOX access at 0x%x"
                        f" oob' % {a})",
                    ]
                else:
                    count("bounds_checks_elided")
                out.append(f"{D} = mv4[{a} >> 2]")
                addr = a
        elif c == 58:  # SBOXSYNC: timing-only
            out = []
        elif c == 59:  # XBOX
            pm, _wpm = operand(src2[i], state, cst)
            out = [f"{D} = _xbox({A}, {pm}, {bsel[i] * 8})"]
        elif c in (48, 49):  # GRPL / GRPQ
            out = [f"{D} = _grp({A}, {B}, {32 if c == 48 else 64})"]
        else:  # pragma: no cover - callers filter unimplemented opcodes
            raise AssertionError(f"no emitter for opcode {c}")
        return out, addr

    def branch_cond(i: int, state: list, cst: list) -> "bool | str":
        c = code[i]
        s1 = src1[i]
        if s1 == 31:
            return c in (41, 44, 46)
        v = cst[s1]
        if v is not None:  # fold the whole condition at codegen time
            sv = v - (1 << 64) if (v >= 0 and v & _MSB) else v
            return {41: sv == 0, 42: sv != 0, 43: sv < 0,
                    44: sv <= 0, 45: sv > 0, 46: sv >= 0}[c]
        A = f"r{s1}"
        if c == 41:
            return f"{A} == 0"
        if c == 42:
            return f"{A} != 0"
        if state[s1] <= 63:  # provably non-negative as a signed value
            if c == 43:
                return False
            if c == 46:
                return True
            if c == 44:
                return f"{A} == 0"
            return f"{A} != 0"  # BGT
        if c == 43:
            return f"{A} & {_MSB:#x}"
        if c == 44:
            return f"{A} == 0 or {A} & {_MSB:#x}"
        if c == 45:
            return f"{A} != 0 and not {A} & {_MSB:#x}"
        return f"not {A} & {_MSB:#x}"  # BGE

    def goto_lines(p: int) -> list[str]:
        if p in block_of:
            return [f"b = {block_of[p]}"]
        return [f"pc_exit = {p}", "b = -1"]

    def value_expr(i: int) -> str:
        d = dest[i]
        if d == 32 or code[i] not in WRITES_DEST:
            return "0"
        return f"r{d}"

    def fold_candidate(i: int, body_end: int) -> "int | None":
        """Mask of an AND-lit at i+1 that can fold into i's result.

        Safe because nothing observes the intermediate value: the AND
        reads and rewrites the same destination on the very next pc, and
        per-instruction values are only recorded in ``record_values``
        mode (where folding is disabled).
        """
        j = i + 1
        if record_values or j >= body_end:
            return None
        if code[j] != 5 or lit[j] is None:
            return None
        d = dest[i]
        if d == 32 or src1[j] != d or dest[j] != d:
            return None
        if code[i] not in WRITES_DEST:
            return None
        return lit[j] & M64

    def apply_mask(stmt: str, d: int, m: int, wres: int) -> "str | None":
        """Rewrite ``r{d} = expr`` to apply mask ``m``, if recognizable."""
        prefix = f"r{d} = "
        if not stmt.startswith(prefix):
            return None
        if wres <= 64 and m & ((1 << wres) - 1) == (1 << wres) - 1:
            return stmt  # the AND is a no-op on a value this narrow
        rhs = stmt[len(prefix):]
        mm = re.match(r"^(.*) & (0x[0-9a-fA-F]+)$", rhs)
        if mm:
            return f"{prefix}{mm.group(1)} & {int(mm.group(2), 16) & m:#x}"
        return f"{prefix}({rhs}) & {m:#x}"

    flush_args = "values" if record_values else "None"

    for k, (start, end) in enumerate(blocks):
        state = list(widths[k])
        tzst = list(tzs[k])
        cst = list(consts[k])
        last = end - 1
        term = code[last]
        is_branch = term in BRANCH_CODES
        is_halt = term == 0
        is_unimpl = term not in IMPLEMENTED_CODES
        self_loop = is_branch and (
            block_of.get(target[last]) == k
            or (term != 40 and block_of.get(last + 1) == k)
        )
        head = "if" if k == 0 else "elif"
        wb(3, f"{head} b == {k}:  # pc {start}..{last}")
        bi = 4
        if self_loop:
            # The block branches back to itself: loop natively instead
            # of re-entering the dispatch chain every iteration.  The
            # entry widths already join the back edge, so the emitted
            # body is valid for every iteration.
            wb(4, "while True:")
            bi = 5
        wb(bi, f"executed += {end - start}")
        wb(bi, "if executed > max_instructions:")
        wb(bi + 1, "raise SimulationError(")
        wb(bi + 2, "'exceeded %d instructions (runaway loop?)'")
        wb(bi + 2, "% max_instructions)")

        body_end = last if (is_branch or is_halt or is_unimpl) else end
        stage_end = last if is_unimpl else end
        addr_vars: dict[int, str] = {}
        skip = -1
        for i in range(start, body_end):
            if i == skip:
                stmts, a = [], None  # folded into the previous pc
            else:
                stmts, a = instr_stmts(i, state, tzst, cst)
                m = fold_candidate(i, body_end)
                if m is not None and stmts:
                    tmp = list(state)
                    step(tmp, i)
                    folded = apply_mask(
                        stmts[-1], dest[i], m, tmp[dest[i]])
                    if folded is not None:
                        stmts = stmts[:-1] + [folded]
                        skip = i + 1
                        count("and_masks_folded")
            if a is not None:
                addr_vars[i] = a
            for line in stmts:
                wb(bi, line)
            step(state, i)
            tz_step(tzst, i)
            const_step(cst, i)
            if record_trace and record_values:
                # Values must be captured right after each instruction:
                # a later instruction in the block may overwrite the
                # same destination register.
                wb(bi, f"seq_append({i})")
                wb(bi, f"addrs_append({addr_vars.get(i, 0)})")
                wb(bi, f"values_append({value_expr(i)})")

        # Trace staging.  Entries exist for every instruction in the
        # block including a branch/HALT terminator (addr 0, value 0),
        # but not for an unimplemented one (the interpreter raises
        # before recording it).
        if record_trace and stage_end > start:
            if record_values:
                for i in range(body_end, stage_end):
                    wb(bi, f"seq_append({i})")
                    wb(bi, "addrs_append(0)")
                    wb(bi, "values_append(0)")
            else:
                seq_parts = ", ".join(
                    str(i) for i in range(start, stage_end))
                addr_parts = ", ".join(
                    str(addr_vars.get(i, 0))
                    for i in range(start, stage_end))
                wb(bi, f"seq_extend(({seq_parts},))")
                wb(bi, f"addrs_extend(({addr_parts},))")
            if not is_halt and not is_unimpl:
                wb(bi, "if len(seq) >= chunk_limit:")
                wb(bi + 1, "trace_base = yield from _drain(")
                wb(bi + 2, f"seq, addrs, {flush_args}, chunk_limit,"
                           " trace_base)")

        if is_halt:
            wb(bi, "break")
        elif is_unimpl:
            wb(bi, "raise SimulationError(")
            wb(bi + 1, f"'unimplemented opcode {term} at pc {last}')")
        elif self_loop:
            cond = True if term == 40 else branch_cond(last, state, cst)
            tk = block_of.get(target[last])
            fk = block_of.get(last + 1)
            if cond is True or cond is False:
                if term != 40:
                    count("branches_folded")
                dest_pc = target[last] if cond is True else last + 1
                if block_of.get(dest_pc) == k:
                    wb(bi, "continue")
                else:
                    for line in goto_lines(dest_pc):
                        wb(bi, line)
                    wb(bi, "break")
            elif tk == k and fk == k:
                wb(bi, "continue")
            elif tk == k:
                wb(bi, f"if {cond}:")
                wb(bi + 1, "continue")
                for line in goto_lines(last + 1):
                    wb(bi, line)
                wb(bi, "break")
            else:  # falls through to itself; the branch exits the loop
                wb(bi, f"if {cond}:")
                for line in goto_lines(target[last]):
                    wb(bi + 1, line)
                wb(bi + 1, "break")
        elif term == 40:  # BR
            for line in goto_lines(target[last]):
                wb(4, line)
        elif is_branch:
            cond = branch_cond(last, state, cst)
            if cond is True:
                count("branches_folded")
                for line in goto_lines(target[last]):
                    wb(4, line)
            elif cond is False:
                count("branches_folded")
                for line in goto_lines(last + 1):
                    wb(4, line)
            else:
                wb(4, f"if {cond}:")
                for line in goto_lines(target[last]):
                    wb(5, line)
                wb(4, "else:")
                for line in goto_lines(last + 1):
                    wb(5, line)
        else:  # fallthrough into the next leader (or off the end)
            for line in goto_lines(end):
                wb(4, line)

    wb(3, "else:")
    wb(4, "raise SimulationError(")
    wb(5, "'fell off program end at pc=%d' % pc_exit)")

    # Preamble (now that the bodies declared what they need).
    w(1, "memory = machine.memory")
    w(1, "data = memory.data")
    w(1, "mem_size = memory.size")
    if need_mv:
        w(1, "_mvb = memoryview(data)")
        for size in sorted(need_mv):
            cast = {2: "H", 4: "I", 8: "Q"}[size]
            w(1, f"mv{size} = _mvb.cast('{cast}')")
    for size in sorted(need_lims):
        w(1, f"lim{size} = mem_size - {size}")
    if need_zap:
        w(1, "_zap = _ZAPNOT")
    for s in pinned:
        w(1, f"r{s} = regs[{s}]")
    w(1, "executed = 0")
    if record_trace:
        w(1, "trace_base = 0")
        w(1, "seq = []")
        w(1, "addrs = []")
        if record_values:
            w(1, "values = []")
            w(1, "seq_append = seq.append")
            w(1, "addrs_append = addrs.append")
            w(1, "values_append = values.append")
        else:
            w(1, "seq_extend = seq.extend")
            w(1, "addrs_extend = addrs.extend")
    w(1, "pc_exit = 0")
    w(1, "b = 0")
    w(1, "try:")
    w(2, "while True:")
    lines.extend(body)
    w(1, "finally:")
    if writes or need_mv:
        for s in sorted(writes):
            w(2, f"regs[{s}] = r{s}")
        for size in sorted(need_mv):
            w(2, f"mv{size}.release()")
        if need_mv:
            w(2, "_mvb.release()")
    else:
        w(2, "pass")
    w(1, "machine.instructions_executed = executed")
    w(1, "machine.halted = True")
    if record_trace:
        w(1, "if len(seq) >= chunk_limit:")
        w(2, "trace_base = yield from _drain(")
        w(3, f"seq, addrs, {flush_args}, chunk_limit, trace_base)")
        w(1, "if seq:")
        w(2, "yield TraceChunk(")
        w(3, "seq=array(SEQ_T, seq),")
        w(3, "addrs=array(ADDR_T, addrs),")
        w(3, "start=trace_base,")
        if record_values:
            w(3, "values=array(VAL_T, values),")
        else:
            w(3, "values=None,")
        w(2, ")")
    w(1, "if False:")
    w(2, "yield None")
    return "\n".join(lines) + "\n", counters, len(blocks)
