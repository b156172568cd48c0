"""Per-program compiled execution backend.

Translates a finalized :class:`~repro.isa.program.Program` into one
specialized Python generator function: every static instruction becomes
a handful of straight-line statements (operands constant-folded,
registers pinned in locals), basic blocks dispatch through a small
``while``/``elif`` chain, and the dynamic trace is staged
block-at-a-time with constant tuples.  Each instruction's statements
come from its opcode's emitter in :mod:`repro.isa.semantics`, called
with the widths, trailing zeros and constants the lattices proved (a
:class:`_Site`); the interpreter is generated from the same emitters
with nothing known.  The generated source is compiled once and cached
by program digest in :data:`CODE`, so repeated sessions of the same
kernel pay zero codegen cost.

The output contract is bit-identical to the interpreter backend on every
successful execution: same ``TraceChunk`` entries *and boundaries*, same
final registers, memory and ``instructions_executed``
(``tests/sim/test_backend_equivalence.py`` is the oracle).  Failure
paths raise the same ``SimulationError`` messages, but may differ in how
much of the failing basic block's side effects landed, because the
runaway-instruction check runs once per block rather than once per
instruction; see ``docs/backends.md``.

Functions are compiled under ``<repro-compiled:...>`` filenames
(:func:`repro.sim.codegen.compile_source`), so tracebacks show real
lines and the sampling profiler can attribute generated-code frames to
the ``functional`` bucket (codegen itself lands in the ``compile``
bucket).
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.isa.analysis.lattices import (
    UNKNOWN_WIDTH,
    WRITES_DEST,
    make_const_step,
    make_tz_step,
    make_width_step,
)
from repro.isa.analysis.passes import analyses_for
from repro.isa.opcodes import AND, BR, BRANCH_CODES, HALT, MEM_SIZES, SPECS
from repro.isa.program import Program
from repro.isa.semantics import EMITTERS, Facts
from repro.sim.backends.interpreter import _loop, _namespace
from repro.sim.codegen import CodeCache, CodegenReport
from repro.sim.trace import TraceChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine

M64 = 0xFFFFFFFFFFFFFFFF

#: Generated code reads memory through ``memoryview.cast`` (native byte
#: order); on a big-endian host we delegate to the interpreter instead.
_LITTLE = sys.byteorder == "little"


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
            return _loop()(machine, chunk_limit, record_trace,
                           record_values, max_instructions)
        fn = compiled_function(machine, record_trace, record_values)
        return fn(machine, chunk_limit, max_instructions)


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

#: Generated functions by (program digest, record_trace, record_values,
#: memory size), published as ``backend`` ledger events.
CODE = CodeCache("backend", "compiled backend", COUNTER_KEYS)


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
    program, mem_size = machine.program, machine.memory.size
    digest = program.digest()
    key = (digest, record_trace, record_values, mem_size)
    hit = CODE.get(key)
    if hit is not None:
        return hit[0]
    func_name = f"_compiled_{digest[:8]}"
    mode = ("t" if record_trace else "-") + ("v" if record_values else "-")
    flags = ("t" if record_trace else "f") + ("v" if record_values else "f")

    def generate():
        # The program and memory size, never the machine: no memory image
        # outlives its run in the callback that regenerates the lines.
        return (*_generate_source(program, mem_size, record_trace,
                                  record_values, func_name), _namespace())

    return CODE.compile(
        key, CodegenReport(digest, mode, len(program.instructions),
                           len(analyses_for(program).cfg.blocks)),
        f"<repro-compiled:{digest[:8]}:{flags}:{mem_size}>", func_name,
        generate)[0]


def generated_source(
    machine: "Machine",
    record_trace: bool = True,
    record_values: bool = False,
) -> str:
    """The Python source the backend would execute (docs and tests)."""
    return _generate_source(machine.program, machine.memory.size,
                            record_trace, record_values, "_compiled_run")[0]


def _constant(value: int) -> "tuple[str, int]":
    """A known operand: its literal text and width (negatives unknown)."""
    return str(value), (value.bit_length() if value >= 0 else UNKNOWN_WIDTH)


class _Site(Facts):
    """Facts about one static instruction, as the lattices proved them."""

    def __init__(self, src2: list, mem_size: int, record_trace: bool,
                 counters: "dict[str, int]") -> None:
        self.src2 = src2
        self.mem_size = mem_size
        self.trace = record_trace
        self.counters = counters

    def at(self, i: int, state: list, tz: list, cst: list) -> "_Site":
        """Re-aim at instruction ``i`` under the block's current facts."""
        self.pc, self.state, self.tz, self.cst = i, state, tz, cst
        self.addr_name = f"a{i}"
        self.addr = None
        return self

    def operand(self, slot: int) -> "tuple[str, int]":
        """Expression and width for a register read (const-folded)."""
        if slot == 31:
            return "0", 0
        v = self.cst[slot]
        if v is not None:
            self.count("constants_folded")
            return _constant(v)
        return f"r{slot}", self.state[slot]

    def count(self, key: str) -> None:
        self.counters[key] += 1

    def reg2(self) -> "tuple[str, int]":
        return self.operand(self.src2[self.pc])

    def base(self) -> "tuple[str, int, int | None, int]":
        base = self.src2[self.pc]
        if base == 31:
            return "0", 0, 0, 64
        return f"r{base}", self.state[base], self.cst[base], self.tz[base]

    def load(self, size: int, addr: str) -> str:
        if size == 1:
            return f"data[{addr}]"
        return f"mv{size}[{addr} >> {size.bit_length() - 1}]"

    def load_word(self, index: str) -> str:
        return f"mv4[{index}]"

    def store(self, size: int, addr: str, value: str) -> str:
        return f"{self.load(size, addr)} = {value}"


def _generate_source(
    program: Program,
    mem_size: int,
    record_trace: bool,
    record_values: bool,
    func_name: str,
) -> "tuple[str, dict[str, int]]":
    """Generate the source plus its optimization counters.

    The counters (keys: :data:`COUNTER_KEYS`) are incremented at every
    elision/fold decision the emitters take, so a compile report
    explains exactly what specialization bought for this program.
    """
    # Entry facts come from the program's shared analyses, so every
    # recording mode (and the verifier) reuses one set of fixpoints.
    analyses = analyses_for(program)
    arrays = analyses.arrays
    code, dest = arrays.code, arrays.dest
    src1, src2 = arrays.src1, arrays.src2
    lit, disp, target = arrays.lit, arrays.disp, arrays.target
    bsel = arrays.bsel
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
        return "\n".join(lines) + "\n", counters

    blocks, block_of = analyses.cfg.blocks, analyses.cfg.block_of
    widths = analyses.array_widths
    tzs = analyses.array_trailing_zeros
    consts = analyses.array_constants
    step = make_width_step(arrays)
    tz_step = make_tz_step(arrays)
    const_step = make_const_step(arrays)
    # Bounds proofs compare against the memory size, so the generated
    # function is specialized to it (part of the cache key).
    site = _Site(src2, mem_size, record_trace, counters)

    # Register-usage scan: which slots to pin in locals / write back.
    reads: set[int] = set()
    writes: set[int] = set()
    for i in range(n):
        spec = SPECS[code[i]]
        reads.add(src1[i])
        reads.add(src2[i])
        if spec.reads_dest:
            reads.add(dest[i])
        if spec.writes_dest:
            writes.add(dest[i])
    reads.discard(31)
    writes.discard(31)
    pinned = sorted(reads | writes)

    # The block bodies are generated first so the preamble only sets up
    # what they actually use (memoryview casts, bounds limits, tables).
    body: list[str] = []

    def wb(indent: int, text: str) -> None:
        body.append("    " * indent + text)

    def instr_stmts(
        i: int, state: list, tz: list, cst: list
    ) -> "tuple[list[str], str | None]":
        """One instruction's statements and the address it records."""
        f = site.at(i, state, tz, cst)
        f.D = f"r{dest[i]}"
        f.A, f.wa = f.operand(src1[i])
        f.ca = 0 if src1[i] == 31 else cst[src1[i]]
        f.L = L = lit[i]
        f.B, f.wb = f.operand(src2[i]) if L is None else _constant(L)
        f.disp, f.bsel = disp[i], bsel[i]
        out = EMITTERS[SPECS[code[i]].name](f)
        size = MEM_SIZES.get(code[i])
        base = src2[i]
        if (size is not None and disp[i] == 0 and base != 31
                and cst[base] is None and state[base] <= 64):
            # Past this point the base register itself was a valid
            # address (checked or proved), so it is < mem_size.
            state[base] = min(state[base], (mem_size - size).bit_length())
        return out, f.addr

    def branch_cond(i: int, state: list, cst: list) -> "bool | str":
        """The taken condition of the branch at ``i``, folded if proved."""
        f = site.at(i, state, [], cst)
        s1 = src1[i]
        f.A, f.wa = f"r{s1}", state[s1]
        f.ca = 0 if s1 == 31 else cst[s1]
        return EMITTERS[SPECS[code[i]].name](f)

    def goto_lines(p: int) -> list[str]:
        if p < n:
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
        if code[j] != AND or lit[j] is None:
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

    for block in blocks:
        k, start, end = block.bid, block.start, block.end
        state = list(widths[k])
        tzst = list(tzs[k])
        cst = list(consts[k])
        last = end - 1
        term = code[last]
        is_branch = term in BRANCH_CODES
        is_halt = term == HALT
        self_loop = k in block.successors
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

        body_end = last if (is_branch or is_halt) else end
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
        # block including a branch/HALT terminator (addr 0, value 0).
        if record_trace:
            if record_values:
                for i in range(body_end, end):
                    wb(bi, f"seq_append({i})")
                    wb(bi, "addrs_append(0)")
                    wb(bi, "values_append(0)")
            else:
                seq_parts = ", ".join(str(i) for i in range(start, end))
                addr_parts = ", ".join(
                    str(addr_vars.get(i, 0)) for i in range(start, end))
                wb(bi, f"seq_extend(({seq_parts},))")
                wb(bi, f"addrs_extend(({addr_parts},))")
            if not is_halt:
                wb(bi, "if len(seq) >= chunk_limit:")
                wb(bi + 1, "trace_base = yield from _drain(")
                wb(bi + 2, f"seq, addrs, {flush_args}, chunk_limit,"
                           " trace_base)")

        if is_halt:
            wb(bi, "break")
        elif self_loop:
            # Only the branch target can be the block's own start.
            cond = True if term == BR else branch_cond(last, state, cst)
            if cond is True or cond is False:
                if term != BR:
                    count("branches_folded")
                dest_pc = target[last] if cond is True else last + 1
                if dest_pc == start:
                    wb(bi, "continue")
                else:
                    for line in goto_lines(dest_pc):
                        wb(bi, line)
                    wb(bi, "break")
            else:
                wb(bi, f"if {cond}:")
                wb(bi + 1, "continue")
                for line in goto_lines(last + 1):
                    wb(bi, line)
                wb(bi, "break")
        elif term == BR:
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

    # Preamble: set up only what the bodies use.
    used = "\n".join(body)
    need_mv = [size for size in (2, 4, 8) if f"mv{size}[" in used]
    w(1, "memory = machine.memory")
    w(1, "data = memory.data")
    w(1, "mem_size = memory.size")
    if need_mv:
        w(1, "_mvb = memoryview(data)")
        for size in need_mv:
            cast = {2: "H", 4: "I", 8: "Q"}[size]
            w(1, f"mv{size} = _mvb.cast('{cast}')")
    for size in (1, 2, 4, 8):
        if f"lim{size}" in used:
            w(1, f"lim{size} = mem_size - {size}")
    if "_zap[" in used:
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
        for size in need_mv:
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
    return "\n".join(lines) + "\n", counters
