"""The portable dispatch-loop backend.

One ``while`` loop over the decoded instruction arrays
(:class:`~repro.isa.analysis.passes.ProgramArrays`) dispatches on the
opcode through an ``if``/``elif`` chain, most frequent opcodes first --
the fastest portable shape for a pure-Python ISA interpreter.  The arms
are not written here: :func:`generated_source` calls each opcode's
emitter in :mod:`repro.isa.semantics` with nothing known, so every
operand, literal, displacement and byte select is read from the arrays
at run time, and each arm is the semantics the compiled backend
specializes per instruction.  Memory goes through ``int.from_bytes`` /
``to_bytes`` slices, which work for any host byte order and memory
size: the compiled backend delegates here on big-endian hosts and for
memory sizes not divisible by 8.

The loop is generated and compiled once per process, on first use, as
``<repro-interpreter>`` (:func:`repro.sim.codegen.compile_source`), so
tracebacks show its lines and the profiler counts it as ``functional``.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.isa.analysis.lattices import ZAPNOT_MASKS
from repro.isa.opcodes import HALT, SPECS_BY_NAME
from repro.isa.semantics import EMITTERS, Facts, grp, xbox
from repro.sim.codegen import compile_source
from repro.sim.trace import (
    ADDR_TYPECODE,
    SEQ_TYPECODE,
    VALUE_TYPECODE,
    TraceChunk,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class InterpreterBackend:
    """Reference backend: interprets the flattened instruction arrays."""

    name = "interpreter"

    def execute(
        self,
        machine: "Machine",
        *,
        chunk_limit: int,
        record_trace: bool,
        record_values: bool,
        max_instructions: int,
    ) -> Iterator[TraceChunk]:
        return _loop()(machine, chunk_limit, record_trace, record_values,
                       max_instructions)


def _drain(
    seq: list,
    addrs: list,
    values: "list | None",
    chunk_limit: int,
    trace_base: int,
) -> Iterator[TraceChunk]:
    """Carve exactly ``chunk_limit``-sized chunks off the staged lists.

    Both generated frames flush through it.  The compiled backend stages
    a whole basic block before checking the limit, so its lists can run
    past it; slicing restores the exact chunk boundaries (every chunk
    full except the final partial one).  Returns the updated
    ``trace_base`` via StopIteration: ``trace_base = yield from
    _drain(...)``.
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


#: Dispatch order: the shipped kernels' most frequent opcodes first.
_ARM_ORDER = (
    "xor", "addl", "addq", "and", "bis", "sll", "srl", "extbl", "sbox",
    "ldl", "ldq", "ldbu", "ldwu", "stl", "stq", "stb", "stw", "roll",
    "rorl", "rolxl", "rorxl", "mulmod", "xbox", "subq", "subl", "bic",
    "ornot", "sra", "mull", "mulq", "cmpeq", "cmpult", "cmpule", "cmplt",
    "cmple", "insbl", "zapnot", "s4addq", "s8addq", "cmoveq", "cmovne",
    "lda", "ldiq", "br", "beq", "bne", "blt", "ble", "bgt", "bge", "rolq",
    "rorq", "grpl", "grpq", "sboxsync", "halt",
)

#: HALT stages its own trace entry (address and value 0) and stops.
_HALT_ARM = """\
if record_trace:
    seq_append(pc)
    addrs_append(0)
    if values is not None:
        values.append(0)
    filled += 1
break"""

_HEAD = """\
def _interpret(machine, chunk_limit, record_trace, record_values,
               max_instructions):
    regs = machine.regs
    regs[31] = 0
    data = machine.memory.data
    mem_size = machine.memory.size
    lim1, lim2, lim4, lim8 = (mem_size - 1, mem_size - 2, mem_size - 4,
                              mem_size - 8)
    _zap = _ZAPNOT
    code, dest, src1, src2 = (
        machine.code, machine.dest, machine.src1, machine.src2,
    )
    lit, disp, target = machine.lit, machine.disp, machine.target
    bsel = machine.bsel

    # Entries stage into plain lists (fastest append) and flush to
    # compact arrays at each chunk boundary.
    seq = []
    addrs = []
    values = [] if record_values else None
    seq_append = seq.append
    addrs_append = addrs.append
    filled = 0
    trace_base = 0
    n = len(code)

    pc = 0
    executed = 0
    while True:
        if pc >= n:
            raise SimulationError(f"fell off program end at pc={pc}")
        c = code[pc]
        executed += 1
        if executed > max_instructions:
            raise SimulationError(
                f"exceeded {max_instructions} instructions (runaway loop?)"
            )
        addr = 0
        next_pc = pc + 1
"""

_TAIL = """\

        # Writes to r31 were remapped to shadow slot 32 at decode time,
        # so regs[31] stays zero without a per-instruction reset.
        if record_trace:
            seq_append(pc)
            addrs_append(addr)
            if values is not None:
                d = dest[pc]
                values.append(regs[d] if d != 32 else 0)
            filled += 1
            if filled >= chunk_limit:
                trace_base = yield from _drain(
                    seq, addrs, values, chunk_limit, trace_base)
                filled = 0
        pc = next_pc

    machine.instructions_executed = executed
    machine.halted = True
    if record_trace and filled:  # the final, partial chunk
        yield from _drain(seq, addrs, values, filled, trace_base)
"""


def _arm(name: str) -> "list[str]":
    """One opcode's dispatch arm, from its emitter with nothing known."""
    if SPECS_BY_NAME[name].code == HALT:
        return _HALT_ARM.splitlines()
    out = EMITTERS[name](Facts())
    if SPECS_BY_NAME[name].fmt == "br":
        if out is True:
            return ["next_pc = target[pc]"]
        return [f"if {out}:", "    next_pc = target[pc]"]
    return out or ["pass"]


def generated_source() -> str:
    """The interpreter's source: the loop frame around one arm per opcode."""
    assert sorted(_ARM_ORDER) == sorted(SPECS_BY_NAME), "one arm per opcode"
    lines = [_HEAD.rstrip("\n")]
    for k, name in enumerate(_ARM_ORDER):
        head = "if" if k == 0 else "elif"
        lines.append(f"        {head} c == {SPECS_BY_NAME[name].code}:"
                     f"  # {name.upper()}")
        lines += ["            " + line for line in _arm(name)]
    return "\n".join(lines) + "\n" + _TAIL


def _namespace() -> "dict[str, Any]":
    """The globals both generated functional forms read."""
    from repro.sim.machine import SimulationError

    return {
        "SimulationError": SimulationError,
        "TraceChunk": TraceChunk,
        "array": array,
        "SEQ_T": SEQ_TYPECODE,
        "ADDR_T": ADDR_TYPECODE,
        "VAL_T": VALUE_TYPECODE,
        "_drain": _drain,
        "_grp": grp,
        "_xbox": xbox,
        "_ZAPNOT": ZAPNOT_MASKS,
    }


@cache
def _loop() -> Callable[..., Any]:
    """The generated loop, compiled once per process."""
    return compile_source(generated_source(), "<repro-interpreter>",
                          "_interpret", _namespace(), generated_source)
