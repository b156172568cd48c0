"""Functional RISC-A simulator.

Executes a finalized program against a :class:`~repro.sim.memory.Memory`,
optionally recording the compact dynamic trace the timing models consume.
Execution itself is delegated to a pluggable backend
(:mod:`repro.sim.backends`): the portable ``"interpreter"`` dispatch loop
or the per-program ``"compiled"`` specializer.  :meth:`Machine.execute` is
the single entry point; it selects the backend and the delivery shape
(batch ``RunResult``, chunk iterator, or :class:`StreamingTrace`).

Architectural notes (see ``repro.isa.opcodes`` for the full list):
* registers hold unsigned 64-bit values; ``r31`` reads as zero (writes to it
  are compiled to a shadow slot),
* 32-bit results (``ADDL`` family, ``ROLL``, ``ROLXL``, SBOX loads, ``LDL``)
  are zero-extended,
* SBOXSYNC is a timing-only instruction: the functional model reads S-box
  tables from live memory, which is equivalent because kernels only store to
  a non-aliased S-box region before the matching SBOXSYNC (RC4's in-kernel
  stores use the aliased SBOX form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.isa.analysis.passes import ProgramArrays
from repro.isa.program import Program
from repro.sim.memory import Memory
from repro.sim.trace import (
    DEFAULT_CHUNK_SIZE,
    StaticInfo,
    Trace,
    TraceChunk,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends -> here)
    from repro.sim.backends import ExecutionBackend

class SimulationError(RuntimeError):
    """Raised when execution fails (bad memory access, runaway program)."""


@dataclass
class RunResult:
    instructions: int
    trace: Trace | None


class Machine:
    """Functional executor for one program instance."""

    def __init__(self, program: Program, memory: Memory):
        if not program.finalized:
            raise ValueError("program must be finalized")
        self.program = program
        self.memory = memory
        self.regs = [0] * 33  # slot 32 swallows writes to r31
        #: One-shot guard: execution mutates registers and memory in place.
        self._used = False
        self.halted = False
        self.instructions_executed = 0
        self._compile()

    def _compile(self) -> None:
        """Decode the program into the parallel arrays the backends read."""
        arrays = ProgramArrays(self.program)
        self.code, self.dest = arrays.code, arrays.dest
        self.src1, self.src2 = arrays.src1, arrays.src2
        self.lit, self.disp = arrays.lit, arrays.disp
        self.target, self.bsel = arrays.target, arrays.bsel

    def execute(
        self,
        *,
        backend: "str | ExecutionBackend | None" = None,
        stream: bool = False,
        chunk_size: int | None = None,
        record_trace: bool = True,
        record_values: bool = False,
        max_instructions: int = 200_000_000,
    ) -> "RunResult | Iterator[TraceChunk] | StreamingTrace":
        """Execute from instruction 0 until HALT -- the single entry point.

        ``backend`` selects how execution happens: ``None`` (the default
        backend), a registered name (``"interpreter"``, ``"compiled"``),
        or an :class:`~repro.sim.backends.ExecutionBackend` instance.
        Every backend produces bit-identical architectural effects and
        trace chunks, so the choice only affects speed.

        ``stream`` and ``chunk_size`` select the delivery shape:

        * ``execute()`` -- run to completion, return a :class:`RunResult`
          (with a materialized :class:`~repro.sim.trace.Trace` when
          ``record_trace`` is true).
        * ``execute(chunk_size=n)`` -- return an iterator of bounded
          :class:`~repro.sim.trace.TraceChunk` objects; execution
          advances only as chunks are consumed, so peak trace memory is
          O(``chunk_size``).
        * ``execute(stream=True, chunk_size=n)`` -- return a
          :class:`StreamingTrace`, the single-pass ``TraceSource`` the
          timing pipeline consumes (``chunk_size`` defaults to
          ``DEFAULT_CHUNK_SIZE``).

        A machine executes at most once (execution mutates registers and
        memory in place); call :meth:`reset` with a fresh memory image to
        reuse the decoded program, or build a new :class:`Machine`.
        The chunked shapes claim the execution immediately;
        ``stream=True`` defers the claim until chunks are first consumed.
        """
        from repro.sim.backends import UNBOUNDED_CHUNK, get_backend

        resolved = get_backend(backend)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if stream:
            if not record_trace:
                raise ValueError("stream=True requires record_trace=True")
            return StreamingTrace(
                self,
                chunk_size=(DEFAULT_CHUNK_SIZE if chunk_size is None
                            else chunk_size),
                backend=resolved,
                record_values=record_values,
                max_instructions=max_instructions,
            )
        if chunk_size is not None:
            if not record_trace:
                raise ValueError(
                    "chunked execution requires record_trace=True "
                    "(a traceless run yields no chunks)"
                )
            self._claim()
            return resolved.execute(
                self,
                chunk_limit=chunk_size,
                record_trace=True,
                record_values=record_values,
                max_instructions=max_instructions,
            )
        self._claim()
        chunks = list(resolved.execute(
            self,
            chunk_limit=UNBOUNDED_CHUNK,
            record_trace=record_trace,
            record_values=record_values,
            max_instructions=max_instructions,
        ))
        trace = None
        if record_trace:
            chunk = chunks[0]
            trace = Trace(
                program=self.program,
                static=StaticInfo.from_program(self.program),
                seq=chunk.seq,
                addrs=chunk.addrs,
                values=chunk.values,
                instructions_executed=self.instructions_executed,
            )
        return RunResult(instructions=self.instructions_executed, trace=trace)

    def reset(self, memory: Memory | None = None) -> None:
        """Re-arm the machine for another execution.

        Clears the architectural registers and (when given) installs a
        fresh memory image.  ``run`` mutates memory in place, so reusing
        the mutated image is almost never what a caller wants -- pass the
        rebuilt :class:`Memory` explicitly to make the choice visible.
        """
        self.regs = [0] * 33
        if memory is not None:
            self.memory = memory
        self._used = False
        self.halted = False
        self.instructions_executed = 0

    def _claim(self) -> None:
        if self._used:
            raise SimulationError(
                "Machine already executed: execute() mutates "
                "registers and memory in place, so a second execution "
                "would silently diverge.  Build a new Machine or call "
                "reset() with a fresh Memory."
            )
        self._used = True


class StreamingTrace:
    """Single-pass :class:`~repro.sim.trace.TraceSource` over a live machine.

    Satisfies the same protocol as a materialized
    :class:`~repro.sim.trace.Trace` -- ``program``, ``static`` and
    ``chunks()`` -- but produces entries on demand from the functional
    interpreter, so only one chunk of the dynamic trace exists at a time.
    Unlike a ``Trace`` it is single-use: the underlying machine executes
    exactly once, as the chunks are consumed.

    After exhaustion, :attr:`instructions` holds the executed-instruction
    count and the machine's memory holds the program's output (the kernel
    harness validates it in :meth:`repro.kernels.runtime.KernelStream.finalize`).
    """

    def __init__(
        self,
        machine: Machine,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        *,
        backend: "str | ExecutionBackend | None" = None,
        record_values: bool = False,
        max_instructions: int = 200_000_000,
    ):
        self.machine = machine
        self.program = machine.program
        self.static = StaticInfo.from_program(machine.program)
        self.chunk_size = chunk_size
        self._backend = backend
        self._record_values = record_values
        self._max_instructions = max_instructions
        self._consumed = False

    @property
    def exhausted(self) -> bool:
        return self.machine.halted

    @property
    def instructions(self) -> int:
        if not self.machine.halted:
            raise SimulationError(
                "streaming trace not exhausted: instruction count is only "
                "known once the machine halts"
            )
        return self.machine.instructions_executed

    def chunks(self, chunk_size: int | None = None):
        """Run the machine, yielding chunks (single use)."""
        if self._consumed:
            raise SimulationError(
                "StreamingTrace is single-pass and was already consumed"
            )
        self._consumed = True
        result = self.machine.execute(
            backend=self._backend,
            chunk_size=chunk_size if chunk_size is not None else self.chunk_size,
            record_values=self._record_values,
            max_instructions=self._max_instructions,
        )
        assert not isinstance(result, (RunResult, StreamingTrace))
        return result
