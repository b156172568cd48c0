"""Pluggable execution backends for the functional RISC-A machine.

A backend turns one claimed :class:`~repro.sim.machine.Machine` execution
into the canonical :class:`~repro.sim.trace.TraceChunk` stream.  Everything
downstream -- the timing pipelines, the runner's trace cache, the analysis
harnesses -- consumes that stream, so backends are interchangeable as long
as they produce bit-identical chunks (the equivalence suite in
``tests/sim/test_backend_equivalence.py`` is the oracle).

Two backends ship with the repo:

* ``"interpreter"`` -- the portable dispatch loop, one arm per opcode
  (see :mod:`repro.sim.backends.interpreter`).
* ``"compiled"`` -- a per-program specializer that translates a finalized
  ``Program`` into one Python generator function (unrolled per-instruction
  dispatch, locals-pinned registers, ``memoryview``-cast memory access),
  cached by program digest (see :mod:`repro.sim.backends.compiled`).

Both are generated from the per-opcode emitters in
:mod:`repro.isa.semantics`: the interpreter's arms with nothing known, the
compiled code per static instruction with what its lattices proved.

See ``docs/backends.md`` for the protocol contract and codegen shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine -> here)
    from repro.sim.machine import Machine
    from repro.sim.trace import TraceChunk

#: Chunk limit meaning "never flush": the whole trace arrives as one chunk.
UNBOUNDED_CHUNK = 1 << 62

#: Backend used when callers pass ``backend=None``.
DEFAULT_BACKEND = "interpreter"


@runtime_checkable
class ExecutionBackend(Protocol):
    """One way to run a claimed machine to completion.

    ``execute`` must drive the machine until HALT (or raise
    :class:`~repro.sim.machine.SimulationError`), yield ``TraceChunk``
    objects with interpreter-identical contents *and boundaries* (every
    chunk holds exactly ``chunk_limit`` entries except the final partial
    one), and leave ``machine.regs``, ``machine.memory``,
    ``machine.halted`` and ``machine.instructions_executed`` exactly as
    the interpreter would.  When ``record_trace`` is false the iterator
    yields nothing but the architectural effects still happen.
    """

    name: str

    def execute(
        self,
        machine: "Machine",
        *,
        chunk_limit: int,
        record_trace: bool,
        record_values: bool,
        max_instructions: int,
    ) -> Iterator["TraceChunk"]:  # pragma: no cover - protocol signature
        ...


# The built-in backends.  Imported late in the module; neither import
# pulls in repro.sim.machine at module scope beyond what repro.sim
# already loads.
from repro.sim.backends.compiled import CompiledBackend  # noqa: E402
from repro.sim.backends.interpreter import InterpreterBackend  # noqa: E402

_BACKENDS: dict[str, ExecutionBackend] = {
    "interpreter": InterpreterBackend(),
    "compiled": CompiledBackend(),
}


def backend_names() -> tuple[str, ...]:
    """Backend names, sorted (for CLI choices and error text)."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: "str | ExecutionBackend | None") -> ExecutionBackend:
    """Resolve a backend argument: None, a backend name, or an instance."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if not isinstance(backend, str):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; registered: "
                         f"{', '.join(backend_names())}") from None


__all__ = [
    "DEFAULT_BACKEND",
    "UNBOUNDED_CHUNK",
    "ExecutionBackend",
    "CompiledBackend",
    "InterpreterBackend",
    "backend_names",
    "get_backend",
]
