"""Run directed ISA tests on every functional backend.

The directed opcode tests pin hand-written expected values; running them
on both backends makes those values the oracle for each backend's
generated code.  :func:`every_backend` runs a test's legs (each backend,
and each operand source if the test takes ``operands``) inside the test's
one pytest item, so a test keeps its own id whichever backends exist.
Two details keep the compiled leg honest:

* :func:`execute` asserts that the compiled backend really generated code
  (a memory size it cannot cast falls back to the interpreter silently);
* :func:`from_memory` moves every ``ldiq`` operand into memory and loads
  it with ``ldq``, so the constant lattice cannot fold the operands and
  the compiled backend's unproved arms run.
"""

import functools
import inspect
import itertools
import re

from repro.isa import assemble
from repro.sim import Machine
from repro.sim.backends import backend_names, compiled

#: Where a test's operands come from.
OPERAND_SOURCES = ("ldiq", "memory")

#: Where :func:`from_memory` parks operand values (clear of the result
#: slot at 0x400, the tests' scratch words and their 0x1000 tables).
OPERAND_BASE = 0x8000

_LDIQ = re.compile(r"^(\s*)ldiq\s+(r\d+)\s*,\s*([^\s;]+)", re.MULTILINE)


def every_backend(test):
    """Run ``test`` once per backend, and per operand source if it takes
    ``operands``, all in one pytest item under the test's own id.

    Put it below any ``pytest.mark`` decorator and above ``@given``.  A
    failing leg is named in a note on the error.
    """
    signature = inspect.signature(test)
    axes = {name: values
            for name, values in (("backend", backend_names()),
                                 ("operands", OPERAND_SOURCES))
            if name in signature.parameters}
    legs = [dict(zip(axes, values))
            for values in itertools.product(*axes.values())]

    @functools.wraps(test, updated=())
    def run_legs(*args, **kwargs):
        for leg in legs:
            try:
                test(*args, **kwargs, **leg)
            except Exception as error:
                error.add_note(f"leg: {leg}")
                raise

    run_legs.__signature__ = signature.replace(parameters=[
        param for name, param in signature.parameters.items()
        if name not in axes
    ])
    return run_legs


def _compilations() -> int:
    return sum(1 + r.hits for r in compiled.CODE.reports())


def execute(program, memory, backend, **kwargs):
    """Execute ``program`` on ``backend``; the compiled leg must compile."""
    before = _compilations()
    result = Machine(program, memory).execute(backend=backend, **kwargs)
    if backend == "compiled":
        assert _compilations() > before, (
            "the compiled leg fell back to the interpreter"
        )
    return result


def from_memory(source: str, memory) -> str:
    """Rewrite ``ldiq rN, value`` as ``ldq rN, slot(r31)`` over ``memory``."""
    slots = iter(range(OPERAND_BASE, OPERAND_BASE + 0x1000, 8))

    def load(match):
        slot = next(slots)
        memory.write(slot, int(match.group(3), 0), 8)
        return f"{match.group(1)}ldq {match.group(2)}, {slot:#x}(r31)"

    return _LDIQ.sub(load, source)


def run_source(source: str, memory, backend, operands="ldiq", **kwargs):
    """Assemble and execute ``source``, operands from ``ldiq`` or memory."""
    if operands == "memory":
        source = from_memory(source, memory)
    return execute(assemble(source), memory, backend, **kwargs)
