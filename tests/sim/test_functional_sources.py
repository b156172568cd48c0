"""One semantics source: both functional backends come from the emitters.

The directed opcode tests (tests/isa) pin each backend's results; these
pin the structure that makes them one implementation: every opcode has
exactly one emitter in :mod:`repro.isa.semantics`, the interpreter's
arms are those emitters' nothing-known output, and the compiled backend
calls the same emitters per static instruction.
"""

import linecache
import re
from pathlib import Path

from repro.isa import assemble
from repro.isa.opcodes import SPECS_BY_NAME
from repro.isa.semantics import EMITTERS, Facts
from repro.sim import Machine, Memory
from repro.sim.backends import compiled, interpreter

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_opcode_has_exactly_one_emitter():
    assert set(EMITTERS) == set(SPECS_BY_NAME)


def test_interpreter_arms_are_the_emitters_with_nothing_known():
    source = interpreter.generated_source()
    for name, spec in SPECS_BY_NAME.items():
        assert f"c == {spec.code}:  # {name.upper()}" in source
        if spec.fmt in ("op", "mem", "ldi", "sbox", "xbox"):
            for line in EMITTERS[name](Facts()):
                assert line in source, (name, line)
    compile(source, "<test>", "exec")


def test_interpreter_dispatch_has_no_unreachable_arm():
    """``Instruction`` rejects unknown opcodes, so the dispatch chain is
    exactly one arm per opcode, with no catch-all ``else``."""
    source = interpreter.generated_source()
    arms = re.findall(r"^        (if c ==|elif c ==|else:)", source,
                      re.MULTILINE)
    assert arms == ["if c =="] + ["elif c =="] * (len(SPECS_BY_NAME) - 1)
    assert "unimplemented" not in source


def test_interpreter_source_is_registered_for_tracebacks():
    memory = Memory(1 << 12)
    Machine(assemble("ldiq r1, 7\n stq r1, 0x400(r31)\n halt"),
            memory).execute(backend="interpreter")
    assert linecache.getline("<repro-interpreter>", 1).startswith(
        "def _interpret(")


def test_compiled_backend_calls_the_same_emitters(monkeypatch):
    calls = []
    xor = EMITTERS["xor"]

    def spy(facts):
        calls.append(facts.pc)
        return xor(facts)

    monkeypatch.setitem(EMITTERS, "xor", spy)
    program = assemble("ldq r1, 0x400(r31)\n xor r2, r1, r1\n halt")
    source = compiled.generated_source(Machine(program, Memory(1 << 12)))
    assert calls == [1]
    assert "r2 = r1 ^ r1" in source


def test_compiled_backend_falls_back_to_the_generated_interpreter():
    # memoryview casts need a size divisible by 8; 4100 is not.
    program = assemble("ldiq r1, 7\n stq r1, 0x400(r31)\n halt")
    before = len(compiled.CODE)
    memory = Memory(4100)
    result = Machine(program, memory).execute(backend="compiled")
    assert len(compiled.CODE) == before
    assert (result.instructions, memory.read(0x400, 8)) == (3, 7)
    assert list(result.trace.seq) == [0, 1, 2]


def test_no_opcode_is_named_by_number():
    pattern = re.compile(r"\b(c|term) (==|!=|in|not in) \(?[0-9]")
    paths = [*(SRC / "sim" / "backends").glob("*.py"),
             *(SRC / "isa" / "analysis").glob("*.py")]
    offenders = [f"{path.name}:{n}" for path in paths
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
