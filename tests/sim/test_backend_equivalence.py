"""Differential equivalence: the compiled backend is bit-identical.

The compiled backend's contract (docs/backends.md) is that backend choice
never changes results -- only speed.  These tests hold it to that across
the full cipher suite, every ISA feature level, and every chunking shape:

* identical :class:`Trace` columns (static indices, addresses, values),
* identical chunk *boundaries*, not just concatenated contents,
* identical final architectural state (registers, memory, counters),
* identical timing statistics when the traces feed ``simulate()``.

This is what lets the runner keep ``backend`` out of its cache keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, Imm, KernelBuilder
from repro.isa.opcodes import SPECS
from repro.kernels import KERNEL_NAMES, make_kernel
from repro.sim import FOURW, Machine, Memory, simulate
from repro.sim.backends import UNBOUNDED_CHUNK, backend_names
from repro.sim.diverge import assert_sources_identical
from repro.sim.machine import RunResult

FEATURE_LEVELS = (Features.NOROT, Features.ROT, Features.OPT)
#: Chunk limits exercising degenerate (1), odd (7), typical (4096) and
#: single-chunk (unbounded) boundary placement.
CHUNK_SIZES = (1, 7, 4096, UNBOUNDED_CHUNK)
#: 64 bytes is block-aligned for every suite cipher (1, 8 and 16 byte
#: blocks) while keeping the matrix cheap.
SESSION = bytes(range(64))


def _fresh(cipher, features):
    """A fresh machine for one cipher kernel run (memory fully laid out)."""
    kernel = make_kernel(cipher, features)
    program, memory, _ = kernel.prepare(SESSION, None)
    return Machine(program, memory)


def _state(machine):
    return (
        machine.regs,
        bytes(machine.memory.data),
        machine.instructions_executed,
        machine.halted,
    )


def _run_batch(machine, backend, **kwargs):
    result = machine.execute(backend=backend, **kwargs)
    assert isinstance(result, RunResult)
    return result


def _assert_traces_identical(ref_trace, got_trace, context=""):
    """Bit-identity with forensics: a failure names the first differing
    trace position, column and instruction (repro.sim.diverge) instead
    of dumping two traces."""
    if got_trace == ref_trace:
        return
    assert_sources_identical(ref_trace, got_trace,
                             "interpreter", "compiled")
    raise AssertionError(
        f"{context}: traces differ outside the dynamic columns "
        f"(program or instruction count)"
    )


def test_both_backends_are_registered():
    assert "interpreter" in backend_names()
    assert "compiled" in backend_names()


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_cipher_suite_equivalence(cipher):
    for features in FEATURE_LEVELS:
        reference = _fresh(cipher, features)
        ref = _run_batch(reference, "interpreter")

        compiled = _fresh(cipher, features)
        got = _run_batch(compiled, "compiled")

        context = f"{cipher} [{features.label}]"
        assert got.instructions == ref.instructions, context
        _assert_traces_identical(ref.trace, got.trace, context)
        assert _state(compiled) == _state(reference), context


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_cipher_suite_chunk_boundaries(cipher):
    """Chunked compiled output has the same contents AND boundaries."""
    reference = _fresh(cipher, Features.OPT)
    ref = _run_batch(reference, "interpreter")

    for chunk_size in CHUNK_SIZES:
        machine = _fresh(cipher, Features.OPT)
        chunks = list(machine.execute(backend="compiled",
                                      chunk_size=chunk_size))
        # Every chunk is exactly chunk_size entries except the last, which
        # is non-empty: boundaries are part of the equivalence contract.
        assert all(len(c) == chunk_size for c in chunks[:-1]), chunk_size
        assert 0 < len(chunks[-1]) <= chunk_size
        seq = [s for c in chunks for s in c.seq]
        addrs = [a for c in chunks for a in c.addrs]
        assert seq == list(ref.trace.seq), chunk_size
        assert addrs == list(ref.trace.addrs), chunk_size
        assert _state(machine) == _state(reference), chunk_size


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_cipher_suite_values_mode(cipher):
    """record_values parity, batch and at one odd chunk size."""
    reference = _fresh(cipher, Features.OPT)
    ref = _run_batch(reference, "interpreter", record_values=True)
    assert ref.trace.values is not None

    machine = _fresh(cipher, Features.OPT)
    got = _run_batch(machine, "compiled", record_values=True)
    _assert_traces_identical(ref.trace, got.trace, cipher)  # incl. values
    assert _state(machine) == _state(reference)

    chunked = _fresh(cipher, Features.OPT)
    values = [
        v
        for chunk in chunked.execute(backend="compiled", chunk_size=7,
                                     record_values=True)
        for v in chunk.values
    ]
    assert values == list(ref.trace.values)


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_cipher_suite_timing_stats_match(cipher):
    """Equal traces must mean equal SimStats -- checked end to end."""
    ref = _run_batch(_fresh(cipher, Features.OPT), "interpreter")
    got = _run_batch(_fresh(cipher, Features.OPT), "compiled")
    assert simulate(got.trace, FOURW) == simulate(ref.trace, FOURW)


def test_traceless_counters_match():
    """record_trace=False is the compiled backend's fast path; the final
    state and instruction counters still have to agree exactly."""
    for cipher in KERNEL_NAMES:
        reference = _fresh(cipher, Features.OPT)
        ref = _run_batch(reference, "interpreter", record_trace=False)
        machine = _fresh(cipher, Features.OPT)
        got = _run_batch(machine, "compiled", record_trace=False)
        assert ref.trace is None and got.trace is None
        assert got.instructions == ref.instructions, cipher
        assert _state(machine) == _state(reference), cipher


def test_equivalence_failure_names_the_exact_instruction():
    """Golden: a bit-identity failure message carries the first differing
    trace position and the static instruction's disassembly, so a broken
    backend is localized without re-running anything."""
    import copy

    ref = make_kernel("RC4").encrypt(SESSION).trace
    perturbed = copy.copy(ref)
    perturbed.addrs = ref.addrs[:]
    position = len(ref) // 2
    perturbed.addrs[position] ^= 0x40
    with pytest.raises(AssertionError) as failure:
        _assert_traces_identical(ref, perturbed, "RC4 [opt]")
    message = str(failure.value)
    assert f"first divergence at trace position {position}" in message
    assert "column 'addrs'" in message
    assert ref.program.instructions[ref.seq[position]].render() in message


# -- property-based cross-backend fuzzing -----------------------------------

#: Every operate-format opcode, by builder method name (``and`` is
#: ``and_``), plus a builder idiom; each is drawn in register and literal
#: form (ROLX/RORX take only a literal amount).
_OPS = tuple(
    "and_" if spec.name == "and" else spec.name
    for spec in SPECS.values() if spec.fmt == "op"
) + ("rotl32ish",)
_LITERAL_ONLY = ("rolxl", "rorxl")


@st.composite
def random_programs(draw):
    """A random terminating loop (same shape as the timing properties)."""
    kb = KernelBuilder(Features.OPT)
    regs = kb.regs("a", "b", "c", "d")
    counter = kb.reg("count")
    for reg in regs:
        kb.ldiq(reg, draw(st.integers(0, 0xFFFFFFFF)))
    iterations = draw(st.integers(1, 12))
    kb.ldiq(counter, iterations)
    body_length = draw(st.integers(1, 12))
    kb.label("loop")
    for _ in range(body_length):
        op = draw(st.sampled_from(_OPS))
        dst = draw(st.sampled_from(regs))
        src = draw(st.sampled_from(regs))
        if op == "rotl32ish":
            kb.rotl32(dst, src, draw(st.integers(0, 31)))
        elif op in _LITERAL_ONLY:
            getattr(kb, op)(dst, src, draw(st.integers(0, 31)))
        elif draw(st.booleans()):
            getattr(kb, op)(dst, src, Imm(draw(st.integers(0, 255))))
        else:
            getattr(kb, op)(dst, src, draw(st.sampled_from(regs)))
    if draw(st.booleans()):
        kb.stq(regs[0], kb.zero, 0x800)
        kb.ldq(regs[1], kb.zero, 0x800)
    kb.subq(counter, counter, Imm(1))
    kb.bne(counter, "loop")
    kb.halt()
    return kb.build()


@given(random_programs(), st.sampled_from((1, 7, UNBOUNDED_CHUNK)))
@settings(max_examples=30, deadline=None)
def test_random_programs_cross_backend(program, chunk_size):
    reference = Machine(program, Memory(1 << 13))
    ref = _run_batch(reference, "interpreter", record_values=True)

    machine = Machine(program, Memory(1 << 13))
    got = _run_batch(machine, "compiled", record_values=True)
    _assert_traces_identical(ref.trace, got.trace, "random program")
    assert _state(machine) == _state(reference)

    chunked = Machine(program, Memory(1 << 13))
    chunks = list(chunked.execute(backend="compiled", chunk_size=chunk_size,
                                  record_values=True))
    assert all(len(c) == chunk_size for c in chunks[:-1])
    assert [s for c in chunks for s in c.seq] == list(ref.trace.seq)
    assert [v for c in chunks for v in c.values] == list(ref.trace.values)
    assert _state(chunked) == _state(reference)
