"""The unified ``Machine.execute()`` entry point and its contracts.

One method covers the three delivery shapes the old trio provided
(batch ``run``, chunked ``iter_trace``, pull-driven ``stream``); the old
names are gone -- their deprecation shims shipped for the promised two
releases and were then removed.  These tests pin the return-shape
dispatch, the argument validation, the one-shot reuse guard, the removal
of the legacy names, and the compiled backend's code-object cache.
"""

import pytest

from repro.isa import Features, Imm, KernelBuilder
from repro.sim import Machine, Memory
from repro.sim.backends import UNBOUNDED_CHUNK, get_backend
from repro.sim.backends import compiled as compiled_mod
from repro.sim.backends.compiled import CompiledBackend
from repro.sim.machine import RunResult, SimulationError, StreamingTrace


def small_program(iterations: int = 5):
    kb = KernelBuilder(Features.OPT)
    acc, count = kb.regs("acc", "count")
    kb.ldiq(acc, 1)
    kb.ldiq(count, iterations)
    kb.label("loop")
    kb.addq(acc, acc, acc)
    kb.stq(acc, kb.zero, 0x100)
    kb.ldq(acc, kb.zero, 0x100)
    kb.subq(count, count, Imm(1))
    kb.bne(count, "loop")
    kb.halt()
    return kb.build()


def machine():
    return Machine(small_program(), Memory(1 << 12))


# -- return shapes ----------------------------------------------------------

def test_batch_shape_returns_run_result():
    result = machine().execute()
    assert isinstance(result, RunResult)
    assert result.trace is not None
    assert result.instructions == len(result.trace)


def test_traceless_batch_has_no_trace():
    result = machine().execute(record_trace=False)
    assert isinstance(result, RunResult)
    assert result.trace is None
    assert result.instructions > 0


def test_chunked_shape_returns_chunk_iterator():
    chunks = list(machine().execute(chunk_size=3))
    assert all(len(chunk) == 3 for chunk in chunks[:-1])
    reference = machine().execute()
    assert sum(len(chunk) for chunk in chunks) == reference.instructions


def test_stream_shape_returns_streaming_trace():
    source = machine().execute(stream=True, chunk_size=4)
    assert isinstance(source, StreamingTrace)
    # The claim is deferred: the machine runs only as chunks are pulled.
    assert source.machine.instructions_executed == 0
    total = sum(len(chunk) for chunk in source.chunks())
    assert total == source.machine.instructions_executed


# -- argument validation ----------------------------------------------------

def test_unknown_backend_names_the_registered_ones():
    with pytest.raises(ValueError, match="interpreter.*compiled|compiled.*interpreter"):
        machine().execute(backend="turbo")


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError, match="chunk_size"):
        machine().execute(chunk_size=0)


def test_chunked_requires_trace_recording():
    with pytest.raises(ValueError, match="record_trace"):
        machine().execute(chunk_size=8, record_trace=False)


def test_stream_requires_trace_recording():
    with pytest.raises(ValueError, match="record_trace"):
        machine().execute(stream=True, record_trace=False)


def test_machine_is_single_shot():
    m = machine()
    m.execute()
    with pytest.raises(SimulationError, match="already executed"):
        m.execute()


def test_backend_instance_passthrough():
    reference = machine().execute()
    result = machine().execute(backend=CompiledBackend())
    assert isinstance(result, RunResult)
    assert result.trace == reference.trace


def test_get_backend_resolves_default_and_instances():
    default = get_backend(None)
    assert default.name == "interpreter"
    instance = CompiledBackend()
    assert get_backend(instance) is instance


# -- legacy entry points are gone -------------------------------------------

@pytest.mark.parametrize("name", ["run", "iter_trace", "stream"])
def test_legacy_entry_points_removed(name):
    """The PR-6 deprecation shims shipped their two-release window and
    are deleted: the old names must fail loudly, not warn."""
    m = machine()
    with pytest.raises(AttributeError, match=name):
        getattr(m, name)
    result = m.execute()  # the machine is untouched and still usable
    assert isinstance(result, RunResult)


# -- compiled code cache ----------------------------------------------------

def test_compiled_code_cache_reuses_specializations():
    compiled_mod.CODE.clear()
    assert len(compiled_mod.CODE) == 0
    machine().execute(backend="compiled")
    assert len(compiled_mod.CODE) == 1
    # Same program, same flags, same memory size: cache hit, no new entry.
    machine().execute(backend="compiled")
    assert len(compiled_mod.CODE) == 1
    # A different recording mode is a different specialization.
    machine().execute(backend="compiled", record_values=True)
    assert len(compiled_mod.CODE) == 2
    # A different memory size changes which bounds checks can be elided.
    Machine(small_program(), Memory(1 << 13)).execute(backend="compiled")
    assert len(compiled_mod.CODE) == 3


def test_unbounded_chunk_yields_single_chunk():
    chunks = list(machine().execute(chunk_size=UNBOUNDED_CHUNK))
    assert len(chunks) == 1
