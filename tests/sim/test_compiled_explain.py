"""Compiled-backend introspection: codegen counters, reports, metrics,
and the generated lines tracebacks show."""

import linecache
import traceback

import pytest

from repro.isa import Features, Imm, KernelBuilder
from repro.kernels import make_kernel
from repro.obs import (
    EventBus,
    MetricsRegistry,
    MetricsView,
    RingBufferSink,
    set_active_bus,
)
from repro.sim import Machine, Memory, SimulationError
from repro.sim.backends.compiled import CODE, COUNTER_KEYS, generated_source


@pytest.fixture(autouse=True)
def fresh_cache():
    CODE.clear()
    yield
    CODE.clear()


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


def run_compiled(**kwargs):
    Machine(small_program(), Memory(1 << 12)).execute(
        backend="compiled", **kwargs)


def test_compile_produces_one_report_per_specialization():
    assert CODE.reports() == []
    run_compiled(record_trace=False)
    reports = CODE.reports()
    assert len(reports) == 1
    report = reports[0]
    assert report.instructions == 8
    assert report.blocks >= 2
    assert report.source_lines > 0
    assert report.seconds > 0
    assert report.mode == "--"
    assert set(report.counters) == set(COUNTER_KEYS)
    run_compiled()                      # record_trace: new specialization
    assert len(CODE.reports()) == 2
    assert {report.mode for report in CODE.reports()} == {"--", "t-"}


def test_counters_see_elided_checks_in_small_program():
    run_compiled(record_trace=False)
    counters = CODE.reports()[0].counters
    # LDQ/STQ at constant address 0x100 in 4 KiB memory: both the bounds
    # and the alignment check are provably unnecessary.
    assert counters["bounds_checks_elided"] == 2
    assert counters["align_checks_elided"] == 2


def test_rc4_kernel_counts_sbox_folds():
    kernel = make_kernel("RC4")
    program, memory, _layout = kernel.prepare(bytes(64), None)
    Machine(program, memory).execute(backend="compiled", record_trace=False)
    counters = CODE.reports()[0].counters
    assert counters["sbox_index_folds"] > 0
    assert counters["masks_elided"] > 0


def test_source_cache_hits_accumulate_on_reports():
    run_compiled(record_trace=False)
    assert CODE.reports()[0].hits == 0
    run_compiled(record_trace=False)
    run_compiled(record_trace=False)
    assert CODE.reports()[0].hits == 2


def test_explain_table_lists_programs():
    run_compiled(record_trace=False)
    table = CODE.explain()
    assert "compiled backend: 1 function(s)" in table
    assert CODE.reports()[0].digest[:8] in table
    assert "bounds checks elided" in table


def test_explain_table_empty_without_compiles():
    assert "compiled backend: nothing generated" in CODE.explain()


def test_record_compile_metrics_folds_counters():
    registry, bus = MetricsRegistry(), EventBus()
    bus.subscribe(MetricsView(registry))
    previous = set_active_bus(bus)
    try:
        run_compiled(record_trace=False)
        run_compiled(record_trace=False)    # cache hit
    finally:
        set_active_bus(previous)
    # Every counter appears, zeros too, as the snapshot always listed them.
    assert {f"compile.{key}" for key in COUNTER_KEYS} <= {
        metric["name"] for metric in registry.snapshot()["metrics"]}
    assert registry.counter("compile.programs").value == 1
    assert registry.counter("compile.source_cache_hits").value == 1
    assert registry.counter("compile.bounds_checks_elided").value >= 2
    assert registry.gauge("compile.wall_seconds").value > 0


def test_compile_and_cache_hit_events_publish_to_active_bus():
    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)
    previous = set_active_bus(bus)
    try:
        run_compiled(record_trace=False)
        run_compiled(record_trace=False)
    finally:
        set_active_bus(previous)
    kinds = [(event["source"], event["type"]) for event in sink.events]
    assert ("backend", "compile") in kinds
    assert ("backend", "cache-hit") in kinds
    compile_event = next(event for event in sink.events
                         if event["type"] == "compile")
    assert compile_event["data"]["instructions"] == 8
    assert "bounds_checks_elided" in compile_event["data"]


def test_cache_clear_drops_reports():
    run_compiled(record_trace=False)
    assert CODE.reports()
    CODE.clear()
    assert CODE.reports() == []


def test_compiled_code_keeps_no_source_yet_tracebacks_show_its_lines():
    """A compiled function's ``linecache`` entry builds no lines until one
    is read, then reads as ``generated_source(machine)`` (up to the
    function's name), so a runaway loop stopped by ``max_instructions``
    names its ``<repro-compiled:...>`` file and shows the line."""
    program = small_program()
    machine = Machine(program, Memory(1 << 12))
    machine.execute(backend="compiled")
    filename = f"<repro-compiled:{program.digest()[:8]}:tf:{1 << 12}>"
    assert not isinstance(linecache.cache[filename][2], list)
    with pytest.raises(SimulationError, match="exceeded 4 instructions") \
            as info:
        Machine(program, Memory(1 << 12)).execute(backend="compiled",
                                                  max_instructions=4)
    (code, lineno), = [
        (frame.f_code, lineno) for frame, lineno
        in traceback.walk_tb(info.value.__traceback__)
        if frame.f_code.co_filename == filename]
    source = generated_source(machine).replace(
        "def _compiled_run(", f"def {code.co_name}(", 1)
    assert "".join(linecache.getlines(filename)) == source
    line = source.splitlines()[lineno - 1].strip()
    assert line == "raise SimulationError("
    formatted = "".join(traceback.format_exception(info.value))
    assert f'File "{filename}", line {lineno}' in formatted
    assert f"\n    {line}\n" in formatted
