"""Tests for the stdlib sampling profiler and its telemetry folding."""

import threading

import pytest

from repro.ciphers.rc4 import RC4
from repro.obs import (
    EventBus,
    MetricsRegistry,
    MetricsView,
    SamplingProfiler,
    Tracer,
    validate_metrics,
    validate_trace_events,
)
from repro.obs.profiler import DEFAULT_HZ, classify_stack


def busy_cipher_work(seconds: float = 0.25) -> None:
    """Burn host CPU inside repro/ciphers/ code until ``seconds`` pass."""
    import time

    cipher = RC4(bytes(range(16)))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cipher.keystream(4096)


def profiled_run(hz: int, seconds: float = 0.25) -> SamplingProfiler:
    profiler = SamplingProfiler(hz=hz)
    with profiler:
        busy_cipher_work(seconds)
    return profiler


# -- stack classification --------------------------------------------------

def test_classify_stack_first_match_innermost_out():
    stack = [
        "/x/src/repro/sim/timing.py",       # innermost frame wins ...
        "/x/src/repro/runner/engine.py",    # ... over outer frames
    ]
    assert classify_stack(stack) == "timing"
    assert classify_stack(reversed(stack)) == "runner"


def test_classify_stack_cache_io_beats_runner():
    # cache_io is listed before the broader repro/runner/ fragment.
    assert classify_stack(["/x/src/repro/runner/cache.py"]) == "cache_io"
    assert classify_stack(["/x/src/repro/runner/engine.py"]) == "runner"


def test_classify_stack_compile_bucket():
    # Codegen time in the compiled backend is its own bucket ...
    assert classify_stack(
        ["/x/src/repro/sim/backends/compiled.py"]
    ) == "compile"
    # ... but *running* generated code (synthetic filename) and the
    # extracted interpreter are functional execution.
    assert classify_stack(
        ["<repro-compiled:ab12cd34:tf:65536>",
         "/x/src/repro/sim/backends/compiled.py"]
    ) == "functional"
    assert classify_stack(
        ["/x/src/repro/sim/backends/interpreter.py"]
    ) == "functional"


def test_classify_stack_codegen_through_shared_analyses_is_compile():
    # Codegen spends most of its time in the width fixpoint and the
    # opcode emitters; those shared frames defer to the backend calling.
    assert classify_stack([
        "/x/src/repro/isa/analysis/lattices.py",
        "/x/src/repro/isa/analysis/solver.py",
        "/x/src/repro/sim/backends/compiled.py",
        "/x/src/repro/runner/engine.py",
    ]) == "compile"
    assert classify_stack([
        "/x/src/repro/isa/semantics.py",
        "/x/src/repro/sim/backends/compiled.py",
    ]) == "compile"


def test_classify_stack_generated_interpreter_is_functional():
    # A streamed run's generated loop is resumed by the runner's feed loop.
    assert classify_stack([
        "<repro-interpreter>",
        "/x/src/repro/runner/engine.py",
    ]) == "functional"


def test_classify_stack_lint_through_shared_analyses_is_not_compile():
    stack = [
        "/x/src/repro/isa/analysis/lattices.py",
        "/x/src/repro/isa/verify/checkers.py",
        "/x/src/repro/tools/lint.py",
    ]
    assert classify_stack(stack) == "functional"
    # A stack of nothing but shared frames keeps their own subsystem.
    assert classify_stack(stack[:1]) == "functional"


def test_classify_stack_other_and_windows_paths():
    assert classify_stack(["/usr/lib/python3.11/json/decoder.py"]) == "other"
    assert classify_stack([r"C:\x\src\repro\ciphers\rc6.py"]) == "cipher"
    assert classify_stack([]) == "other"


def test_profiler_rejects_nonpositive_hz():
    with pytest.raises(ValueError):
        SamplingProfiler(hz=0)


# -- live sampling ---------------------------------------------------------

def test_samples_attribute_cipher_workload():
    profiler = profiled_run(hz=400)
    assert profiler.samples > 0
    assert profiler.subsystem_samples.most_common(1)[0][0] == "cipher"
    # Derived views agree with the raw account.
    assert sum(profiler.subsystem_samples.values()) == profiler.samples
    assert sum(profiler.stack_samples.values()) == profiler.samples
    assert len(profiler.timeline) == profiler.samples
    assert profiler.estimated_seconds("cipher") > 0


def test_profiler_samples_only_the_starting_thread():
    profiler = SamplingProfiler(hz=400)
    stop = threading.Event()
    noise = threading.Thread(target=stop.wait, daemon=True)
    noise.start()
    with profiler:
        busy_cipher_work(0.15)
    stop.set()
    noise.join()
    assert profiler.samples > 0
    # Every thread ``threading`` starts, the idle noise thread included,
    # roots its stack at ``_bootstrap``; the starting thread does not.
    # (Classifying by subsystem cannot tell them apart: a sample landing
    # in this file's own busy loop is "other" too.)
    assert threading.current_thread() is threading.main_thread()
    assert not [stack for stack in profiler.stack_samples
                if stack[0] == "threading:_bootstrap"]


def test_collapsed_stack_format():
    profiler = profiled_run(hz=400, seconds=0.15)
    text = profiler.collapsed()
    assert text.endswith("\n")
    for line in text.splitlines():
        frames, count = line.rsplit(" ", 1)
        assert int(count) > 0
        assert "module:" not in frames  # labels are module:function
        assert all(":" in frame for frame in frames.split(";"))
    # Outermost frame first: the test runner, not the cipher.
    hottest = max(profiler.stack_samples.items(), key=lambda kv: kv[1])[0]
    assert "rc4:" in hottest[-1]


def test_subsystem_and_top_tables_render():
    profiler = profiled_run(hz=400, seconds=0.15)
    table = profiler.subsystem_table()
    assert "samples @ 400 Hz" in table
    assert "cipher" in table
    top = profiler.top_table(3)
    assert "top 3 functions" in top
    assert profiler.top_functions(3)[0][1] > 0


def test_empty_profile_renders_without_samples():
    profiler = SamplingProfiler(hz=DEFAULT_HZ)
    assert "no samples" in profiler.subsystem_table()
    assert profiler.collapsed() == ""
    assert profiler.overhead_fraction() == 0.0
    assert profiler.trace_events() == []
    profiler.stop()  # stop before start is a no-op


# -- folding into metrics and traces ---------------------------------------

def test_record_metrics_snapshot_is_valid():
    profiler = profiled_run(hz=400, seconds=0.15)
    registry, bus = MetricsRegistry(), EventBus()
    bus.subscribe(MetricsView(registry))
    bus.publish("profiler", "snapshot", profiler.snapshot())
    document = registry.snapshot(generated_by="test")
    assert validate_metrics(document) == []
    assert registry.counter(
        "profiler.samples", {"subsystem": "cipher"}
    ).value > 0
    assert registry.gauge("profiler.hz").value == 400
    assert registry.gauge("profiler.wall_seconds").value \
        == profiler.wall_seconds


def test_trace_events_are_cumulative_and_valid():
    profiler = profiled_run(hz=400, seconds=0.15)
    events = profiler.trace_events(pid=7)
    assert validate_trace_events(events) == []
    assert len(events) == profiler.samples
    assert all(event["ph"] == "C" and event["pid"] == 7 for event in events)
    final = events[-1]["args"]
    assert sum(final.values()) == profiler.samples
    # Timestamps are monotonic on the bound clock.
    stamps = [event["ts"] for event in events]
    assert stamps == sorted(stamps)


def test_trace_events_share_a_tracer_clock():
    tracer = Tracer()
    profiler = SamplingProfiler(hz=400, now_us=tracer.now_us)
    with profiler:
        busy_cipher_work(0.1)
    tracer.add_events(profiler.trace_events(pid=tracer.pid))
    assert validate_trace_events(tracer.to_chrome()) == []


# -- the acceptance bar ----------------------------------------------------

def test_overhead_under_five_percent_at_default_hz():
    """Acceptance: sampling costs < 5% of profiled wall time."""
    profiler = profiled_run(hz=DEFAULT_HZ, seconds=0.5)
    assert profiler.samples > 0
    assert profiler.wall_seconds >= 0.5
    assert profiler.overhead_fraction() < 0.05
