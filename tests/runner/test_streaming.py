"""The runner's one feed loop: a live kernel stream and a materialized
trace give identical results; streams stay chunk-bounded and write
their trace blob through."""

import pytest

from repro.isa import assemble
from repro.runner import (
    ExperimentOptions,
    ResultCache,
    Runner,
    experiment_grid,
)
from repro.sim import DATAFLOW, FOURW, Machine, Memory


def make_runner(tmp_path, subdir="cache", **kwargs):
    return Runner(cache=ResultCache(tmp_path / subdir), **kwargs)


def grid(ciphers=("RC6",), configs=(FOURW, DATAFLOW), **options):
    options.setdefault("session_bytes", 128)
    return experiment_grid(ciphers, configs, **options)


def _result_key(result):
    return (result.cipher, result.config_name, result.instructions,
            result.stats)


def run_materialized(runner, experiments):
    """Run ``experiments`` over traces materialized up front."""
    for experiment in experiments:
        runner.functional(experiment.options)
    return runner.run(experiments)


def test_stream_and_batch_results_are_identical(tmp_path):
    streamed = make_runner(tmp_path, "a").run(grid())
    batch = run_materialized(make_runner(tmp_path, "b"), grid())
    assert [_result_key(r) for r in streamed] == \
        [_result_key(r) for r in batch]


def test_stream_results_identical_across_chunk_sizes(tmp_path):
    baseline = run_materialized(make_runner(tmp_path, "a"), grid())
    for index, chunk_size in enumerate((1, 7, 100000)):
        runner = make_runner(tmp_path, f"c{index}", chunk_size=chunk_size)
        assert [_result_key(r) for r in runner.run(grid())] == \
            [_result_key(r) for r in baseline]


def test_decrypt_streams_identically(tmp_path):
    experiments = grid(kind="decrypt")
    streamed = make_runner(tmp_path, "a").run(experiments)
    batch = run_materialized(make_runner(tmp_path, "b"), experiments)
    assert [_result_key(r) for r in streamed] == \
        [_result_key(r) for r in batch]


def test_streaming_still_dedups_functional_work(tmp_path):
    runner = make_runner(tmp_path)
    runner.run(grid(configs=(FOURW, DATAFLOW)))
    assert runner.stats.functional_runs == 1
    assert runner.stats.timing_runs == 2


def test_streaming_writes_trace_blob_for_later_functional(tmp_path):
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    runner.run(grid())
    assert runner.stats.functional_runs == 1
    # A later direct functional() call deserializes the blob written
    # during streaming instead of re-executing the kernel.
    run = runner.functional(options)
    assert runner.stats.functional_runs == 1
    assert run.trace is not None
    assert run.instructions == run.trace.instructions_executed


def test_streaming_without_cache_is_chunk_bounded(tmp_path):
    session_bytes = 512
    chunk_size = 64
    runner = Runner(cache=ResultCache.disabled(), chunk_size=chunk_size)
    runner.run(grid(configs=(FOURW,), session_bytes=session_bytes))
    assert 0 < runner.stats.peak_trace_bytes <= chunk_size * 16

    batch = Runner(cache=ResultCache.disabled())
    run_materialized(batch, grid(configs=(FOURW,),
                                 session_bytes=session_bytes))
    assert batch.stats.peak_trace_bytes > runner.stats.peak_trace_bytes


def test_record_values_falls_back_to_batch(tmp_path):
    """A ``record_values`` group streams too; its blob write-through keeps
    the values, so a later functional() call reads them back."""
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC4", session_bytes=64,
                                record_values=True)
    runner.run([*experiment_grid(("RC4",), (FOURW,), session_bytes=64,
                                 record_values=True)])
    run = runner.functional(options)
    assert run.trace is not None
    assert run.trace.values is not None
    assert runner.stats.functional_runs == 1


def test_parallel_jobs_match_serial_streaming(tmp_path):
    experiments = grid(ciphers=("RC4", "RC6"), configs=(FOURW, DATAFLOW))
    serial = make_runner(tmp_path, "a").run(experiments)
    parallel = make_runner(tmp_path, "b", jobs=2).run(experiments)
    assert [_result_key(r) for r in parallel] == \
        [_result_key(r) for r in serial]


LOOP = """
    ldiq r1, 40
loop:
    addq r2, r2, #1
    mull r3, r2, r2
    subq r1, r1, #1
    bne r1, loop
    halt
"""


def test_simulate_stream_matches_simulate_trace(tmp_path):
    program = assemble(LOOP)
    trace = Machine(program, Memory(1 << 12)).execute().trace
    runner = Runner(cache=ResultCache.disabled())
    expected = [runner.simulate(trace, [config])[0]
                for config in (FOURW, DATAFLOW)]
    source = Machine(program, Memory(1 << 12)).execute(stream=True, chunk_size=16)
    streamed = runner.simulate(source, [FOURW, DATAFLOW])
    assert streamed == expected


def test_simulate_stream_full_cache_hit_never_runs_machine(tmp_path):
    program = assemble(LOOP)
    runner = make_runner(tmp_path)
    key = ["stream-test", program.digest()]
    cold = Machine(program, Memory(1 << 12))
    first = runner.simulate(
        cold.execute(stream=True), [FOURW], key_parts=key
    )
    assert cold.halted

    warm = Machine(program, Memory(1 << 12))
    second = runner.simulate(
        warm.execute(stream=True), [FOURW], key_parts=key
    )
    assert second == first
    assert not warm.halted  # served from cache; the machine never ran


@pytest.mark.parametrize("path", ("group", "simulate_stream"))
def test_pipeline_build_counts_in_timing_phase(monkeypatch, path):
    """Building pipelines is timing work: a slow ``make_pipeline`` shows
    up in ``wall_time_timing`` for a group and for a simulated stream."""
    import time

    import repro.runner.engine as engine_mod

    delay = 0.05
    make_pipeline = engine_mod.make_pipeline

    def slow_make_pipeline(*args, **kwargs):
        time.sleep(delay)
        return make_pipeline(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "make_pipeline", slow_make_pipeline)
    runner = Runner(cache=ResultCache.disabled())
    if path == "group":
        runner.run(grid(ciphers=("RC4",), configs=(FOURW, DATAFLOW),
                        session_bytes=64))
    else:
        program = assemble(LOOP)
        source = Machine(program, Memory(1 << 12)).execute(stream=True)
        runner.simulate(source, [FOURW, DATAFLOW])
    assert runner.stats.wall_time_timing >= 2 * delay
