"""Runner backend threading: same cache, same keys, same results.

Backends are bit-identical, so the runner must treat their results as
interchangeable: the on-disk cache records a run *content*, never which
backend produced it.  A compiled run primes the cache for an interpreter
run and vice versa, and fingerprints/experiment keys are byte-equal
across every backend selection.
"""

from repro.runner import ExperimentOptions, ResultCache, Runner, experiment_grid
from repro.sim import DATAFLOW, FOURW


def make_runner(tmp_path, subdir="cache", **kwargs):
    return Runner(cache=ResultCache(tmp_path / subdir), **kwargs)


def grid(ciphers=("RC6",), configs=(FOURW, DATAFLOW), **options):
    options.setdefault("session_bytes", 128)
    return experiment_grid(ciphers, configs, **options)


def _result_key(result):
    return (result.cipher, result.config_name, result.instructions,
            result.stats)


def test_backend_results_are_identical(tmp_path):
    compiled = make_runner(tmp_path, "a", backend="compiled").run(grid())
    interp = make_runner(tmp_path, "b", backend="interpreter").run(grid())
    default = make_runner(tmp_path, "c").run(grid())
    assert [_result_key(r) for r in compiled] == \
        [_result_key(r) for r in interp] == \
        [_result_key(r) for r in default]


def test_compiled_run_primes_the_cache_for_interpreter(tmp_path):
    writer = make_runner(tmp_path, backend="compiled")
    first = writer.run(grid())
    assert writer.stats.cache_misses == len(first)

    reader = make_runner(tmp_path, backend="interpreter")
    second = reader.run(grid())
    assert reader.stats.cache_hits == len(second)
    assert reader.stats.functional_runs == 0
    assert [_result_key(r) for r in first] == [_result_key(r) for r in second]


def test_interpreter_run_primes_the_cache_for_compiled(tmp_path):
    make_runner(tmp_path, backend="interpreter").run(grid())
    reader = make_runner(tmp_path, backend="compiled")
    results = reader.run(grid())
    assert reader.stats.cache_hits == len(results)
    assert reader.stats.functional_runs == 0


def test_fingerprint_is_backend_independent(tmp_path):
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    digests = {make_runner(tmp_path, backend=backend).fingerprint(options)
               for backend in (None, "interpreter", "compiled")}
    assert len(digests) == 1


def test_experiment_key_is_backend_independent(tmp_path):
    keys = set()
    for backend in (None, "interpreter", "compiled"):
        runner = make_runner(tmp_path, backend=backend)
        keys.update(runner.experiment_key(e) for e in grid())
    # Two configs in the grid -> exactly two keys across all backends.
    assert len(keys) == 2


def test_streamed_backend_runs_match_batch(tmp_path):
    streamed = make_runner(tmp_path, "a", backend="compiled").run(grid())
    runner = make_runner(tmp_path, "b", backend="compiled")
    for experiment in grid():
        runner.functional(experiment.options)
    batch = runner.run(grid())
    assert [_result_key(r) for r in streamed] == \
        [_result_key(r) for r in batch]


def test_setup_experiments_run_on_the_compiled_backend(tmp_path):
    runner = make_runner(tmp_path, backend="compiled")
    results = runner.run(grid(kind="setup", configs=(FOURW,)))
    reference = make_runner(tmp_path, "ref", backend="interpreter").run(
        grid(kind="setup", configs=(FOURW,))
    )
    assert [_result_key(r) for r in results] == \
        [_result_key(r) for r in reference]
