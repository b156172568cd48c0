"""The unified experiment runner: dedup, caching, parallel fan-out."""

import dataclasses
import itertools
import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import speedups
from repro.ciphers.suite import SUITE_BY_NAME
from repro.isa import Features
from repro.isa import opcodes as op
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.kernels import KERNEL_NAMES, KERNELS
from repro.runner import (
    Experiment,
    ExperimentOptions,
    ResultCache,
    Runner,
    experiment_grid,
)
from repro.sim import BASE4W, DATAFLOW, FOURW

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_runner(tmp_path, **kwargs):
    return Runner(cache=ResultCache(tmp_path / "cache"), **kwargs)


def grid(ciphers=("RC6",), configs=(FOURW, DATAFLOW), session_bytes=128):
    return experiment_grid(ciphers, configs, session_bytes=session_bytes)


def test_functional_dedup_across_configs(tmp_path):
    runner = make_runner(tmp_path)
    results = runner.run(grid(configs=(BASE4W, FOURW, DATAFLOW)))
    assert len(results) == 3
    assert runner.stats.functional_runs == 1
    assert runner.stats.timing_runs == 3
    # One trace, three machines: same instruction count everywhere.
    assert len({r.instructions for r in results}) == 1
    assert results[0].stats.cycles >= results[2].stats.cycles  # DF floor


def test_results_keep_input_order(tmp_path):
    runner = make_runner(tmp_path)
    experiments = grid(ciphers=("RC4", "RC6"), configs=(FOURW, DATAFLOW))
    results = runner.run(experiments)
    assert [(r.cipher, r.config_name) for r in results] == [
        (e.options.cipher, e.config.name) for e in experiments
    ]


def test_cache_round_trip_between_runners(tmp_path):
    cold = make_runner(tmp_path)
    first = cold.run(grid())
    assert all(not r.cached for r in first)

    warm = make_runner(tmp_path)
    second = warm.run(grid())
    assert all(r.cached for r in second)
    assert warm.stats.cache_hits == len(second)
    assert warm.stats.functional_runs == 0
    for a, b in zip(first, second):
        assert a.stats == b.stats
        assert a.instructions == b.instructions


def test_experiment_key_stable_across_processes(tmp_path):
    """Keys must be reproducible in a fresh interpreter (new hash seed),
    or the on-disk cache would never hit across invocations."""
    runner = make_runner(tmp_path)
    experiment = grid()[0]
    local = runner.experiment_key(experiment)
    script = (
        "from repro.runner import Runner, ResultCache, experiment_grid;"
        "from repro.sim import FOURW, DATAFLOW;"
        "r = Runner(cache=ResultCache.disabled());"
        "e = experiment_grid(['RC6'], [FOURW, DATAFLOW],"
        " session_bytes=128)[0];"
        "print(r.experiment_key(e))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random",
             "PATH": "/usr/bin"},
    ).stdout.strip()
    assert out == local


def test_cache_invalidated_when_kernel_program_changes(tmp_path, monkeypatch):
    """Editing a kernel so it emits different code must change the content
    key, even when the dynamic behavior is identical."""
    cold = make_runner(tmp_path)
    baseline = cold.run(grid())[0]

    original = KERNELS["RC6"].build_program

    def patched(self, layout, nblocks):
        tweaked = Program()
        for instruction in original(self, layout, nblocks).instructions:
            tweaked.add(instruction)
        # Unreachable (after the final halt): the trace and all simulated
        # results are identical, only the program bytes differ.
        tweaked.add(Instruction(op.ADDQ, dest=1, src1=1, src2=1))
        return tweaked.finalize()

    monkeypatch.setattr(KERNELS["RC6"], "build_program", patched)
    edited = make_runner(tmp_path)
    result = edited.run(grid())[0]
    assert not result.cached
    assert edited.stats.cache_misses == len(grid())
    assert result.stats.cycles == baseline.stats.cycles


def test_runner_version_participates_in_keys(tmp_path, monkeypatch):
    cold = make_runner(tmp_path)
    cold.run(grid())
    import repro.runner.engine as engine

    monkeypatch.setattr(engine, "RUNNER_VERSION", 999)
    bumped = make_runner(tmp_path)
    assert all(not r.cached for r in bumped.run(grid()))


def test_corrupted_cache_recovers_with_correct_results(tmp_path):
    cold = make_runner(tmp_path)
    baseline = cold.run(grid())
    for path in (tmp_path / "cache").rglob("*.json"):
        path.write_text("NOT JSON")
    recovered_runner = make_runner(tmp_path)
    recovered = recovered_runner.run(grid())
    assert all(not r.cached for r in recovered)
    for a, b in zip(baseline, recovered):
        assert a.stats == b.stats
    # And the rewritten records serve the next runner.
    assert all(r.cached for r in make_runner(tmp_path).run(grid()))


def _truncate(blob):
    whole = blob.read_bytes()
    blob.write_bytes(whole[:len(whole) // 2])


def _drop_addrs(blob):
    record = pickle.loads(blob.read_bytes())
    del record["addrs"]
    blob.write_bytes(pickle.dumps(record))


@pytest.mark.parametrize("corrupt", [_truncate, _drop_addrs],
                         ids=["truncated", "missing-addrs"])
def test_bad_trace_blob_is_rerun_with_correct_results(tmp_path, corrupt):
    experiments = grid()
    expected = Runner(cache=ResultCache.disabled()).run(experiments)
    make_runner(tmp_path).run(experiments)
    # Only the trace blob is left to serve the next run.
    for path in (tmp_path / "cache").rglob("*.json"):
        path.unlink()
    (blob,) = (tmp_path / "cache").rglob("*.bin")
    corrupt(blob)

    runner = make_runner(tmp_path)
    results = runner.run(experiments)
    assert runner.cache.errors == 1
    assert runner.stats.functional_runs == 1
    assert [(r.stats, r.instructions) for r in results] \
        == [(r.stats, r.instructions) for r in expected]
    # The re-execution wrote a whole blob back in its place.
    record = pickle.loads(blob.read_bytes())
    assert record["key"] == blob.stem and "addrs" in record


def _outcomes(results):
    return [(r.cipher, r.config_name, r.instructions, r.stats)
            for r in results]


def test_interrupted_stream_propagates_and_caches_nothing(tmp_path,
                                                         monkeypatch):
    """A pipeline that raises mid-stream leaves no record and no blob, so
    a rerun on the same cache equals an uncached run."""
    from repro.sim.timing import PipelineBase

    experiments = grid()
    expected = Runner(cache=ResultCache.disabled()).run(experiments)
    feeds = itertools.count(1)
    feed = PipelineBase.feed

    def interrupted(self, chunk):
        if next(feeds) == 3:
            raise KeyboardInterrupt
        return feed(self, chunk)

    monkeypatch.setattr(PipelineBase, "feed", interrupted)
    with pytest.raises(KeyboardInterrupt):
        make_runner(tmp_path, chunk_size=64).run(experiments)
    monkeypatch.undo()
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    rerun = make_runner(tmp_path, chunk_size=64)
    assert _outcomes(rerun.run(experiments)) == _outcomes(expected)
    assert rerun.stats.cache_hits == 0


def test_runner_version_skew_serves_no_record_or_blob(tmp_path,
                                                      monkeypatch):
    """Records and trace blobs written under another RUNNER_VERSION are
    never served: the run re-executes and its results are identical."""
    import repro.runner.engine as engine

    experiments = grid()
    expected = Runner(cache=ResultCache.disabled()).run(experiments)
    monkeypatch.setattr(engine, "RUNNER_VERSION", engine.RUNNER_VERSION + 1)
    make_runner(tmp_path).run(experiments)
    monkeypatch.undo()
    assert list((tmp_path / "cache").rglob("*.bin"))

    runner = make_runner(tmp_path)
    results = runner.run(experiments)
    assert runner.cache.hits == 0
    assert runner.stats.cache_hits == 0
    assert runner.stats.functional_runs == 1
    assert not any(result.cached for result in results)
    assert _outcomes(results) == _outcomes(expected)


KILLED_WORKER = """
import json
import os
import sys
import time
import warnings
from collections import Counter

import repro.runner.engine as engine
from repro.obs import EventBus
from repro.runner import ResultCache, Runner, experiment_grid
from repro.sim import DATAFLOW, FOURW

run_group = engine._worker_run_group
DELAY = float(sys.argv[1])


def dying_worker(spec):
    if spec[0].cipher == "RC4":
        time.sleep(DELAY)
        os._exit(1)
    return run_group(spec)


def outcomes(results):
    return [[r.cipher, r.config_name, r.instructions, r.stats.cycles,
             r.stats.stall_slots] for r in results]


if __name__ == "__main__":
    experiments = experiment_grid(("RC4", "RC6", "Blowfish"),
                                  (FOURW, DATAFLOW), session_bytes=64)
    serial = Runner(cache=ResultCache.disabled()).run(experiments)
    engine._worker_run_group = dying_worker
    events = []
    bus = EventBus()
    bus.subscribe(lambda event: events.append(
        {"type": event["type"], **event["data"]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pooled = Runner(cache=ResultCache.disabled(), jobs=2, bus=bus,
                        heartbeat_interval=0).run(experiments)
    (finish,) = [e for e in events if e["type"] == "finish"]
    print(json.dumps({
        "identical": outcomes(pooled) == outcomes(serial)
                     and [r.stats for r in pooled] == [r.stats for r in serial],
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "dispatch": Counter(e["group"] for e in events
                            if e["type"] == "dispatch"),
        "group-done": Counter(e["group"] for e in events
                              if e["type"] == "group-done"),
        "finish": [finish["done"], finish["total"]],
    }))
"""


def run_killed_worker(tmp_path, delay):
    """Run ``KILLED_WORKER`` with the RC4 worker dying after ``delay`` s,
    in a subprocess so a hang fails the test by timeout instead of
    stalling the suite; check the fallback and return the report."""
    script = tmp_path / "killed_worker.py"
    script.write_text(KILLED_WORKER)
    done = subprocess.run(
        [sys.executable, str(script), str(delay)], capture_output=True,
        text=True, timeout=120, env={"PYTHONPATH": SRC, "PATH": "/usr/bin"},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["identical"]
    assert any(warning.startswith("RuntimeWarning")
               and "falling back to serial" in warning
               for warning in report["warnings"]), report["warnings"]
    # Each group is dispatched and done once, at any interleaving.
    groups = {f"{cipher}[orig-rot]/encrypt:64B": 1
              for cipher in ("RC4", "RC6", "Blowfish")}
    assert report["dispatch"] == report["group-done"] == groups
    assert report["finish"] == [3, 3]
    return report


def test_killed_pool_worker_falls_back_to_serial(tmp_path):
    """A pool worker that exits abruptly must not hang ``Runner.run``: the
    broken pool falls back to serial execution with a RuntimeWarning and
    results equal to ``jobs=1``."""
    run_killed_worker(tmp_path, delay=0)


def test_pool_death_keeps_finished_groups(tmp_path):
    """A worker that dies after the other groups finished: the serial
    fallback runs only the dead worker's group, so no group is dispatched
    or completed twice."""
    run_killed_worker(tmp_path, delay=1)


@pytest.mark.parametrize("jobs", [4])
def test_parallel_identical_to_serial_full_suite(tmp_path, jobs):
    """Acceptance: jobs>1 and serial produce identical SimStats for the
    full Table 1 cipher set."""
    experiments = grid(
        ciphers=KERNEL_NAMES, configs=(FOURW, DATAFLOW), session_bytes=128
    )
    serial = Runner(cache=ResultCache.disabled(), jobs=1).run(experiments)
    parallel = Runner(cache=ResultCache.disabled(), jobs=jobs).run(experiments)
    assert len(serial) == len(parallel) == len(experiments)
    for s, p in zip(serial, parallel):
        assert s.stats == p.stats
        assert s.instructions == p.instructions


def test_parallel_falls_back_to_serial_on_pool_failure(tmp_path, monkeypatch):
    import concurrent.futures

    def broken_pool(*args, **kwargs):
        raise OSError("no processes in this sandbox")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        broken_pool)
    runner = make_runner(tmp_path, jobs=4)
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        results = runner.run(grid(ciphers=("RC4", "RC6")))
    assert len(results) == 4
    assert all(r.stats.cycles > 0 for r in results)


def test_setup_and_decrypt_kinds(tmp_path):
    runner = make_runner(tmp_path)
    setup = runner.run_one(Experiment(
        ExperimentOptions(cipher="Blowfish", kind="setup", session_bytes=0),
        BASE4W,
    ))
    assert setup.stats.cycles > 0
    decrypt = runner.run_one(Experiment(
        ExperimentOptions(
            cipher="RC6", kind="decrypt", session_bytes=128,
            features=Features.OPT,
        ),
        FOURW,
    ))
    encrypt = runner.run_one(Experiment(
        ExperimentOptions(
            cipher="RC6", kind="encrypt", session_bytes=128,
            features=Features.OPT,
        ),
        FOURW,
    ))
    assert decrypt.stats.cycles > 0
    assert decrypt.experiment.options.kind == "decrypt"
    assert encrypt.stats.cycles > 0


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        ExperimentOptions(cipher="RC6", kind="frobnicate")


def test_stats_hook_sees_every_result(tmp_path):
    seen = []
    runner = make_runner(tmp_path, stats_hook=seen.append)
    runner.run(grid())
    assert [(r.cipher, r.config_name, r.cached) for r in seen] == [
        ("RC6", "4W", False), ("RC6", "DF", False),
    ]
    warm = make_runner(tmp_path, stats_hook=seen.append)
    warm.run(grid())
    assert [r.cached for r in seen[2:]] == [True, True]


def test_runner_stats_summary_mentions_counts(tmp_path):
    runner = make_runner(tmp_path)
    runner.run(grid())
    text = runner.stats.summary()
    assert "cache hits" in text and "timing runs" in text


def test_cached_value_round_trip(tmp_path):
    runner = make_runner(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    assert runner.cached_value(["probe"], compute) == {"answer": 42}
    assert runner.cached_value(["probe"], compute) == {"answer": 42}
    assert len(calls) == 1
    # A different key computes again.
    runner.cached_value(["probe", 2], compute)
    assert len(calls) == 2


def test_simulate_trace_cached_by_key_parts(tmp_path):
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    run = runner.functional(options)
    first = runner.simulate(
        run.trace, [FOURW], run.warm_ranges, key_parts=["probe-trace"]
    )
    warm_runner = make_runner(tmp_path)
    second = warm_runner.simulate(
        run.trace, [FOURW], run.warm_ranges, key_parts=["probe-trace"]
    )
    assert first == second
    assert warm_runner.stats.timing_runs == 0
    # Without key_parts the simulation always runs live.
    third = warm_runner.simulate(run.trace, [FOURW], run.warm_ranges)
    assert third == first
    assert warm_runner.stats.timing_runs == 1


def test_default_key_matches_suite_pattern(tmp_path):
    """Options with key=None share traces with explicit standard keys."""
    from repro.ciphers.suite import SUITE_BY_NAME

    runner = make_runner(tmp_path)
    implicit = ExperimentOptions(cipher="RC4", session_bytes=128)
    explicit = implicit.with_(
        key=bytes(range(SUITE_BY_NAME["RC4"].key_bytes))
    )
    assert runner.fingerprint(implicit) == runner.fingerprint(explicit)


def test_wall_time_covers_every_phase(tmp_path):
    """wall_time must account for functional + timing + cache work; the
    original implementation only summed timing runs."""
    runner = make_runner(tmp_path)
    runner.run(grid())
    stats = runner.stats
    assert stats.wall_time_functional > 0
    assert stats.wall_time_timing > 0
    assert stats.wall_time_cache > 0
    assert stats.wall_time == pytest.approx(
        sum(stats.phase_breakdown().values())
    )
    text = stats.summary()
    assert "functional" in text and "timing" in text and "cache" in text

    # A warm run does cache work but no simulation.
    warm = make_runner(tmp_path)
    warm.run(grid())
    assert warm.stats.wall_time_cache > 0
    assert warm.stats.wall_time_timing == 0
    assert warm.stats.wall_time_functional == 0


def test_parallel_workers_report_functional_time():
    runner = Runner(cache=ResultCache.disabled(), jobs=4)
    runner.run(grid(ciphers=("RC4", "RC6"), configs=(FOURW,)))
    if runner.stats.functional_runs:  # pool may be unavailable in sandbox
        assert runner.stats.wall_time_functional > 0


def test_simulate_trace_counts_timing_phase(tmp_path):
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    run = runner.functional(options)
    runner.simulate(run.trace, [FOURW], run.warm_ranges)
    assert runner.stats.wall_time_timing > 0


def views_bus():
    """A bus with a metrics view and a trace view attached."""
    from repro.obs import (
        EventBus,
        MetricsRegistry,
        MetricsView,
        Tracer,
        TraceView,
    )

    bus, metrics, tracer = EventBus(), MetricsRegistry(), Tracer()
    bus.subscribe(MetricsView(metrics))
    bus.subscribe(TraceView(tracer))
    return bus, metrics, tracer


def test_runner_publishes_metrics_and_spans(tmp_path):
    from repro.obs import validate_trace_events

    bus, metrics, tracer = views_bus()
    runner = make_runner(tmp_path, bus=bus)
    runner.run(grid())

    assert metrics.counter("runner.functional_runs").value == 1
    assert metrics.counter("runner.cache.misses").value == 2
    assert metrics.counter("sim.runs", {"config": "4W"}).value == 1
    names = {event["name"] for event in tracer.events}
    assert "cache-probe" in names
    assert "functional:RC6" in names
    assert "timing:RC6:4W" in names
    assert validate_trace_events(tracer.to_chrome()) == []

    # Warm reruns touch no simulator and open no timing spans.
    warm_bus, _, warm_tracer = views_bus()
    warm = make_runner(tmp_path, bus=warm_bus)
    warm.run(grid())
    warm_names = {event["name"] for event in warm_tracer.events}
    assert "cache-probe" in warm_names
    assert not any(name.startswith("timing:") for name in warm_names)


def test_cached_records_round_trip_stall_attribution(tmp_path):
    cold = make_runner(tmp_path)
    baseline = cold.run(grid(configs=(FOURW,)))[0].stats
    assert baseline.issue_slots > 0 and baseline.stall_slots

    warm = make_runner(tmp_path)
    cached = warm.run(grid(configs=(FOURW,)))[0].stats
    assert cached.issue_slots == baseline.issue_slots
    assert cached.stall_slots == baseline.stall_slots
    assert cached.wait_cycles == baseline.wait_cycles
    assert cached.hotspots == baseline.hotspots


#: Feature levels whose kernels emit the same program: NOROT and ROT for
#: the ciphers without rotates, and RC6's ROT and OPT decryption.
SHARED_PROGRAMS = {
    ("Blowfish", "encrypt", Features.NOROT, Features.ROT),
    ("Blowfish", "decrypt", Features.NOROT, Features.ROT),
    ("IDEA", "encrypt", Features.NOROT, Features.ROT),
    ("IDEA", "decrypt", Features.NOROT, Features.ROT),
    ("RC4", "encrypt", Features.NOROT, Features.ROT),
    ("RC4", "decrypt", Features.NOROT, Features.ROT),
    ("Rijndael", "encrypt", Features.NOROT, Features.ROT),
    ("Rijndael", "decrypt", Features.NOROT, Features.ROT),
    ("RC6", "decrypt", Features.ROT, Features.OPT),
}


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_fingerprint_names_content_not_feature_label(cipher):
    """The fingerprint leaves out the feature label, which is sound only
    while equal programs run over equal memory images: a kernel that
    wrote feature-dependent tables under identical code would share a
    wrong result."""
    runner = Runner(cache=ResultCache.disabled())
    key_bytes = SUITE_BY_NAME[cipher].key_bytes
    keys = (bytes(range(key_bytes)),
            random.Random(cipher).randbytes(key_bytes))
    shared = set()
    for kind, session_bytes, key in itertools.product(
            ("encrypt", "decrypt"), (128, 512), keys):
        decrypt = kind == "decrypt"
        seen = {}
        for features in Features:
            kernel = KERNELS[cipher](key, features)
            if decrypt and not kernel.supports_decrypt:
                break
            options = ExperimentOptions(
                cipher=cipher, features=features, kind=kind,
                session_bytes=session_bytes, key=key,
            )
            iv = bytes(kernel.block_bytes) if kernel.block_bytes > 1 else None
            data = options.resolved_plaintext()
            if decrypt:
                data = kernel.reference_encrypt(data, iv or b"")
            program, memory, _ = kernel.prepare(data, iv, decrypt=decrypt)
            seen[features] = (program.digest(), bytes(memory.data),
                              runner.fingerprint(options))
        for low, high in itertools.combinations(seen, 2):
            digest, image, fingerprint = seen[low]
            if digest == seen[high][0]:
                shared.add((cipher, kind, low, high))
                assert image == seen[high][1], (kind, low, high)
                assert fingerprint == seen[high][2], (kind, low, high)
            else:
                assert fingerprint != seen[high][2], (kind, low, high)
    assert shared >= {pair for pair in SHARED_PROGRAMS if pair[0] == cipher}


def test_batch_simulates_each_distinct_run_once(tmp_path):
    """Figure 10's NOROT and ROT 4W cells of a kernel without rotates are
    one run: with the cache on, the later copy is a hit on the first.  And
    RC4's OPT kernel uses neither the rotators nor the SBox caches 4W+
    adds, so its 4W+ cell is timed on the 4W pipeline."""
    options = speedups.default_options(256, ("RC4", "Blowfish", "RC6"))

    def figure10(runner):
        cells = {}

        def record(result):
            cells[(result.cipher, result.experiment.options.features,
                   result.config_name)] = result

        runner.stats_hook = record
        return speedups.run(options, runner=runner), cells

    from repro.obs import RingBufferSink

    bus, metrics, _ = views_bus()
    ledger = RingBufferSink()
    bus.subscribe(ledger)
    shared = make_runner(tmp_path, bus=bus, heartbeat_interval=0)
    rows, cells = figure10(shared)
    stats = shared.stats
    assert (stats.timing_runs, stats.timing_shared, stats.functional_runs,
            stats.cache_hits) == (15, 1, 7, 2)
    assert metrics.counter("runner.cache.hits").value == 2
    assert len(cells) == 18
    assert sorted((c, f) for (c, f, _), r in cells.items() if r.cached) \
        == [("Blowfish", Features.NOROT), ("RC4", Features.NOROT)]
    published = [event["data"]["cached"] for event in ledger.events
                 if (event["source"], event["type"]) == ("runner", "result")]
    assert (len(published), sum(published)) == (18, 2)
    assert [(event["data"]["cipher"], event["data"]["config"],
             event["data"]["shared_with"]) for event in ledger.events
            if "shared_with" in event["data"]] == [("RC4", "4W+", "4W")]
    assert not cells[("RC4", Features.OPT, "4W+")].cached

    alone = Runner(cache=ResultCache.disabled())
    alone_rows, alone_cells = figure10(alone)
    stats = alone.stats
    assert (stats.timing_runs, stats.timing_shared, stats.functional_runs,
            stats.cache_hits) == (17, 1, 9, 0)
    assert rows == alone_rows
    assert {cell: r.stats for cell, r in cells.items()} \
        == {cell: r.stats for cell, r in alone_cells.items()}

    warm = make_runner(tmp_path)
    assert figure10(warm)[0] == rows
    assert warm.stats.cache_hits == 18
    assert warm.stats.functional_runs == 0

    # A pool run (or its serial fallback) shares the same way.
    pooled = Runner(cache=ResultCache(tmp_path / "pooled"), jobs=2)
    pooled_rows, pooled_cells = figure10(pooled)
    assert pooled_rows == rows
    assert {cell: r.stats for cell, r in pooled_cells.items()} \
        == {cell: r.stats for cell, r in cells.items()}
    assert (pooled.stats.timing_runs, pooled.stats.timing_shared) == (15, 1)


def test_equal_view_configs_share_one_pipeline(tmp_path):
    """RC4's OPT kernel uses neither the rotators nor the SBox caches that
    4W+ adds to 4W, so a group on both builds one pipeline, serially and
    in the pool.  The follower equals its unshared ``simulate()`` result,
    is not a cache hit, and is written under its own key."""
    from repro.obs import EventBus, RingBufferSink
    from repro.obs.dashboard import build_state, render
    from repro.sim import FOURW_PLUS
    from repro.sim.timing import simulate

    def rc4(kind):
        return ExperimentOptions(cipher="RC4", features=Features.OPT,
                                 kind=kind, session_bytes=128)

    grid_ = [Experiment(rc4(kind), config) for kind in ("encrypt", "decrypt")
             for config in (FOURW, FOURW_PLUS)]
    bus, ledger = EventBus(), RingBufferSink()
    bus.subscribe(ledger)
    serial = make_runner(tmp_path, bus=bus, heartbeat_interval=0)
    results = serial.run(grid_[:2])
    assert (serial.stats.timing_runs, serial.stats.timing_shared) == (1, 1)
    assert serial.stats.instructions_simulated == results[0].instructions
    assert "1 results shared" in serial.stats.summary()
    run = serial.functional(rc4("encrypt"))
    for result, config in zip(results, (FOURW, FOURW_PLUS)):
        assert_fields_equal(result.stats,
                            simulate(run.trace, config, run.warm_ranges))
    assert [r.cached for r in results] == [False, False]
    assert results[1].wall_time == 0.0 < results[0].wall_time
    assert [event["data"].get("shared_with") for event in ledger.events
            if event["type"] == "result"] == [None, "4W"]
    frame = render(build_state(ledger.events))
    assert "experiments: 2 results (1 shared)" in frame
    assert "[shared 4W]" in frame

    warm = make_runner(tmp_path)
    assert all(r.cached for r in warm.run(grid_[:2]))
    assert warm.stats.timing_runs == warm.stats.timing_shared == 0

    pooled = Runner(cache=ResultCache.disabled(), jobs=2)
    pooled_results = pooled.run(grid_)
    assert (pooled.stats.timing_runs, pooled.stats.timing_shared) == (2, 2)
    assert [r.stats for r in pooled_results[:2]] \
        == [r.stats for r in results]

    # Runner.simulate (riscasim --bottlenecks, multisession) shares too.
    traced = Runner(cache=ResultCache.disabled())
    stats = traced.simulate(run.trace, [FOURW, FOURW_PLUS], run.warm_ranges)
    assert (traced.stats.timing_runs, traced.stats.timing_shared) == (1, 1)
    assert stats == [r.stats for r in results]


def assert_fields_equal(stats, own):
    for field in dataclasses.fields(own):
        assert getattr(stats, field.name) == getattr(own, field.name), \
            field.name
