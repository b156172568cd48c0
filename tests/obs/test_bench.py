"""Tests for the benchmark history and its regression detector."""

import json
import subprocess

import pytest

from repro.obs import (
    BENCH_SCHEMA,
    BenchHistory,
    BenchRecord,
    compare_history,
    detect_regression,
    environment_fingerprint,
    validate_bench,
    validate_bench_history,
)
from repro.obs.bench import (
    bootstrap_median_interval,
    median,
    scaled_mad,
    sparkline,
)
from repro.tools import bench as bench_cli

ENV = {"hostname": "box", "platform": "TestOS"}


def record(wall, suite="unit", benchmark="probe", **kwargs):
    kwargs.setdefault("env", dict(ENV, git_sha="deadbeef"))
    return BenchRecord(suite=suite, benchmark=benchmark,
                       wall_seconds=wall, **kwargs)


def history_with(tmp_path, walls, **kwargs):
    history = BenchHistory(tmp_path / "history.jsonl")
    for wall in walls:
        history.append(record(wall, **kwargs))
    return history


# -- the record and the store ----------------------------------------------

def test_record_round_trip_and_schema(tmp_path):
    history = BenchHistory(tmp_path / "bench" / "history.jsonl")
    document = history.append(record(
        1.5, throughput=2048.0, peak_memory_bytes=1 << 20,
        extra={"session_bytes": 512},
    ))
    assert document["schema"] == BENCH_SCHEMA
    assert validate_bench(document) == []
    loaded = history.load()
    assert len(loaded) == 1
    assert loaded[0].wall_seconds == 1.5
    assert loaded[0].throughput_unit == "bytes/s"
    assert loaded[0].extra == {"session_bytes": 512}
    assert loaded[0].recorded_at


def test_append_is_append_only(tmp_path):
    history = history_with(tmp_path, [1.0, 2.0, 3.0])
    assert [r.wall_seconds for r in history.load()] == [1.0, 2.0, 3.0]
    assert history.benchmarks() == [("unit", "probe")]


def test_append_refuses_invalid_records(tmp_path):
    history = BenchHistory(tmp_path / "history.jsonl")
    with pytest.raises(ValueError, match="wall_seconds"):
        history.append(record(-1.0))
    with pytest.raises(ValueError):
        history.append(record(1.0, suite=""))
    assert history.load() == []


def test_load_reports_corrupt_line_numbers(tmp_path):
    history = history_with(tmp_path, [1.0])
    with open(history.path, "a") as handle:
        handle.write(json.dumps({"schema": BENCH_SCHEMA, "suite": "x"}))
        handle.write("\n")
    with pytest.raises(ValueError, match=":2:"):
        history.load()


def test_validate_bench_flags_shape_errors():
    good = record(1.0).to_dict()
    assert validate_bench(good) == []
    assert validate_bench([]) != []
    assert validate_bench({**good, "schema": "bogus"}) != []
    assert validate_bench({**good, "wall_seconds": "fast"}) != []
    assert validate_bench({**good, "env": {"k": 1}}) != []
    assert validate_bench({**good, "extra": {"k": [1]}}) != []
    assert validate_bench({**good, "peak_memory_bytes": -5}) != []
    errors = validate_bench_history([good, {**good, "suite": ""}])
    assert errors and "line 2" in errors[0]
    assert validate_bench_history([good]) == []


def _no_enclosing_repo(monkeypatch, path):
    """Keep git from finding a repository above ``path`` (or the env)."""
    monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(path.parent))


def test_environment_fingerprint_shape(tmp_path, monkeypatch):
    _no_enclosing_repo(monkeypatch, tmp_path)
    git = ["git", "-c", "user.name=repro", "-c", "user.email=repro@example.com"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "init"],
                   cwd=tmp_path, check=True)
    env = environment_fingerprint(cwd=str(tmp_path))
    assert set(env) >= {"git_sha", "python", "platform",
                        "machine", "hostname", "cpu_count"}
    assert all(isinstance(value, str) for value in env.values())
    # A git checkout: the sha must resolve.
    assert len(env["git_sha"]) == 40


def test_environment_fingerprint_outside_a_checkout(tmp_path, monkeypatch):
    _no_enclosing_repo(monkeypatch, tmp_path)
    assert environment_fingerprint(cwd=str(tmp_path))["git_sha"] == "unknown"


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "cafef00d")
    assert environment_fingerprint()["git_sha"] == "cafef00d"


# -- robust statistics -----------------------------------------------------

def test_median_and_mad():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert scaled_mad([1.0, 1.0, 1.0]) == 0.0
    assert scaled_mad([1.0, 2.0, 3.0]) == pytest.approx(1.4826)
    with pytest.raises(ValueError):
        median([])


def test_bootstrap_interval_is_deterministic_and_sane():
    values = [1.0, 1.1, 0.9, 1.05, 0.95]
    lo, hi = bootstrap_median_interval(values)
    assert (lo, hi) == bootstrap_median_interval(values)  # seeded
    assert min(values) <= lo <= hi <= max(values)
    assert bootstrap_median_interval([2.0]) == (2.0, 2.0)


# -- regression detection (the acceptance bars) ----------------------------

BASELINE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]


def test_injected_slowdown_is_flagged():
    """Acceptance: a >= threshold slowdown is a confirmed regression."""
    verdict = detect_regression(1.25, BASELINE, suite="s", benchmark="b",
                                threshold=0.10)
    assert verdict.regressed
    assert not verdict.improved
    assert verdict.ratio == pytest.approx(1.25)
    assert "REGRESSION" in verdict.summary()


def test_rerecording_unchanged_benchmark_is_never_flagged():
    """Acceptance: re-recording at baseline speed stays quiet."""
    for wall in BASELINE:
        verdict = detect_regression(wall, BASELINE, threshold=0.10)
        assert not verdict.regressed, verdict.summary()


def test_noisy_baseline_suppresses_borderline_excess():
    # 30% spread in the baseline: a 1.14x run is within the noise floor.
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1]
    verdict = detect_regression(1.2, noisy, threshold=0.10)
    assert not verdict.regressed
    assert "noise floor" in verdict.reason


def test_improvement_and_insufficient_history():
    verdict = detect_regression(0.5, BASELINE, threshold=0.10)
    assert verdict.improved and not verdict.regressed
    verdict = detect_regression(99.0, [1.0], min_runs=2)
    assert not verdict.regressed
    assert "insufficient history" in verdict.reason
    assert "no baseline" in detect_regression(1.0, []).summary()


def test_degenerate_baseline_is_not_judged():
    verdict = detect_regression(1.0, [0.0, 0.0, 0.0])
    assert not verdict.regressed
    assert "degenerate" in verdict.reason


def test_compare_history_judges_latest_run(tmp_path):
    history = history_with(tmp_path, BASELINE + [2.0])
    verdicts = compare_history(history)
    assert len(verdicts) == 1
    assert verdicts[0].regressed
    # The same history minus the bad run is quiet.
    quiet = compare_history(history_with(tmp_path / "q", BASELINE))
    assert not any(v.regressed for v in quiet)


def test_compare_history_matches_environment(tmp_path):
    history = BenchHistory(tmp_path / "history.jsonl")
    # Fast history from another machine, slow current run here.
    for wall in BASELINE:
        history.append(record(wall, env={"hostname": "laptop",
                                         "platform": "OtherOS"}))
    history.append(record(2.0))
    verdict = compare_history(history)[0]
    assert not verdict.regressed
    assert "insufficient history" in verdict.reason
    # Opting out of the env match sees the cross-machine baseline.
    assert compare_history(history, match_env=False)[0].regressed


def test_compare_history_benchmark_filter(tmp_path):
    history = history_with(tmp_path, [1.0, 1.0, 1.0])
    for wall in (2.0, 2.0, 2.0):
        history.append(record(wall, benchmark="slow"))
    verdicts = compare_history(history, benchmarks=["unit::probe"])
    assert [v.benchmark for v in verdicts] == ["probe"]


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"
    line = sparkline([1.0, 2.0, 3.0])
    assert line[0] == "▁" and line[-1] == "█" and len(line) == 3


# -- the CLI ---------------------------------------------------------------

def cli(tmp_path, *argv):
    return bench_cli.main(["--history", str(tmp_path / "h.jsonl"), *argv])


def test_cli_record_compare_report(tmp_path, capsys):
    for wall in ("1.0", "1.01", "0.99"):
        assert cli(tmp_path, "record", "--suite", "s", "--benchmark", "b",
                   "--wall", wall, "--extra", "session_bytes=256") == 0
    assert cli(tmp_path, "compare") == 0
    assert cli(tmp_path, "record", "--suite", "s", "--benchmark", "b",
               "--wall", "9.9") == 0
    assert cli(tmp_path, "compare") == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "confirmed regression" in out
    assert cli(tmp_path, "report") == 0
    out = capsys.readouterr().out
    assert "s::b" in out and "4 runs" in out
    history = BenchHistory(tmp_path / "h.jsonl")
    assert history.load()[0].extra == {"session_bytes": 256}


def test_cli_ingest_streaming_artifact(tmp_path, capsys):
    legacy = tmp_path / "BENCH_streaming.json"
    legacy.write_text(json.dumps({
        "session_bytes": 16384, "cipher": "Blowfish", "config": "4W",
        "stream_seconds": 2.0, "batch_seconds": 2.2,
        "stream_peak_trace_bytes": 4096, "batch_peak_trace_bytes": 65536,
        "trace_memory_ratio": 0.0625,
    }))
    assert cli(tmp_path, "ingest", str(legacy)) == 0
    entry = BenchHistory(tmp_path / "h.jsonl").load()[0]
    assert entry.suite == "streaming"
    assert entry.wall_seconds == 2.0
    assert entry.throughput == pytest.approx(16384 / 2.0)
    assert entry.peak_memory_bytes == 4096
    assert entry.extra["batch_seconds"] == 2.2
    with pytest.raises(SystemExit):
        cli(tmp_path, "ingest", str(tmp_path / "h.jsonl"))


def test_cli_rejects_malformed_extra(tmp_path):
    with pytest.raises(SystemExit):
        cli(tmp_path, "record", "--suite", "s", "--benchmark", "b",
            "--wall", "1.0", "--extra", "oops")


def test_cli_empty_history_is_ok(tmp_path, capsys):
    assert cli(tmp_path, "compare") == 0
    assert cli(tmp_path, "report") == 0
    out = capsys.readouterr().out
    assert "no benchmarks" in out


def test_cli_ingest_timing_grid_artifact(tmp_path, capsys):
    legacy = tmp_path / "BENCH_timing.json"
    legacy.write_text(json.dumps({
        "session_bytes": 1 << 20, "cipher": "RC4", "config": "4W",
        "generic_seconds": 2.0, "specialized_seconds": 1.25,
        "speedup": 1.6,
    }))
    assert cli(tmp_path, "ingest", str(legacy)) == 0
    entries = BenchHistory(tmp_path / "h.jsonl").load()
    assert [(e.suite, e.benchmark) for e in entries] == \
        [("timing", "rc4_timing_grid")] * 2
    assert [e.env["timing_engine"] for e in entries] == \
        ["generic", "specialized"]
    assert entries[0].wall_seconds == 2.0
    assert entries[1].wall_seconds == 1.25
    assert entries[1].throughput == pytest.approx((1 << 20) / 1.25)
    # The engine walls become records, not extras (they would shadow
    # the per-engine baselines); scalars like the speedup ride along.
    assert "generic_seconds" not in entries[0].extra
    assert entries[0].extra["speedup"] == 1.6
    assert "ingested timing::rc4_timing_grid" in capsys.readouterr().out


def test_cli_ingest_backend_grid_artifact(tmp_path):
    legacy = tmp_path / "BENCH_compiled.json"
    legacy.write_text(json.dumps({
        "session_bytes": 1 << 20, "cipher": "RC4",
        "interpreter_seconds": 30.0, "compiled_seconds": 6.0,
        "interpreter_instructions_per_second": 1.0e6,
        "compiled_instructions_per_second": 5.0e6,
    }))
    assert cli(tmp_path, "ingest", str(legacy)) == 0
    entries = BenchHistory(tmp_path / "h.jsonl").load()
    assert [(e.suite, e.benchmark) for e in entries] == \
        [("backend", "rc4_functional")] * 2
    assert [e.env["backend"] for e in entries] == \
        ["interpreter", "compiled"]
    assert entries[1].throughput == 5.0e6
    assert entries[1].throughput_unit == "instructions/s"


def test_cli_ingest_unrecognized_artifact(tmp_path):
    legacy = tmp_path / "BENCH_mystery.json"
    legacy.write_text(json.dumps({"session_bytes": 64, "other": 1}))
    with pytest.raises(SystemExit, match="not a recognized"):
        cli(tmp_path, "ingest", str(legacy))


def test_cli_compare_explain_drills_into_stall_deltas(tmp_path, capsys,
                                                     monkeypatch):
    """A seeded synthetic regression whose records name runnable
    experiments: --explain reruns them (cached) and the report carries
    the full stall-category delta section, valid per obs --check."""
    from repro.tools import obs as obs_cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    history = BenchHistory(tmp_path / "h.jsonl")
    for wall in (1.0, 1.01, 0.99):
        history.append(record(
            wall, suite="timing", benchmark="grid",
            extra={"cipher": "RC4", "config": "4W", "session_bytes": 64},
        ))
    history.append(record(
        2.0, suite="timing", benchmark="grid",
        extra={"cipher": "RC4", "config": "8W+", "session_bytes": 64},
    ))
    out = tmp_path / "explain.json"
    assert cli(tmp_path, "compare", "--explain-out", str(out)) == 1
    stdout = capsys.readouterr().out
    assert "REGRESSION" in stdout
    assert "diff [bench]" in stdout
    report = json.loads(out.read_text())
    assert report["kind"] == "bench"
    assert report["identical"] is False
    assert report["bench"]["significant"] is True
    # The cycle-provenance drill-down: 4W vs 8W+ stall deltas.
    assert report["stats"]["a_config"] == "4W"
    assert report["stats"]["b_config"] == "8W+"
    assert any(row["delta"] for row in report["stats"]["stall_slots"])
    assert obs_cli.check_file(str(out)) == 0
    capsys.readouterr()


def test_cli_compare_explain_without_regression(tmp_path, capsys):
    history = BenchHistory(tmp_path / "h.jsonl")
    for wall in (1.0, 1.0, 1.0):
        history.append(record(wall, suite="s", benchmark="b"))
    assert cli(tmp_path, "compare", "--explain") == 0
    stdout = capsys.readouterr().out
    assert "diff [bench]" in stdout        # produced unconditionally
    assert "no confirmed regressions" in stdout
