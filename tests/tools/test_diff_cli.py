"""The standalone diff CLI: subcommands, exit codes, report round-trips.

Exit status follows diff(1): 0 identical, 1 different, 2 trouble.  Every
``--out`` report must round-trip through ``repro.tools.obs --check``.
"""

import json

import pytest

from repro.obs import EventBus, JsonlSink
from repro.tools import diff as diff_cli
from repro.tools import obs as obs_cli


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def write_ledger(path, phases, run_id="run0"):
    bus = EventBus(run_id=run_id)
    bus.subscribe(JsonlSink(path))
    for source, type_ in phases:
        bus.publish(source, type_, {})
    bus.close()


PHASES = (("runner", "start"), ("cache", "miss"), ("runner", "result"),
          ("runner", "finish"))


# -- run --------------------------------------------------------------------

def test_run_two_machine_models_differ(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = diff_cli.main([
        "run", "--cipher", "RC4", "--session-bytes", "64",
        "--config", "4W", "8W+", "--out", str(out),
    ])
    assert rc == diff_cli.DIFFERENT
    stdout = capsys.readouterr().out
    assert "diff [stats]" in stdout
    assert "verdict:" in stdout
    report = json.loads(out.read_text())
    assert report["identical"] is False
    assert report["a"]["config"] == "4W" and report["b"]["config"] == "8W+"
    # The written report is valid by the obs checker's standards.
    assert obs_cli.check_file(str(out)) == 0


def test_run_self_diff_is_identical(capsys):
    rc = diff_cli.main([
        "run", "--cipher", "RC4", "--session-bytes", "64",
        "--config", "4W", "--format", "json",
    ])
    assert rc == diff_cli.IDENTICAL
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True
    assert report["verdict"].startswith("identical")


def test_run_cross_stack_is_identical(capsys):
    """interpreter+generic vs compiled+specialized: zero deltas.
    --no-cache keeps side b from replaying side a's cached record."""
    rc = diff_cli.main([
        "run", "--cipher", "RC4", "--session-bytes", "64", "--config", "4W",
        "--no-cache",
        "--a-backend", "interpreter", "--a-engine", "generic",
        "--b-backend", "compiled", "--b-engine", "specialized",
        "--format", "json",
    ])
    assert rc == diff_cli.IDENTICAL
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True
    assert report["stats"]["a_engine"] == "generic"
    assert report["stats"]["b_engine"] == "specialized"


def test_run_cross_stack_simulates_both_sides_with_the_cache_on(capsys):
    """Cache keys leave the stack out, so with the cache on a cross-stack
    diff must still simulate each side on its own stack: side b served
    from side a's record -- same batch or disk -- would compare a record
    with itself."""
    args = ["run", "--cipher", "RC4", "--session-bytes", "256",
            "--config", "4W", "--format", "json"]
    assert diff_cli.main(args) == diff_cli.IDENTICAL  # writes the record
    capsys.readouterr()
    rc = diff_cli.main(args + [
        "--a-backend", "interpreter", "--a-engine", "generic",
        "--b-backend", "compiled", "--b-engine", "specialized",
    ])
    assert rc == diff_cli.IDENTICAL
    report = json.loads(capsys.readouterr().out)
    assert report["a"]["cached"] is False and report["b"]["cached"] is False
    assert report["stats"]["a_engine"] == "generic"
    assert report["stats"]["b_engine"] == "specialized"


def test_run_rejects_three_configs(capsys):
    rc = diff_cli.main([
        "run", "--cipher", "RC4", "--session-bytes", "64",
        "--config", "4W", "8W+", "base",
    ])
    assert rc == diff_cli.TROUBLE
    assert "one or two machine models" in capsys.readouterr().out


# -- ledger -----------------------------------------------------------------

def test_ledger_identical_runs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_ledger(a, PHASES, run_id="aaa")
    write_ledger(b, PHASES, run_id="bbb")
    out = tmp_path / "report.json"
    rc = diff_cli.main(["ledger", str(a), str(b), "--out", str(out)])
    assert rc == diff_cli.IDENTICAL
    assert "identical" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["a"]["run_id"] == "aaa"
    assert obs_cli.check_file(str(out)) == 0


def test_ledger_defaults_to_last_run_and_selects_by_id(tmp_path, capsys):
    appended = tmp_path / "appended.jsonl"
    write_ledger(appended, PHASES[:2], run_id="earlier")
    write_ledger(appended, PHASES, run_id="later")
    solo = tmp_path / "solo.jsonl"
    write_ledger(solo, PHASES, run_id="solo")
    # Default: the file's last run, which matches.
    assert diff_cli.main(["ledger", str(solo), str(appended)]) == \
        diff_cli.IDENTICAL
    capsys.readouterr()
    # Explicit selection of the shorter earlier run: different.
    assert diff_cli.main(["ledger", str(solo), str(appended),
                          "--b-run", "earlier"]) == diff_cli.DIFFERENT
    capsys.readouterr()


def test_ledger_unknown_run_id_is_trouble(tmp_path, capsys):
    path = tmp_path / "a.jsonl"
    write_ledger(path, PHASES, run_id="known")
    rc = diff_cli.main(["ledger", str(path), str(path),
                        "--a-run", "missing"])
    assert rc == diff_cli.TROUBLE
    stdout = capsys.readouterr().out
    assert "no run 'missing'" in stdout
    assert "known" in stdout


def test_ledger_missing_file_is_trouble(tmp_path, capsys):
    rc = diff_cli.main(["ledger", str(tmp_path / "nope.jsonl"),
                        str(tmp_path / "nope.jsonl")])
    assert rc == diff_cli.TROUBLE
    assert "error:" in capsys.readouterr().out


# -- metrics ----------------------------------------------------------------

def metrics_snapshot(path, cache_hits):
    path.write_text(json.dumps({
        "schema": "repro.obs.metrics/1",
        "meta": {"tool": "bench"},
        "metrics": [
            {"name": "runner.cache_hits", "type": "counter",
             "value": cache_hits},
            {"name": "runner.wall_seconds", "type": "gauge", "value": 1.5},
        ],
    }))
    return path


def test_metrics_identical_and_different(tmp_path, capsys):
    a = metrics_snapshot(tmp_path / "a.json", cache_hits=4)
    same = metrics_snapshot(tmp_path / "same.json", cache_hits=4)
    other = metrics_snapshot(tmp_path / "other.json", cache_hits=9)
    assert diff_cli.main(["metrics", str(a), str(same)]) == \
        diff_cli.IDENTICAL
    capsys.readouterr()
    out = tmp_path / "report.json"
    rc = diff_cli.main(["metrics", str(a), str(other), "--out", str(out)])
    assert rc == diff_cli.DIFFERENT
    assert "runner.cache_hits +5" in capsys.readouterr().out
    assert obs_cli.check_file(str(out)) == 0


# -- bisect -----------------------------------------------------------------

def test_bisect_cross_backend_identical(capsys):
    rc = diff_cli.main([
        "bisect", "--cipher", "RC4", "--session-bytes", "64",
        "--a-backend", "interpreter", "--b-backend", "compiled",
        "--chunk-size", "7",
    ])
    assert rc == diff_cli.IDENTICAL
    stdout = capsys.readouterr().out
    assert "identical" in stdout
    assert "bit-identical" in stdout
