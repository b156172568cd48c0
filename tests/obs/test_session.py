"""Tests for the CLI observability bundle (metrics + trace + profiler)."""

import json
import subprocess

from repro.obs import (
    active_bus,
    load_ledger,
    validate_event_ledger,
    validate_metrics,
    validate_trace_events,
)
from repro.obs.session import Observability, environment_fingerprint
from tests.obs.test_profiler import busy_cipher_work


def test_disabled_session_is_inert():
    obs = Observability()
    assert not obs.enabled
    with obs:
        pass
    assert obs.report() == []
    assert obs.write() == []


def test_profiled_session_reports_and_writes_everything(tmp_path):
    metrics_out = tmp_path / "metrics.json"
    trace_out = tmp_path / "trace.json"
    profile_out = tmp_path / "profile.txt"
    obs = Observability(
        metrics_out=str(metrics_out), trace_out=str(trace_out),
        tool="unit", profile=True, profile_hz=400,
        profile_out=str(profile_out),
    )
    with obs:
        busy_cipher_work(0.15)
    lines = obs.report()
    assert any("cipher" in line for line in lines)
    assert any("top 5 functions" in line for line in lines)
    written = obs.write()
    assert written == [str(metrics_out), str(trace_out), str(profile_out)]

    document = json.loads(metrics_out.read_text())
    assert validate_metrics(document) == []
    assert document["generated_by"] == "unit"
    # Satellite: the environment fingerprint rides along in extra.
    env = document["extra"]["environment"]
    assert set(env) >= {"git_sha", "python", "platform", "hostname"}
    names = {metric["name"] for metric in document["metrics"]}
    assert "profiler.samples" in names

    trace = json.loads(trace_out.read_text())
    assert validate_trace_events(trace) == []
    assert any(event["name"] == "profiler.samples"
               for event in trace["traceEvents"])
    assert profile_out.read_text().strip()


def test_finish_is_idempotent_and_profiler_stops():
    obs = Observability(profile=True, profile_hz=400)
    with obs:
        busy_cipher_work(0.05)
    assert not obs.profiler.running
    samples = obs.profiler.samples
    obs.finish()
    obs.finish()
    assert obs.profiler.samples == samples
    assert obs.report()  # report after finish still renders


def test_events_out_writes_valid_ledger_and_installs_bus(tmp_path):
    events_out = tmp_path / "events.jsonl"
    metrics_out = tmp_path / "metrics.json"
    obs = Observability(metrics_out=str(metrics_out), tool="unit",
                        events_out=str(events_out))
    obs.backend = "compiled"
    assert active_bus() is None
    with obs:
        # The session installs its bus as the process-global active bus so
        # deep publishers (codegen) reach the same ledger.
        assert active_bus() is obs.bus
        obs.bus.publish("runner", "start", {"total_groups": 1})
        obs.bus.publish("runner", "finish", {"done": 1})
    assert active_bus() is None
    assert str(events_out) in obs.write()

    ledger = load_ledger(events_out)
    assert validate_event_ledger(ledger) == []
    assert [event["type"] for event in ledger] == ["start", "finish"]
    assert all(event["run_id"] == obs.bus.run_id for event in ledger)

    document = json.loads(metrics_out.read_text())
    # The resolved backend rides in the environment fingerprint, and the
    # metrics view counted each published event.
    assert document["extra"]["environment"]["backend"] == "compiled"
    published = [metric for metric in document["metrics"]
                 if metric["name"] == "events.published"]
    assert sum(metric["value"] for metric in published) == 2


def _no_enclosing_repo(monkeypatch, path):
    """Keep git from finding a repository above ``path``."""
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
