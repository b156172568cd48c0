"""Trace/metrics export edge cases: empty traces, DF machines, multisession.

These are the paths where the Perfetto exporter and metrics snapshot have
the least structure to lean on: a tracer that recorded nothing, dataflow
machines with unlimited issue width (so no issue-slot account at all), and
schedule spans from several interleaved sessions sharing one trace file.
"""

import json

from repro.analysis.multisession import interleave_traces
from repro.obs import (
    EventBus,
    MetricsRegistry,
    MetricsView,
    Tracer,
    schedule_trace_events,
    validate_metrics,
    validate_trace_events,
)
from repro.runner import ExperimentOptions, ResultCache, Runner
from repro.sim import DATAFLOW, FOURW
from repro.sim.timing import simulate
from repro.tools.obs import check_file


def functional(cipher, session_bytes=64):
    runner = Runner(cache=ResultCache.disabled())
    return runner.functional(
        ExperimentOptions(cipher=cipher, session_bytes=session_bytes)
    )


def test_empty_tracer_exports_valid_files(tmp_path):
    tracer = Tracer()
    document = tracer.to_chrome()
    assert document["traceEvents"] == []
    assert validate_trace_events(document) == []
    json_path = tmp_path / "empty.json"
    jsonl_path = tmp_path / "empty.jsonl"
    tracer.write(json_path)
    tracer.write(jsonl_path)
    assert json.loads(json_path.read_text())["traceEvents"] == []
    assert jsonl_path.read_text() == ""
    # The --check sniffer accepts both empty forms.
    assert check_file(str(json_path)) == 0
    assert check_file(str(jsonl_path)) == 0


def test_dataflow_machine_has_no_slot_account():
    run = functional("RC4", 32)
    stats = simulate(run.trace, DATAFLOW, run.warm_ranges)
    # Unlimited issue width: no issue slots, hence no stall attribution.
    assert DATAFLOW.issue_width is None
    assert stats.issue_slots == 0
    assert stats.stall_slots == {}
    assert stats.stall_fractions() == {}


def test_dataflow_metrics_snapshot_is_valid():
    run = functional("RC4", 32)
    metrics, bus = MetricsRegistry(), EventBus()
    bus.subscribe(MetricsView(metrics))
    Runner(cache=ResultCache.disabled(), bus=bus).simulate(
        run.trace, [DATAFLOW], run.warm_ranges)
    document = metrics.snapshot(generated_by="test")
    assert validate_metrics(document) == []
    assert metrics.counter("sim.issue_slots", {"config": "DF"}).value == 0
    names = {metric["name"] for metric in document["metrics"]}
    assert "sim.stall_slots" not in names  # nothing to attribute


def test_dataflow_schedule_window_exports_valid_events(tmp_path):
    run = functional("RC4", 32)
    stats = simulate(run.trace, DATAFLOW, run.warm_ranges,
                     schedule_range=(0, 40))
    events = schedule_trace_events(stats.extra["schedule"],
                                   track_prefix="RC4:DF")
    assert validate_trace_events(events) == []
    tracer = Tracer()
    tracer.add_events(events)
    path = tmp_path / "df.json"
    tracer.write(path)
    assert check_file(str(path)) == 0


def test_interleaved_multisession_spans_share_one_trace(tmp_path):
    sessions = [functional("RC4", 32), functional("RC6", 32)]
    merged = interleave_traces([run.trace for run in sessions])
    assert merged.instructions_executed == sum(
        run.trace.instructions_executed for run in sessions
    )
    stats = simulate(merged, FOURW, schedule_range=(0, 60))
    schedule = stats.extra["schedule"]
    tracer = Tracer()
    # Two exports into one tracer, one track per session, distinct pids.
    half = len(schedule) // 2
    tracer.add_events(schedule_trace_events(
        schedule[:half], pid=1, track_prefix="session-0"))
    tracer.add_events(schedule_trace_events(
        schedule[half:], pid=2, track_prefix="session-1"))
    document = tracer.to_chrome()
    assert validate_trace_events(document) == []
    meta = [event for event in document["traceEvents"]
            if event["ph"] == "M"]
    assert {event["args"]["name"] for event in meta} >= {
        "session-0", "session-1",
    }
    assert {event["pid"] for event in document["traceEvents"]} == {1, 2}
    path = tmp_path / "multisession.json"
    tracer.write(path)
    assert check_file(str(path)) == 0
