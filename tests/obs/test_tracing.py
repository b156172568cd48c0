"""Tests for the Perfetto trace view of the ledger and its export."""

import json

from repro.obs import EventBus, Tracer, TraceView, validate_trace_events


def make_tracer():
    """A tracer on a deterministic fake clock advancing 1 ms per read."""
    ticks = iter(range(10_000))

    def clock():
        return next(ticks) * 1e-3

    return Tracer(clock=clock, pid=7)


def traced_bus(tracer):
    """A bus on a fake clock (0.5 s per read) feeding ``tracer``'s view."""
    ticks = iter(range(10_000))
    bus = EventBus(clock=lambda: next(ticks) * 0.5)
    bus.subscribe(TraceView(tracer))
    return bus


def slice_event(name="phase"):
    return {"name": name, "cat": "runner", "ph": "X", "ts": 0.0,
            "dur": 1.0, "pid": 0, "tid": 0}


def test_span_records_complete_event():
    tracer = make_tracer()
    traced_bus(tracer).publish("runner", "timing", {
        "label": "RC6", "config": "4W", "cycles": 123,
        "start": 0.25, "seconds": 0.5,
    })
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["name"] == "timing:RC6:4W"
    assert event["cat"] == "timing"
    assert (event["ts"], event["dur"]) == (0.25e6, 0.5e6)
    assert event["args"] == {"label": "RC6", "config": "4W", "cycles": 123}
    assert event["pid"] == 7


def test_instant_and_counter_events():
    tracer = make_tracer()
    bus = traced_bus(tracer)
    bus.publish("runner", "stuck", {"group": "g", "quiet_seconds": 61.0})
    bus.publish("runner", "heartbeat", {"busy": 2, "done": 0, "total": 3})
    bus.publish("cache", "hit", {"kind": "record"})  # no trace counterpart
    phases = [event["ph"] for event in tracer.events]
    assert phases == ["i", "C"]
    assert tracer.events[0]["name"] == "stuck:g"
    assert tracer.events[1]["args"] == {"busy": 2}
    # Instants and samples sit on the bus clock, where the event was stamped.
    assert [event["ts"] for event in tracer.events] == [0.5e6, 1.0e6]
    assert validate_trace_events(tracer.to_chrome()) == []


def test_to_chrome_sorts_by_timestamp():
    tracer = make_tracer()
    tracer.add_events([
        {"name": "late", "ph": "i", "s": "t", "ts": 100.0,
         "pid": 0, "tid": 0},
        {"name": "early", "ph": "i", "s": "t", "ts": 1.0,
         "pid": 0, "tid": 0},
    ])
    names = [event["name"] for event in tracer.to_chrome()["traceEvents"]]
    assert names == ["early", "late"]


def test_write_chrome_json(tmp_path):
    tracer = make_tracer()
    tracer.add_event(slice_event("a"))
    path = tmp_path / "trace.json"
    tracer.write(path)
    document = json.loads(path.read_text())
    assert validate_trace_events(document) == []
    assert document["displayTimeUnit"] == "ms"


def test_write_jsonl(tmp_path):
    tracer = make_tracer()
    tracer.add_events([slice_event("a"), {"name": "b", "ph": "i", "s": "t",
                                          "ts": 2.0, "pid": 0, "tid": 0}])
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == 2
    assert validate_trace_events(events) == []


def test_validator_flags_bad_events():
    assert validate_trace_events(42) != []
    assert validate_trace_events([{"ph": "Z"}]) != []
    missing_dur = [{"name": "x", "ph": "X", "ts": 0.0, "pid": 0}]
    assert any("dur" in error
               for error in validate_trace_events(missing_dur))
