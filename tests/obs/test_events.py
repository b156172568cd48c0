"""The unified run ledger: bus stamping, sinks, schema, ledger invariants."""

import json
import threading

import pytest

from repro.obs import (
    EVENTS_SCHEMA,
    EventBus,
    JsonlSink,
    MetricsRegistry,
    MetricsView,
    RingBufferSink,
    active_bus,
    load_ledger,
    new_run_id,
    publish_event,
    set_active_bus,
    split_runs,
    validate_event,
    validate_event_ledger,
)


class FakeClock:
    def __init__(self):
        self.now = 50.0

    def __call__(self):
        return self.now


# -- bus stamping -----------------------------------------------------------

def test_publish_stamps_schema_run_id_seq_and_relative_ts():
    clock = FakeClock()
    bus = EventBus(run_id="abc123", clock=clock)
    clock.now += 0.25
    event = bus.publish("runner", "start", {"total_groups": 3})
    assert event["schema"] == EVENTS_SCHEMA
    assert event["run_id"] == "abc123"
    assert event["seq"] == 0
    assert event["ts"] == 0.25
    assert event["data"] == {"total_groups": 3}
    assert bus.publish("runner", "finish")["seq"] == 1


def test_non_scalar_data_values_are_dropped():
    bus = EventBus()
    event = bus.publish("cache", "hit", {
        "key": "abcd", "nested": {"no": 1}, "items": [1, 2], "ok": None,
    })
    assert event["data"] == {"key": "abcd", "ok": None}


def test_every_published_event_validates():
    bus = EventBus()
    for source, type_ in (("runner", "start"), ("cache", "miss"),
                          ("backend", "compile")):
        assert validate_event(bus.publish(source, type_, {"n": 1})) == []


def test_new_run_ids_are_distinct():
    assert new_run_id() != new_run_id()
    assert len(new_run_id()) == 12


def test_concurrent_publishes_get_unique_contiguous_seq():
    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)

    def worker():
        for _ in range(50):
            bus.publish("runner", "heartbeat", {})

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seqs = sorted(event["seq"] for event in sink.events)
    assert seqs == list(range(200))
    assert validate_event_ledger(sink.events) == []


# -- sinks ------------------------------------------------------------------

def test_jsonl_sink_appends_flushed_lines(tmp_path):
    path = tmp_path / "ledger" / "events.jsonl"   # parent auto-created
    bus = EventBus()
    bus.subscribe(JsonlSink(path))
    bus.publish("runner", "start", {"total_groups": 1})
    # Flushed per event: visible before close (the --follow contract).
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "start"
    bus.publish("runner", "finish")
    bus.close()
    assert len(load_ledger(path)) == 2


def test_ring_buffer_sink_keeps_newest():
    sink = RingBufferSink(capacity=3)
    bus = EventBus()
    bus.subscribe(sink)
    for n in range(5):
        bus.publish("runner", "heartbeat", {"n": n})
    assert [event["data"]["n"] for event in sink.events] == [2, 3, 4]


def test_metrics_sink_counts_by_source_and_type():
    registry = MetricsRegistry()
    bus = EventBus()
    bus.subscribe(MetricsView(registry))
    bus.publish("cache", "hit")
    bus.publish("cache", "hit")
    bus.publish("cache", "miss")
    assert registry.counter(
        "events.published", {"source": "cache", "type": "hit"}).value == 2
    assert registry.counter(
        "events.published", {"source": "cache", "type": "miss"}).value == 1


def test_close_closes_sinks_and_detaches(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    bus = EventBus()
    bus.subscribe(sink)
    bus.publish("runner", "start")
    bus.close()
    bus.publish("runner", "finish")   # no sinks left; must not raise
    assert len(load_ledger(path)) == 1


# -- the process-global active bus ------------------------------------------

def test_publish_event_is_noop_without_active_bus():
    assert active_bus() is None
    assert publish_event("backend", "compile", {"x": 1}) is None


def test_active_bus_receives_publish_event():
    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)
    previous = set_active_bus(bus)
    try:
        event = publish_event("backend", "compile", {"digest": "ff"})
        assert event is not None and event["source"] == "backend"
        assert len(sink.events) == 1
    finally:
        set_active_bus(previous)
    assert active_bus() is previous


# -- schema validation ------------------------------------------------------

def good_event(**overrides):
    event = {
        "schema": EVENTS_SCHEMA, "run_id": "r1", "seq": 0, "ts": 0.0,
        "source": "runner", "type": "start", "data": {},
    }
    event.update(overrides)
    return event


@pytest.mark.parametrize("mutation, fragment", [
    ({"schema": "wrong/1"}, "schema"),
    ({"run_id": ""}, "run_id"),
    ({"seq": -1}, "seq"),
    ({"seq": True}, "seq"),
    ({"ts": -0.5}, "ts"),
    ({"source": ""}, "source"),
    ({"type": 7}, "type"),
    ({"data": [1]}, "data"),
    ({"data": {"k": [1]}}, "data"),
])
def test_validate_event_rejects_bad_fields(mutation, fragment):
    errors = validate_event(good_event(**mutation))
    assert errors and any(fragment in error for error in errors)


def test_validate_ledger_requires_contiguous_seq_per_run():
    ledger = [good_event(seq=0), good_event(seq=2)]
    errors = validate_event_ledger(ledger)
    assert errors and "seq" in errors[0]


def test_validate_ledger_requires_monotonic_ts_per_run():
    ledger = [good_event(seq=0, ts=1.0), good_event(seq=1, ts=0.5)]
    errors = validate_event_ledger(ledger)
    assert errors and "ts" in errors[0]


def test_validate_ledger_interleaved_runs_are_independent():
    ledger = [
        good_event(run_id="a", seq=0),
        good_event(run_id="b", seq=0),
        good_event(run_id="a", seq=1, ts=0.1),
        good_event(run_id="b", seq=1, ts=0.1),
    ]
    assert validate_event_ledger(ledger) == []


def test_round_trip_through_jsonl_validates(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    bus.subscribe(JsonlSink(path))
    bus.publish("runner", "start", {"total_groups": 2})
    bus.publish("cache", "miss", {"kind": "record", "key": "ab" * 6})
    bus.publish("runner", "finish", {"done": 2})
    bus.close()
    ledger = load_ledger(path)
    assert validate_event_ledger(ledger) == []
    runs = split_runs(ledger)
    assert len(runs) == 1
    assert runs[0][0] == bus.run_id


def test_split_runs_orders_by_first_seen(tmp_path):
    path = tmp_path / "events.jsonl"
    for run_id in ("first", "second"):
        bus = EventBus(run_id=run_id)
        bus.subscribe(JsonlSink(path))
        bus.publish("runner", "start")
        bus.close()
    runs = split_runs(load_ledger(path))
    assert [run_id for run_id, _ in runs] == ["first", "second"]


def _written_ledger(path):
    bus = EventBus()
    bus.subscribe(JsonlSink(path))
    for done in range(3):
        bus.publish("runner", "group-done", {"done": done})
    bus.close()
    return path.read_text()


def test_torn_final_line_is_dropped_losslessly(tmp_path):
    """A run killed mid-append leaves its last line without a newline;
    loading keeps every complete event and drops only that line."""
    path = tmp_path / "events.jsonl"
    text = _written_ledger(path)
    complete = load_ledger(path)
    path.write_text(text + text.splitlines()[-1][:25])
    assert load_ledger(path) == complete
    # Cut inside the last event instead: the two before it survive.
    path.write_text(text[:-20])
    assert load_ledger(path) == complete[:-1]


@pytest.mark.parametrize("line", [2, 3])
def test_malformed_ledger_line_names_path_and_line(tmp_path, line):
    """Any other unparseable line -- mid-file, or a final line that
    ends with its newline -- is an error naming ``path:line``."""
    path = tmp_path / "events.jsonl"
    lines = _written_ledger(path).splitlines(keepends=True)
    lines[line - 1] = "{not json\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"events.jsonl:{line}: malformed"):
        load_ledger(path)


def test_obs_check_reports_unparseable_jsonl_lines(tmp_path, capsys):
    from repro.tools.obs import check_file

    path = tmp_path / "events.jsonl"
    text = _written_ledger(path)
    assert check_file(str(path)) == 0
    path.write_text(text + text.splitlines()[-1][:25])
    assert check_file(str(path)) == 1
    assert "line 4: not valid JSON" in capsys.readouterr().out


def test_publishing_needs_only_the_ledger_modules():
    """Importing the runner and the ledger loads neither ``socket`` nor
    ``subprocess``, while every package-level name still resolves.  A
    ``Runner.run`` without a bus -- codegen on both stacks included --
    publishes nothing and loads no ``repro.obs`` module at all."""
    import subprocess
    import sys
    from pathlib import Path

    import repro.obs

    src = str(Path(__file__).resolve().parents[2] / "src")

    def run(script):
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src, "PATH": "/usr/bin"},
        ).stdout.strip()

    assert run(
        "import sys; import repro.runner, repro.obs.events; "
        "print([m for m in ('socket', 'subprocess') "
        "if m in sys.modules])"
    ) == "[]"
    assert run(
        "import sys\n"
        "from repro.runner import Experiment, ExperimentOptions, "
        "ResultCache, Runner\n"
        "from repro.sim import FOURW\n"
        "for stack in ({}, {'backend': 'compiled', "
        "'timing_engine': 'specialized'}):\n"
        "    Runner(cache=ResultCache.disabled(), **stack).run([Experiment("
        "ExperimentOptions(cipher='RC4', session_bytes=64), FOURW)])\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))"
    ) == "[]"
    assert all(getattr(repro.obs, name) is not None
               for name in repro.obs.__all__)
    assert set(repro.obs.__all__) <= set(dir(repro.obs))
