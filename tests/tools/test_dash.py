"""The run-ledger dashboard: deterministic replay, golden frame, CLI."""

import io

import pytest

from repro.obs import EventBus, JsonlSink
from repro.obs.dashboard import DashState, build_state, render
from repro.obs.events import load_ledger
from repro.runner import ResultCache, Runner, experiment_grid
from repro.sim import FOURW
from repro.tools import dash


class FakeClock:
    def __init__(self):
        self.now = 10.0

    def __call__(self):
        return self.now


def synthetic_ledger(path):
    """A small, fully deterministic ledger exercising every panel."""
    clock = FakeClock()
    bus = EventBus(run_id="feedc0ffee01", clock=clock)
    bus.subscribe(JsonlSink(path))
    bus.publish("runner", "start",
                {"total_groups": 2, "total_experiments": 2})
    clock.now += 0.5
    bus.publish("runner", "dispatch",
                {"group": "RC4/encrypt:128B", "busy": 1, "done": 0,
                 "total": 2})
    bus.publish("cache", "miss", {"kind": "record", "key": "aaaabbbbcccc"})
    bus.publish("backend", "compile",
                {"digest": "aaaabbbbcccc", "mode": "--", "instructions": 27,
                 "source_lines": 95, "seconds": 0.004, "masks_elided": 4,
                 "bounds_checks_elided": 7, "sbox_index_folds": 3})
    clock.now += 1.0
    bus.publish("runner", "result",
                {"cipher": "RC4", "config": "4W", "cycles": 1000,
                 "instructions": 2500, "ipc": 2.5, "cached": False,
                 "slots.issued": 0.625, "slots.operand": 0.375})
    bus.publish("cache", "write", {"kind": "record", "key": "aaaabbbbcccc"})
    bus.publish("runner", "group-done",
                {"group": "RC4/encrypt:128B", "elapsed": 1.0, "busy": 0,
                 "done": 1, "total": 2})
    bus.publish("runner", "heartbeat",
                {"busy": 1, "done": 1, "total": 2, "elapsed": 1.5,
                 "eta_seconds": 1.5})
    bus.publish("runner", "stuck",
                {"group": "RC6/encrypt:128B", "quiet_seconds": 61.0})
    clock.now += 1.0
    bus.publish("runner", "result",
                {"cipher": "RC6", "config": "4W", "cycles": 3000,
                 "instructions": 6000, "ipc": 2.0, "cached": True,
                 "slots.issued": 0.5, "slots.operand": 0.5})
    bus.publish("runner", "group-done",
                {"group": "RC6/encrypt:128B", "elapsed": 1.0, "busy": 0,
                 "done": 2, "total": 2})
    bus.publish("profiler", "snapshot", {"timing": 1.25, "compile": 0.01})
    bus.publish("runner", "finish", {"done": 2, "total": 2, "elapsed": 2.5})
    bus.close()
    return path


def test_replay_equals_live_final_frame(tmp_path):
    """The acceptance bar: replayed frame == live frame, byte for byte."""
    path = synthetic_ledger(tmp_path / "events.jsonl")
    live = DashState()
    for event in load_ledger(path):      # a live dashboard consumes 1-by-1
        live.consume(event)
    replayed = build_state(load_ledger(path))
    assert render(replayed) == render(live)


def test_replay_of_cancelled_run_matches_partial_live_state(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    events = load_ledger(path)
    cut = events[:7]                     # "cancelled" mid-run
    live = DashState()
    for event in cut:
        live.consume(event)
    assert render(build_state(cut)) == render(live)
    assert not live.finished


def test_golden_frame_content(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    frame = render(build_state(load_ledger(path)))
    assert "run feedc0ffee01 -- finished" in frame
    assert "groups 2/2" in frame
    assert "experiments: 2 results (1 cached)" in frame
    assert "RC6        4W" in frame and "[cache]" in frame
    assert "issued" in frame and "operand" in frame
    assert "cache: 0 hit / 1 miss / 1 write" in frame
    assert "compile: 1 function(s), 4.0 ms codegen" in frame
    assert "masks elided 4" in frame
    assert "! stuck: RC6/encrypt:128B" in frame
    assert "profile: timing 1.25s, compile 0.01s" in frame
    # eta is suppressed once the run finished
    assert "eta" not in frame


def test_render_is_deterministic(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    events = load_ledger(path)
    assert render(build_state(events)) == render(build_state(events))


def test_cli_replay_once_prints_single_frame(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    stream = io.StringIO()
    assert dash.replay(str(path), once=True, stream=stream) == 0
    text = stream.getvalue()
    assert text.count("run feedc0ffee01") == 1
    assert "\x1b[" not in text           # no screen clearing with --once


def test_cli_selects_newest_run_by_default(tmp_path):
    path = tmp_path / "events.jsonl"
    for run_id in ("run-old-00001", "run-new-00002"):
        clock = FakeClock()
        bus = EventBus(run_id=run_id, clock=clock)
        bus.subscribe(JsonlSink(path))
        bus.publish("runner", "start", {"total_groups": 1})
        bus.publish("runner", "finish", {"done": 1, "total": 1})
        bus.close()
    stream = io.StringIO()
    dash.replay(str(path), once=True, stream=stream)
    assert "run-new-00002" in stream.getvalue()
    stream = io.StringIO()
    dash.replay(str(path), run_id="run-old", once=True, stream=stream)
    assert "run-old-00001" in stream.getvalue()


def test_cli_follow_once_renders_current_state(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    stream = io.StringIO()
    assert dash.follow(str(path), once=True, stream=stream) == 0
    assert "finished" in stream.getvalue()


def test_main_requires_a_mode(capsys):
    try:
        dash.main([])
    except SystemExit as error:
        assert error.code != 0
    else:  # pragma: no cover
        raise AssertionError("expected SystemExit")


def test_live_sweep_ledger_replays_identically(tmp_path):
    """End to end: a real runner sweep's ledger replays to the same frame
    an attached (in-process) dashboard saw live."""
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    live = DashState()
    bus.subscribe(JsonlSink(path))
    bus.subscribe(live.consume)          # "live" in-process dashboard
    runner = Runner(cache=ResultCache(tmp_path / "cache"), jobs=1,
                    bus=bus, heartbeat_interval=0)
    runner.run(experiment_grid(["RC4"], [FOURW], session_bytes=128))
    bus.close()
    assert live.finished and live.results == 1
    replayed = build_state(load_ledger(path))
    assert render(replayed) == render(live)


def test_cli_replay_once_survives_torn_last_line(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    intact = io.StringIO()
    dash.replay(str(path), once=True, stream=intact)
    text = path.read_text()
    path.write_text(text + text.splitlines()[-1][:30])
    torn = io.StringIO()
    assert dash.replay(str(path), once=True, stream=torn) == 0
    assert torn.getvalue() == intact.getvalue()


def test_cli_replay_malformed_line_is_a_clean_exit(tmp_path):
    path = synthetic_ledger(tmp_path / "events.jsonl")
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "garbage\n"
    path.write_text("".join(lines))
    with pytest.raises(SystemExit, match="events.jsonl:2"):
        dash.replay(str(path), once=True, stream=io.StringIO())
