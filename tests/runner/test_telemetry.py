"""Tests for the runner fleet monitor, progress reporter, and wiring."""

import io
import warnings
from collections import Counter

import pytest

from repro.isa import Features
from repro.obs import (
    EventBus,
    MetricsRegistry,
    MetricsView,
    Tracer,
    TraceView,
    validate_metrics,
)
from repro.runner import (
    Experiment,
    ExperimentOptions,
    FleetMonitor,
    ProgressReporter,
    ResultCache,
    Runner,
    experiment_grid,
)
from repro.runner.telemetry import _format_seconds
from repro.sim import DATAFLOW, FOURW


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fleet_bus(events):
    """A bus appending each runner event to ``events`` as one flat dict:
    its ``type`` beside its data."""
    bus = EventBus()
    bus.subscribe(lambda event: event["source"] == "runner" and events.append(
        {"type": event["type"], **event["data"]}))
    return bus


def make_monitor(events, clock, **kwargs):
    kwargs.setdefault("total_groups", 4)
    kwargs.setdefault("total_experiments", 8)
    kwargs.setdefault("interval", 0)  # heartbeats driven by the tests
    return FleetMonitor(bus=fleet_bus(events), clock=clock, **kwargs)


def test_dispatch_complete_accounting():
    events, clock = [], FakeClock()
    with make_monitor(events, clock, jobs=2) as monitor:
        monitor.dispatch("a")
        monitor.dispatch("b")
        monitor.dispatch("c")  # queued behind the 2 workers
        beat = monitor.heartbeat()
        assert beat["busy"] == 2 and beat["done"] == 0
        clock.advance(3.0)
        monitor.complete("b")
        clock.advance(1.0)
        monitor.complete("a")
    kinds = [event["type"] for event in events]
    assert kinds[0] == "start" and kinds[-1] == "finish"
    done = [event for event in events if event["type"] == "group-done"]
    assert [event["group"] for event in done] == ["b", "a"]
    assert done[0]["elapsed"] == 3.0
    assert done[1]["elapsed"] == 4.0
    assert done[1]["done"] == 2
    assert events[-1]["done"] == 2
    assert events[-1]["total"] == 4


def test_heartbeat_eta_extrapolates():
    events, clock = [], FakeClock()
    with make_monitor(events, clock) as monitor:
        for label in ("a", "b", "c", "d"):
            monitor.dispatch(label)
        clock.advance(10.0)
        monitor.complete("a")
        monitor.complete("b")
        beat = monitor.heartbeat()
    # 2 done in 10s -> 2 remaining need ~10 more seconds.
    assert beat["eta_seconds"] == 10.0
    assert beat["elapsed"] == 10.0
    first = events[1]
    assert first["type"] == "dispatch" and first["busy"] == 1


def test_stuck_watchdog_names_oldest_running_groups():
    events, clock = [], FakeClock()
    with make_monitor(events, clock, jobs=2, stuck_after=30.0) as monitor:
        monitor.dispatch("old")
        monitor.dispatch("younger")
        monitor.dispatch("queued")
        clock.advance(31.0)
        monitor.heartbeat()
        monitor.heartbeat()  # warned once, not repeated
        monitor.complete("old")
        clock.advance(5.0)
        monitor.heartbeat()  # progress happened: quiet period restarts
    stuck = [event for event in events if event["type"] == "stuck"]
    # Only the jobs=2 oldest dispatches can actually be running.
    assert [event["group"] for event in stuck] == ["old", "younger"]
    assert stuck[0]["quiet_seconds"] >= 30.0


def test_watchdog_feeds_metrics_and_tracer():
    metrics, tracer, clock = MetricsRegistry(), Tracer(), FakeClock()
    bus = EventBus()
    bus.subscribe(MetricsView(metrics))
    bus.subscribe(TraceView(tracer))
    monitor = FleetMonitor(total_groups=1, jobs=1, bus=bus, interval=0,
                           stuck_after=10.0, clock=clock)
    with monitor:
        monitor.dispatch("slow/encrypt:1024B")
        clock.advance(11.0)
        monitor.heartbeat()
    assert metrics.counter("runner.worker.stuck").value == 1
    assert metrics.gauge("runner.worker.busy").value == 0  # reset on close
    assert validate_metrics(metrics.snapshot()) == []
    names = {event["name"] for event in tracer.events}
    assert "stuck:slow/encrypt:1024B" in names
    assert "runner.worker.busy" in names


def test_requeue_all_keeps_inflight_and_suppresses_redispatch():
    events, clock = [], FakeClock()
    with make_monitor(events, clock, jobs=2) as monitor:
        monitor.dispatch("a")
        monitor.dispatch("b")
        clock.advance(5.0)
        monitor.requeue_all()
        assert monitor.heartbeat()["busy"] == 2  # still accounted
        monitor.dispatch("a")  # serial fallback re-walks the same groups
        monitor.dispatch("b")
        clock.advance(2.0)
        monitor.complete("a")
    # No duplicate dispatch events: the ledger looks like the pool path.
    kinds = [event["type"] for event in events]
    assert kinds.count("dispatch") == 2
    done = [event for event in events if event["type"] == "group-done"]
    # Timers restarted at requeue: elapsed measures the serial run only.
    assert done[0]["elapsed"] == 2.0


def test_requeue_all_resets_watchdog_and_rearms_warnings():
    events, clock = [], FakeClock()
    with make_monitor(events, clock, jobs=1, stuck_after=30.0) as monitor:
        monitor.dispatch("a")
        clock.advance(31.0)
        monitor.heartbeat()
        monitor.requeue_all()
        clock.advance(29.0)   # 60s total, but progress clock was reset
        monitor.heartbeat()
        clock.advance(2.0)    # now 31s past the requeue: warn again
        monitor.heartbeat()
        monitor.complete("a")
    stuck = [event for event in events if event["type"] == "stuck"]
    assert [event["group"] for event in stuck] == ["a", "a"]


def test_disabled_monitor_is_inert():
    monitor = FleetMonitor(total_groups=2, interval=0)
    assert not monitor.enabled
    with monitor:
        monitor.dispatch("a")
        monitor.complete("a")
    assert monitor.done == 1
    assert monitor._thread is None


def test_background_heartbeat_thread_runs():
    events = []
    monitor = FleetMonitor(total_groups=1, bus=fleet_bus(events),
                           interval=0.01, stuck_after=0)
    with monitor:
        monitor.dispatch("a")
        import time

        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if any(e["type"] == "heartbeat" for e in events):
                break
            time.sleep(0.01)
    assert any(event["type"] == "heartbeat" for event in events)


# -- the stock progress hook ----------------------------------------------

def progress_lines(events):
    """Feed fleet events, written flat, to the reporter as ledger events."""
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, label="test")
    for event in events:
        reporter({"source": "runner", "type": event["type"],
                  "data": {k: v for k, v in event.items() if k != "type"}})
    return stream.getvalue()


def test_progress_reporter_status_and_finish():
    text = progress_lines([
        {"type": "start", "total_groups": 3, "total_experiments": 6},
        {"type": "dispatch", "group": "a", "busy": 1, "done": 0, "total": 3},
        {"type": "heartbeat", "busy": 1, "done": 1, "total": 3,
         "elapsed": 4.0, "eta_seconds": 8.0},
        {"type": "finish", "done": 3, "total": 3, "elapsed": 12.0},
    ])
    assert "\r[test] 0/3 groups, 1 busy" in text
    assert "1/3 groups, 1 busy, elapsed 4s, eta ~8s" in text
    assert text.endswith("[test] 3/3 groups in 12s\n")


def test_progress_reporter_breaks_line_for_stuck_warning():
    text = progress_lines([
        {"type": "heartbeat", "busy": 1, "done": 0, "total": 1,
         "elapsed": 65.0, "eta_seconds": None},
        {"type": "stuck", "group": "IDEA/encrypt:4096B",
         "quiet_seconds": 65.0},
    ])
    assert "\n[test] worker quiet 1.1m: still running IDEA/encrypt:4096B\n" \
        in text


def test_format_seconds_units():
    assert _format_seconds(42.4) == "42s"
    assert _format_seconds(90.0) == "1.5m"
    assert _format_seconds(5400.0) == "1.5h"


# -- integration with the runner ------------------------------------------

#: The fleet monitor's event types (a runner also publishes results and
#: span events on the same bus).
FLEET_TYPES = ("start", "dispatch", "group-done", "heartbeat", "stuck",
               "finish")

def grid():
    return experiment_grid(["RC4", "RC6"], [FOURW, DATAFLOW],
                           session_bytes=128)


def test_serial_runner_emits_full_telemetry(tmp_path):
    """Acceptance: the --jobs 1 path reports heartbeat telemetry too."""
    events = []
    metrics = MetricsRegistry()
    bus = fleet_bus(events)
    bus.subscribe(MetricsView(metrics))
    runner = Runner(cache=ResultCache(tmp_path / "cache"), jobs=1, bus=bus,
                    heartbeat_interval=0.005)
    runner.run(grid())
    events = [event for event in events if event["type"] in FLEET_TYPES]
    kinds = [event["type"] for event in events]
    assert kinds[0] == "start"
    assert kinds[-1] == "finish"
    assert kinds.count("dispatch") == 2  # one per (cipher) group
    assert kinds.count("group-done") == 2
    assert events[0]["total_experiments"] == 4
    labels = {e["group"] for e in events if e["type"] == "dispatch"}
    assert labels == {"RC4[orig-rot]/encrypt:128B",
                      "RC6[orig-rot]/encrypt:128B"}
    assert metrics.histogram("runner.group.seconds")._value_fields()[
        "count"] == 2
    assert metrics.histogram(
        "runner.experiment.seconds", {"cipher": "RC4", "config": "4W"}
    )._value_fields()["count"] == 1
    assert validate_metrics(metrics.snapshot()) == []


def test_parallel_runner_emits_same_group_events(tmp_path):
    """jobs>1 (or its serial fallback) must produce the same accounting."""
    events = []
    runner = Runner(cache=ResultCache.disabled(), jobs=2,
                    bus=fleet_bus(events), heartbeat_interval=0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runner.run(grid())
    kinds = [event["type"] for event in events if event["type"] in FLEET_TYPES]
    assert kinds.count("group-done") == 2
    assert kinds[-1] == "finish"
    (finish,) = [event for event in events if event["type"] == "finish"]
    assert finish["done"] == 2


def test_cached_run_emits_no_phantom_telemetry(tmp_path):
    cold = Runner(cache=ResultCache(tmp_path / "cache"), jobs=1)
    cold.run(grid())
    events = []
    warm = Runner(cache=ResultCache(tmp_path / "cache"), jobs=1,
                  bus=fleet_bus(events), heartbeat_interval=0)
    warm.run(grid())
    # Fully cached: nothing executes, so no busy workers are invented.
    assert [event["type"] for event in events
            if event["type"] in FLEET_TYPES] == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_group_labels_are_unique_within_a_batch(jobs):
    """Three groups that differ only in feature level are each dispatched
    and done once under their own label, serially and in the pool."""
    events = []
    runner = Runner(cache=ResultCache.disabled(), jobs=jobs,
                    bus=fleet_bus(events), heartbeat_interval=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runner.run([Experiment(ExperimentOptions(
            cipher="RC6", features=level, session_bytes=64), FOURW)
            for level in (Features.NOROT, Features.ROT, Features.OPT)])
    labels = {f"RC6[{level}]/encrypt:64B": 1
              for level in ("orig-norot", "orig-rot", "opt")}
    assert Counter(event["group"] for event in events
                   if event["type"] == "dispatch") == labels
    assert Counter(event["group"] for event in events
                   if event["type"] == "group-done") == labels


def test_group_labels_tell_same_named_groups_apart():
    base = ExperimentOptions(cipher="RC6", session_bytes=64)
    groups = [base, base.with_(key=bytes(16)), base.with_(plaintext=bytes(64)),
              base.with_(features=Features.OPT)]
    assert list(Runner._group_labels(groups).values()) == [
        "RC6[orig-rot]/encrypt:64B", "RC6[orig-rot]/encrypt:64B#2",
        "RC6[orig-rot]/encrypt:64B#3", "RC6[opt]/encrypt:64B"]


def test_pool_workers_publish_into_the_parent_ledger(tmp_path):
    """A forked worker's codegen events reach the parent's ledger through
    the parent -- not through the inherited ledger file -- so the ledger
    stays valid and holds exactly one ``backend/compile`` per program."""
    from repro.obs import (
        JsonlSink,
        load_ledger,
        set_active_bus,
        validate_event_ledger,
    )
    from repro.sim.backends import compiled

    compiled.CODE.clear()
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    bus.subscribe(JsonlSink(path))
    experiments = [
        Experiment(ExperimentOptions(cipher=cipher, features=Features.OPT,
                                     session_bytes=64), FOURW)
        for cipher in ("RC6", "Blowfish", "RC4")]
    previous = set_active_bus(bus)
    try:
        Runner(cache=ResultCache.disabled(), jobs=2, backend="compiled",
               bus=bus).run(experiments)
    finally:
        set_active_bus(previous)
        bus.close()
    ledger = load_ledger(path)
    assert validate_event_ledger(ledger) == []
    kinds = Counter((event["source"], event["type"]) for event in ledger)
    assert kinds[("runner", "parallel-fanout")] == 1
    compiles = Counter(event["data"]["digest"] for event in ledger
                       if event["type"] == "compile")
    assert len(compiles) >= 3 and set(compiles.values()) == {1}
    assert compiled.CODE.reports() == []  # all codegen ran in workers


# -- ledger equivalence: serial vs the parallel fallback --------------------

def ledger_shape(events):
    """Timestamp-free view of a run ledger: source, type, group label."""
    return [(event["source"], event["type"], event["data"].get("group"))
            for event in events]


def run_with_ledger(jobs):
    from repro.obs import EventBus, RingBufferSink

    bus = EventBus()
    sink = RingBufferSink()
    bus.subscribe(sink)
    runner = Runner(cache=ResultCache.disabled(), jobs=jobs, bus=bus,
                    heartbeat_interval=0)
    runner.run(grid())
    return sink.events


def test_pool_creation_failure_ledger_matches_serial(monkeypatch):
    """jobs=1 and a jobs=2 run whose pool never starts must write the
    same event sequence (modulo run_id and timestamps)."""
    import concurrent.futures
    import warnings

    serial = run_with_ledger(jobs=1)

    def no_pool(*args, **kwargs):
        raise OSError("pools forbidden in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fallback = run_with_ledger(jobs=2)
    assert ledger_shape(fallback) == ledger_shape(serial)
    from repro.obs import validate_event_ledger
    assert validate_event_ledger(fallback) == []


def test_pool_death_after_dispatch_ledger_matches_serial(monkeypatch):
    """A pool that dies mid-fanout leaves already-dispatched groups
    accounted; the serial fallback's redispatches are suppressed, so the
    ledger still shows each group dispatched exactly once."""
    import concurrent.futures
    import warnings

    serial = run_with_ledger(jobs=1)

    class DyingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, *args, **kwargs):
            raise OSError("worker died")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        DyingPool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fallback = run_with_ledger(jobs=2)
    assert ledger_shape(fallback) == ledger_shape(serial)
    # The result payloads agree too (timestamps and wall time aside).
    def result_data(events):
        return [
            {key: value for key, value in event["data"].items()
             if key != "wall_time"}
            for event in events if event["type"] == "result"
        ]
    assert result_data(fallback) == result_data(serial)
