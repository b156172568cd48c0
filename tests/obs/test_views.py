"""The metrics and trace views agree with the numbers they summarize."""

import math
from collections import Counter

from repro.isa import Features
from repro.obs import (
    EventBus,
    MetricsRegistry,
    MetricsView,
    RingBufferSink,
    Tracer,
    TraceView,
    validate_event_ledger,
    validate_metrics,
    validate_trace_events,
)
from repro.runner import Experiment, ExperimentOptions, ResultCache, Runner
from repro.sim import DATAFLOW, FOURW, FOURW_PLUS

CHUNK_SIZE = 256


def counter_values(snapshot, name):
    """``{labels: value}`` of every instrument called ``name``."""
    return {tuple(sorted(metric["labels"].items())): metric["value"]
            for metric in snapshot["metrics"] if metric["name"] == name}


def test_views_agree_with_runner_stats_and_results():
    """RC6 OPT on 4W, 4W+ and DF plus RC4 OPT on 4W and 4W+: five results
    from four pipelines, since RC4's 4W+ cell shares the 4W pipeline."""
    bus, ledger = EventBus(), RingBufferSink()
    metrics, tracer = MetricsRegistry(), Tracer()
    for sink in (ledger, MetricsView(metrics), TraceView(tracer)):
        bus.subscribe(sink)
    runner = Runner(cache=ResultCache.disabled(), bus=bus,
                    chunk_size=CHUNK_SIZE, heartbeat_interval=0)

    def opt(cipher):
        return ExperimentOptions(cipher=cipher, features=Features.OPT,
                                 session_bytes=64)

    experiments = [Experiment(opt("RC6"), config)
                   for config in (FOURW, FOURW_PLUS, DATAFLOW)]
    experiments += [Experiment(opt("RC4"), config)
                    for config in (FOURW, FOURW_PLUS)]
    results = runner.run(experiments)
    events = ledger.events
    shared = {(event["data"]["cipher"], event["data"]["config"])
              for event in events
              if event["type"] == "result" and "shared_with" in event["data"]}
    assert shared == {("RC4", "4W+")}
    leaders = [result for result in results
               if (result.cipher, result.config_name) not in shared]
    assert (len(results), len(leaders)) == (5, runner.stats.timing_runs) \
        == (5, 4)

    snapshot = metrics.snapshot()
    cycles, slots = Counter(), Counter()
    for result in leaders:
        config = result.config_name
        cycles[(("config", config),)] += result.stats.cycles
        for category, count in result.stats.stall_slots.items():
            if count:
                slots[(("category", category), ("config", config))] += count
    assert counter_values(snapshot, "sim.cycles") == cycles
    assert counter_values(snapshot, "sim.stall_slots") == slots
    assert sum(counter_values(snapshot, "sim.runs").values()) \
        == runner.stats.timing_runs
    assert metrics.counter("runner.functional_runs").value \
        == runner.stats.functional_runs == 2
    experiment_seconds = [
        metric["count"] for metric in snapshot["metrics"]
        if metric["name"] == "runner.experiment.seconds"]
    assert sum(experiment_seconds) == sum(
        not result.cached for result in results) == 5

    document = tracer.to_chrome()
    slices = Counter(event["name"] for event in document["traceEvents"]
                     if event["ph"] == "X")
    assert {name: count for name, count in slices.items()
            if name.startswith("timing:")} == {
        f"timing:{result.cipher}:{result.config_name}": 1
        for result in leaders}
    chunks = {cipher: math.ceil(next(r.instructions for r in results
                                     if r.cipher == cipher) / CHUNK_SIZE)
              for cipher in ("RC6", "RC4")}
    assert slices["chunk:RC6"] == chunks["RC6"] > 1
    assert slices["chunk:RC4"] == chunks["RC4"] > 1
    assert sum(event["type"] == "chunk" for event in events) \
        == sum(chunks.values())

    assert validate_metrics(snapshot) == []
    assert validate_trace_events(document) == []
    assert validate_event_ledger(events) == []
