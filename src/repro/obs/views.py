"""Metrics snapshots and Perfetto traces as views of the run ledger.

Instrumented code reports to one channel, the session's
:class:`~repro.obs.events.EventBus`.  The two sinks here fold its events
into the documents ``--metrics-out`` and ``--trace-out`` write, so this
is the one module that knows the metric catalogue --
:meth:`MetricsView.__call__` names the event each instrument folds from
(tabulated in ``docs/observability.md``) -- and the trace layout.

The trace view makes span events (:data:`SPANS`) complete slices, the
``busy`` field of the runner's fleet events ``runner.worker.busy``
counter samples, and ``stuck`` events instants, all on the bus clock.
Two inputs are not events and go into the trace document directly: the
profiler's counter track and the simulated-cycle pipeline timeline of
``repro.tools.obs --pipeline``.
"""

from __future__ import annotations

from importlib import import_module

from repro.obs.events import KNOWN_SOURCES

#: Span events: ``(source, type)`` -> (Perfetto category, slice name
#: formatted from the data).  A slice's args are the data other than
#: ``start`` and ``seconds``.
SPANS = {
    ("runner", "cache-probe"): ("cache", "cache-probe"),
    ("runner", "functional"): ("functional", "functional:{cipher}"),
    ("runner", "chunk"): ("stream", "chunk:{label}"),
    ("runner", "timing"): ("timing", "timing:{label}:{config}"),
    ("runner", "parallel-fanout"): ("timing", "parallel-fanout"),
    ("report", "full-report"): ("runner", "full-report"),
}

#: Codegen ledger sources: (metric family, the module whose ``CODE``
#: cache publishes them).  The dashboard folds the same table.
CODEGEN = {
    "backend": ("compile", "repro.sim.backends.compiled"),
    "timing": ("timing", "repro.sim.timing.specialized"),
}

#: Codegen event types -> the counter each event adds one to.  Every
#: other counter of a family sums the optimization counts the events
#: carry.
_COUNTS = {"compile": "programs", "cache-hit": "source_cache_hits",
           "untiered": "pipelines_untiered"}
#: The ``timing``/``memo`` event's counts, each summed into
#: ``timing.memo_<name>``.
_MEMO_COUNTS = ("iterations", "hits", "entries", "served", "keys")


class MetricsView:
    """Bus sink folding ledger events into a metrics registry."""

    def __init__(self, registry):
        self.registry = registry
        #: Codegen family -> the optimization counters its events carry.
        self._families: dict[str, tuple[str, ...]] = {}

    def __call__(self, event: dict) -> None:
        source, type_, data = event["source"], event["type"], event["data"]
        counter = self.registry.counter
        histogram = self.registry.histogram
        gauge = self.registry.gauge
        counter("events.published", {"source": source, "type": type_}).inc()
        if source == "runner" and "busy" in data:
            gauge("runner.worker.busy").set(data["busy"])
        if source in CODEGEN and type_ in _COUNTS:
            self._codegen(source, _COUNTS[type_], data)
        elif source == "runner" and type_ == "timing":
            labels = {"config": data["config"]}
            counter("sim.runs", labels).inc()
            for name in ("instructions", "cycles", "issue_slots"):
                counter(f"sim.{name}", labels).inc(data[name])
            for key, slots in data.items():
                if key.startswith("stall_slots."):
                    counter("sim.stall_slots", {
                        **labels, "category": key[len("stall_slots."):],
                    }).inc(slots)
            if data["cipher"] is not None:  # a group, not Runner.simulate
                histogram("runner.timing.seconds", {
                    "cipher": data["cipher"], **labels,
                }).observe(data["seconds"])
            gauge("runner.peak_trace_bytes").set(data["peak_trace_bytes"])
        elif source == "timing" and type_ == "memo":
            counter("timing.memo_pipelines").inc()
            counter("timing.memo_kept").inc(int(data["kept"]))
            for name in _MEMO_COUNTS:
                counter(f"timing.memo_{name}").inc(data[name])
        elif source == "runner" and type_ == "functional":
            counter("runner.functional_runs").inc()
            histogram("runner.functional.seconds",
                      {"cipher": data["cipher"]}).observe(data["seconds"])
        elif source == "runner" and type_ == "cache-probe":
            counter("runner.cache.hits").inc(data["hits"])
            counter("runner.cache.misses").inc(data["misses"])
        elif source == "runner" and type_ == "result":
            if not data["cached"]:
                histogram("runner.experiment.seconds", {
                    "cipher": data["cipher"], "config": data["config"],
                }).observe(data["wall_time"])
        elif source == "runner" and type_ == "group-done":
            histogram("runner.group.seconds").observe(data["elapsed"])
        elif source == "runner" and type_ == "stuck":
            counter("runner.worker.stuck").inc()
        elif source == "profiler" and type_ == "snapshot":
            for key, count in data.items():
                if key.startswith("samples."):
                    counter("profiler.samples",
                            {"subsystem": key[len("samples."):]}).inc(count)
            for name in ("hz", "wall_seconds", "overhead_seconds"):
                gauge(f"profiler.{name}").set(data[name])
        elif source == "lint" and type_ == "program":
            counter("lint.programs").inc()
            for key, count in data.items():
                if key.startswith("diagnostics."):
                    checker, _, severity = key[len("diagnostics."):] \
                        .rpartition(".")
                    counter("lint.diagnostics", {
                        "checker": checker, "severity": severity,
                    }).inc(count)
        elif source == "analysis" and type_ == "estimate":
            labels = {"config": data["config"]}
            counter("analysis.estimates", labels).inc()
            gauge("analysis.gap", {**labels, "program": data["program"]}) \
                .set(data["gap"])
            if data.get("sound") is False:
                counter("analysis.unsound").inc()

    def _codegen(self, source: str, counter: str, data: dict) -> None:
        registry = self.registry
        family, module = CODEGEN[source]
        keys = self._families.get(family)
        if keys is None:
            # The whole family appears with its first event, zeros too.
            # Imported here: a codegen event means its module is loaded.
            keys = self._families[family] = \
                import_module(module).CODE.counter_keys
            for name in (*(_COUNTS[type_] for type_ in KNOWN_SOURCES[source]
                           if type_ in _COUNTS), *keys):
                registry.counter(f"{family}.{name}")
            registry.gauge(f"{family}.wall_seconds")
        registry.counter(f"{family}.{counter}").inc()
        for key in keys:
            registry.counter(f"{family}.{key}").inc(data.get(key, 0))
        registry.gauge(f"{family}.wall_seconds").add(data.get("seconds", 0))


class TraceView:
    """Bus sink turning ledger events into a Perfetto trace document."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, event: dict) -> None:
        source, data = event["source"], event["data"]
        span = SPANS.get((source, event["type"]))
        common = {"pid": self.tracer.pid, "tid": 0}
        if span is not None:
            category, name = span
            self.tracer.add_event({
                "name": name.format(**data), "cat": category, "ph": "X",
                "ts": data["start"] * 1e6, "dur": data["seconds"] * 1e6,
                **common, "args": {key: value for key, value in data.items()
                                   if key not in ("start", "seconds")},
            })
        elif source == "runner" and event["type"] == "stuck":
            self.tracer.add_event({
                "name": f"stuck:{data['group']}", "cat": "runner",
                "ph": "i", "s": "t", "ts": event["ts"] * 1e6, **common,
                "args": {"quiet_seconds": data["quiet_seconds"]},
            })
        elif source == "runner" and "busy" in data:
            self.tracer.add_event({
                "name": "runner.worker.busy", "cat": "metrics", "ph": "C",
                "ts": event["ts"] * 1e6, **common,
                "args": {"busy": data["busy"]},
            })
