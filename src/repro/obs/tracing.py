"""A Chrome/Perfetto trace-event document.

A :class:`Tracer` holds trace events -- complete slices (``ph: "X"``),
instants (``ph: "i"``), counter samples (``ph: "C"``) -- in the Chrome
trace-event format, the JSON dialect both ``chrome://tracing`` and
Perfetto's https://ui.perfetto.dev load directly, and writes them out.
It records nothing by itself: the trace view of the run ledger
(:class:`repro.obs.views.TraceView`) fills it from the session's events,
and synthetic timelines (the pipeline schedule, where one cycle is
mapped to one microsecond; the profiler's counter track) inject events
with explicit timestamps via :meth:`Tracer.add_events`.

Two sink formats, chosen by file suffix in :meth:`Tracer.write`:

* ``*.jsonl`` -- one event object per line (streaming-friendly), plus a
  leading metadata line;
* anything else -- a Chrome JSON object ``{"traceEvents": [...]}``.
"""

from __future__ import annotations

import json
import os
import threading
import time


class Tracer:
    """Collects trace events and exports them as one trace document."""

    def __init__(self, clock=time.perf_counter, pid: int | None = None):
        self._clock = clock
        self._start = clock()
        self.pid = os.getpid() if pid is None else pid
        self.events: list[dict] = []
        self._lock = threading.Lock()

    # -- time ------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since tracer creation."""
        return (self._clock() - self._start) * 1e6

    # -- events ----------------------------------------------------------

    def add_event(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    def add_events(self, events) -> None:
        with self._lock:
            self.events.extend(events)

    # -- export ----------------------------------------------------------

    def to_chrome(self) -> dict:
        """The ``{"traceEvents": [...]}`` document Perfetto loads."""
        with self._lock:
            events = list(self.events)
        events.sort(key=lambda event: event.get("ts", 0))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        path = os.fspath(path)
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)
            handle.write("\n")

    def write_jsonl(self, path) -> None:
        document = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            for event in document["traceEvents"]:
                handle.write(json.dumps(event))
                handle.write("\n")
