"""Structured span/event tracer with Chrome/Perfetto trace-event export.

The tracer records *complete* spans (``ph: "X"``), instant events
(``ph: "i"``) and counter samples (``ph: "C"``) in the Chrome trace-event
format, the JSON dialect both ``chrome://tracing`` and Perfetto's
https://ui.perfetto.dev load directly.  Timestamps are microseconds from
tracer creation; synthetic timelines (the pipeline schedule, where one
cycle is mapped to one microsecond) inject events with explicit
timestamps via :meth:`Tracer.add_events`.

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
from contextlib import contextmanager


class Tracer:
    """Collects trace events; cheap enough to leave enabled in CLIs."""

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

    # -- recording -------------------------------------------------------

    def add_event(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    def add_events(self, events) -> None:
        with self._lock:
            self.events.extend(events)

    @contextmanager
    def span(self, name: str, category: str = "runner",
             args: dict | None = None, tid: int = 0):
        """Record a complete event around the ``with`` body.

        Yields the mutable ``args`` dict so the body can attach results
        (counts, cache outcomes) that are only known at exit.
        """
        args = dict(args or {})
        start = self.now_us()
        try:
            yield args
        finally:
            self.complete(name, category, start, self.now_us() - start,
                          args, tid)

    def complete(self, name: str, category: str, ts: float, dur: float,
                 args: dict | None = None, tid: int = 0) -> None:
        """Record a complete event the caller timed (``ts``/``dur`` in
        microseconds), e.g. one phase's share of interleaved work."""
        self.add_event({
            "name": name, "cat": category, "ph": "X", "ts": ts, "dur": dur,
            "pid": self.pid, "tid": tid, "args": dict(args or {}),
        })

    def instant(self, name: str, category: str = "runner",
                args: dict | None = None, tid: int = 0) -> None:
        self.add_event({
            "name": name, "cat": category, "ph": "i", "s": "t",
            "ts": self.now_us(), "pid": self.pid, "tid": tid,
            "args": dict(args or {}),
        })

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        """A Perfetto counter-track sample (stacked series per key)."""
        self.add_event({
            "name": name, "cat": "metrics", "ph": "C",
            "ts": self.now_us(), "pid": self.pid, "tid": tid,
            "args": dict(values),
        })

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
