"""The unified run ledger: one event bus for every subsystem.

Instrumented code reports through one channel.  :class:`EventBus` gives
the runner, the cache, compiled-backend and timing codegen, the lint and
analysis CLIs and the profiler one append-only, schema-validated stream
(``repro.obs.events/1``): every published event carries the bus's
per-invocation ``run_id``, a monotonic ``seq`` number and a timestamp in
seconds relative to the run start, so a recorded ledger replays
deterministically (``repro.tools.dash --replay``).

Event shape (one JSON object per JSONL line)::

    {"schema": "repro.obs.events/1",
     "run_id": "3f9c2a81d4b7",         # shared by every event of one run
     "seq": 17,                         # contiguous from 0, per run
     "ts": 0.0421,                      # seconds since the run started
     "source": "runner",                # publishing subsystem
     "type": "group-done",              # event kind within the source
     "data": {"group": "RC4[opt]/encrypt:1024B", ...}}  # str -> scalar

A *span event*, published when a phase of host work ends, carries its
``start`` (seconds on the bus clock, :meth:`EventBus.now`) and its
``seconds``, so the ledger says where a run's host seconds went.

Sinks are pluggable and may be attached to one bus simultaneously:

* :class:`JsonlSink` -- the on-disk ledger (``--events-out``), flushed
  per event so ``repro.tools.dash --follow`` can tail a live run;
* :class:`RingBufferSink` -- a bounded in-memory tail for in-process
  dashboards and tests;
* the views of :mod:`repro.obs.views` -- the metrics snapshot and the
  Perfetto trace -- and the runner's ``--progress`` line.

Deeply nested publishers (the compiled backend's and the timing
engine's codegen) cannot be handed a bus explicitly without threading it
through every caller; they use the process-global *active bus* instead
(:func:`set_active_bus` / :func:`publish_event`), managed by
:class:`repro.obs.Observability` for the lifetime of a CLI run -- the
same shape as the :mod:`logging` root logger.  Publishing is a cheap
no-op while no bus is active.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque

from repro.obs.schema import EVENTS_SCHEMA

#: Known event sources and their event types, documented for dashboard
#: and view authors (span events: :data:`repro.obs.views.SPANS`); the
#: schema deliberately does not pin this list (new sources must not
#: invalidate old ledgers).
KNOWN_SOURCES = {
    "runner": ("start", "dispatch", "group-done", "heartbeat", "stuck",
               "finish", "result", "cache-probe", "functional", "chunk",
               "timing", "parallel-fanout"),
    "report": ("full-report",),
    "cache": ("hit", "miss", "write"),
    "backend": ("compile", "cache-hit"),
    "timing": ("compile", "cache-hit", "untiered", "memo"),
    "lint": ("program",),
    "profiler": ("snapshot",),
    "diff": ("report",),
    "analysis": ("estimate",),
}

_SCALARS = (bool, int, float, str, type(None))


def new_run_id() -> str:
    """A fresh 12-hex run identifier (collision-safe per machine)."""
    return uuid.uuid4().hex[:12]


class EventBus:
    """Orders, stamps and fans one run's events out to attached sinks.

    Thread-safe: the runner's pool callbacks and heartbeat thread publish
    concurrently; ``seq`` and ``ts`` are assigned under one lock, so seq
    order and timestamp order always agree.
    """

    def __init__(self, run_id: str | None = None, clock=time.monotonic):
        self.run_id = run_id or new_run_id()
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._sinks: list = []
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since the run started, on the clock ``ts`` uses."""
        return self._clock() - self._epoch

    def subscribe(self, sink) -> "EventBus":
        """Attach a sink (any callable taking one event dict)."""
        self._sinks.append(sink)
        return self

    def publish(self, source: str, type: str, data: dict | None = None) -> dict:
        """Stamp and fan out one event; returns the published dict."""
        with self._lock:
            event = {
                "schema": EVENTS_SCHEMA,
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": round(self._clock() - self._epoch, 6),
                "source": source,
                "type": type,
                "data": {
                    key: value for key, value in (data or {}).items()
                    if isinstance(value, _SCALARS)
                },
            }
            self._seq += 1
            for sink in self._sinks:
                sink(event)
        return event

    def close(self) -> None:
        """Close every sink that supports closing (file handles)."""
        with self._lock:
            for sink in self._sinks:
                close = getattr(sink, "close", None)
                if callable(close):
                    close()
            self._sinks.clear()


class JsonlSink:
    """Appends each event as one JSON line; flushed so tails see it live."""

    def __init__(self, path):
        self.path = path
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def __call__(self, event: dict) -> None:
        if self._handle.closed:
            return
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class RingBufferSink:
    """Keeps the newest ``capacity`` events in memory (tests, dashboards)."""

    def __init__(self, capacity: int = 4096):
        self._events: deque = deque(maxlen=capacity)

    def __call__(self, event: dict) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[dict]:
        return list(self._events)


# -- the process-global active bus ----------------------------------------

_ACTIVE: EventBus | None = None
_ACTIVE_LOCK = threading.Lock()


def active_bus() -> EventBus | None:
    """The process-global bus deep subsystems publish to, if any."""
    return _ACTIVE


def set_active_bus(bus: EventBus | None) -> EventBus | None:
    """Install (or clear, with ``None``) the active bus; returns the old."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = bus
    return previous


def publish_event(source: str, type: str, data: dict | None = None) -> dict | None:
    """Publish to the active bus; a no-op returning None when none is set."""
    bus = _ACTIVE
    if bus is None:
        return None
    return bus.publish(source, type, data)


# -- reading a recorded ledger back ---------------------------------------

def load_ledger(path) -> list[dict]:
    """Parse a JSONL run ledger into its event dicts (blank lines skipped).

    A final line that lacks its newline and does not parse was cut
    mid-write; it is dropped, as ``dash --follow`` drops a partial
    trailing line, so every complete event is kept.  Any other malformed
    line raises :class:`ValueError` naming ``path:line``.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as error:
                # Only the final line of a file can lack its newline.
                if not line.endswith("\n"):
                    break
                raise ValueError(f"{path}:{number}: malformed ledger line "
                                 f"({error})") from None
    return events


def split_runs(events) -> list[tuple[str, list[dict]]]:
    """Group a ledger into per-run event lists, in first-seen order.

    A ledger file appended to across several invocations holds several
    runs; dashboards usually want the last one.
    """
    runs: dict[str, list[dict]] = {}
    for event in events:
        runs.setdefault(event.get("run_id", ""), []).append(event)
    return list(runs.items())
