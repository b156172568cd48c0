"""Live runner-fleet telemetry: heartbeats, progress/ETA, stuck watchdog.

The experiment runner executes work in *groups* (one functional run plus
its timing configs).  :class:`FleetMonitor` tracks every group from
dispatch to completion -- identically for the serial ``--jobs 1`` path
and the multiprocessing fan-out -- and periodically emits heartbeat
events carrying busy-worker counts, completion counts, and an ETA.

Sinks (all optional, all fed from the same account):

* an event ``hook`` -- any callable taking one event dict;
  :class:`ProgressReporter` is the stock hook behind the CLI tools'
  ``--progress`` flag (a live ``\\r``-refreshed status line on stderr);
* a :class:`repro.obs.MetricsRegistry` -- ``runner.worker.busy`` gauge,
  ``runner.group.seconds`` histogram, ``runner.worker.stuck`` counter;
* a :class:`repro.obs.Tracer` -- ``runner.worker.busy`` counter samples
  plus an instant event naming each stuck experiment;
* a :class:`repro.obs.EventBus` -- every event below published to the
  unified run ledger as ``source="runner"`` (``--events-out`` /
  ``repro.tools.dash``).

Event dicts (``type`` selects the shape)::

    {"type": "start",      "total_groups": N, "total_experiments": M}
    {"type": "dispatch",   "group": label}
    {"type": "group-done", "group": label, "elapsed": seconds}
    {"type": "heartbeat",  "busy": B, "done": D, "total": N,
                           "elapsed": seconds, "eta_seconds": T | None}
    {"type": "stuck",      "group": label, "quiet_seconds": seconds}
    {"type": "finish",     "done": D, "total": N, "elapsed": seconds}

The watchdog names the *offending experiment*: when no group has
completed for ``stuck_after`` seconds, the oldest groups that can
actually be running (at most ``jobs`` of them -- later dispatches are
still queued) are reported, once each.
"""

from __future__ import annotations

import sys
import threading
import time

#: Heartbeat cadence (seconds) and quiet period before a group is called
#: stuck.  Both are configurable per :class:`repro.runner.Runner`.
DEFAULT_HEARTBEAT_INTERVAL = 1.0
DEFAULT_STUCK_AFTER = 60.0


class FleetMonitor:
    """Tracks in-flight experiment groups and emits heartbeat telemetry.

    Thread-safe: ``dispatch``/``complete`` may be called from pool result
    callbacks while the heartbeat thread reads the account.  Inert (no
    thread, near-zero cost) when it has no sink.
    """

    def __init__(
        self,
        *,
        total_groups: int = 0,
        total_experiments: int = 0,
        jobs: int = 1,
        hook=None,
        metrics=None,
        tracer=None,
        bus=None,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stuck_after: float = DEFAULT_STUCK_AFTER,
        clock=time.monotonic,
    ):
        self.total_groups = total_groups
        self.total_experiments = total_experiments
        self.jobs = max(1, int(jobs))
        self.hook = hook
        self.metrics = metrics
        self.tracer = tracer
        self.bus = bus
        self.interval = interval
        self.stuck_after = stuck_after
        self._clock = clock
        self._lock = threading.Lock()
        #: label -> dispatch timestamp, insertion-ordered (dispatch order).
        self._inflight: dict[str, float] = {}
        self._warned: set[str] = set()
        self.done = 0
        self._started_at: float | None = None
        self._last_progress: float | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def enabled(self) -> bool:
        return (self.hook is not None or self.metrics is not None
                or self.tracer is not None or self.bus is not None)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FleetMonitor":
        self._started_at = self._clock()
        self._last_progress = self._started_at
        if not self.enabled:
            return self
        self._emit({
            "type": "start",
            "total_groups": self.total_groups,
            "total_experiments": self.total_experiments,
        })
        self._publish_busy(0)
        if self.interval > 0:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-fleet-monitor",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        if not self.enabled or self._started_at is None:
            return
        self._publish_busy(0)
        self._emit({
            "type": "finish",
            "done": self.done,
            "total": self.total_groups,
            "elapsed": self._clock() - self._started_at,
        })

    def __enter__(self) -> "FleetMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- group accounting --------------------------------------------------

    def dispatch(self, label: str) -> None:
        """Account one group dispatch.

        Idempotent for labels already in flight: the serial fallback
        walks groups the failed pool already dispatched, and those must
        not appear twice in the event ledger (see :meth:`requeue_all`).
        """
        now = self._clock()
        with self._lock:
            if label in self._inflight:
                return
            self._inflight[label] = now
            busy = min(len(self._inflight), self.jobs)
        if self.enabled:
            self._emit({"type": "dispatch", "group": label,
                        "busy": busy, "done": self.done,
                        "total": self.total_groups})
            self._publish_busy(busy)

    def complete(self, label: str) -> None:
        now = self._clock()
        with self._lock:
            dispatched = self._inflight.pop(label, now)
            self._warned.discard(label)
            self.done += 1
            done = self.done
            self._last_progress = now
            busy = min(len(self._inflight), self.jobs)
        if not self.enabled:
            return
        elapsed = now - dispatched
        self._emit({"type": "group-done", "group": label,
                    "elapsed": elapsed, "busy": busy, "done": done,
                    "total": self.total_groups})
        self._publish_busy(busy)
        if self.metrics is not None:
            self.metrics.histogram("runner.group.seconds").observe(elapsed)

    def abandon_all(self) -> None:
        """Forget every in-flight dispatch (parallel-fallback recovery).

        The serial fallback re-dispatches the same groups, so abandoned
        entries must not linger as phantom busy workers or double-count
        completions.
        """
        with self._lock:
            self._inflight.clear()
            self._warned.clear()
        if self.enabled:
            self._publish_busy(0)

    def requeue_all(self) -> None:
        """Re-time every in-flight dispatch (parallel-fallback recovery).

        When the pool dies, the groups it did not finish stay *accounted*
        as dispatched -- the serial fallback will run exactly those
        groups, and its :meth:`dispatch` calls are idempotent, so the
        ledger shows each group dispatched once, like the pool path.  Their timers restart
        here so ``group-done`` elapsed times measure the serial run, and
        the progress clock resets so the watchdog does not immediately
        call the first serial group stuck after a slow pool failure.
        Emits nothing: no work completed, none was forgotten.
        """
        now = self._clock()
        with self._lock:
            for label in self._inflight:
                self._inflight[label] = now
            self._warned.clear()
            self._last_progress = now

    # -- heartbeats and the stuck watchdog ---------------------------------

    def heartbeat(self) -> dict:
        """Emit (and return) one heartbeat event; runs the watchdog."""
        now = self._clock()
        with self._lock:
            busy = min(len(self._inflight), self.jobs)
            done = self.done
            # Only the oldest `jobs` dispatches can actually be running;
            # anything younger is still queued behind them.
            running = list(self._inflight.items())[:self.jobs]
            quiet_since = self._last_progress or now
        elapsed = now - (self._started_at or now)
        eta = None
        remaining = self.total_groups - done
        if done and remaining > 0 and elapsed > 0:
            eta = remaining * (elapsed / done)
        event = {
            "type": "heartbeat", "busy": busy, "done": done,
            "total": self.total_groups, "elapsed": elapsed,
            "eta_seconds": eta,
        }
        self._emit(event)
        self._publish_busy(busy)
        if self.stuck_after > 0 and now - quiet_since >= self.stuck_after:
            for label, dispatched in running:
                if label in self._warned:
                    continue
                self._warned.add(label)
                quiet = now - max(dispatched, quiet_since)
                self._emit({"type": "stuck", "group": label,
                            "quiet_seconds": quiet})
                if self.metrics is not None:
                    self.metrics.counter("runner.worker.stuck").inc()
                if self.tracer is not None:
                    self.tracer.instant(
                        f"stuck:{label}", "runner",
                        {"quiet_seconds": quiet},
                    )
        return event

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.heartbeat()

    # -- sinks -------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if self.hook is not None:
            self.hook(event)
        if self.bus is not None:
            data = {key: value for key, value in event.items()
                    if key != "type"}
            self.bus.publish("runner", event["type"], data)

    def _publish_busy(self, busy: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("runner.worker.busy").set(busy)
        if self.tracer is not None:
            self.tracer.counter("runner.worker.busy", {"busy": busy})


def _format_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressReporter:
    """Stock heartbeat hook: a live progress/ETA line for humans.

    Rewrites one status line in place (``\\r``) on heartbeats and
    completions, breaks the line for stuck-worker warnings so they stay
    visible, and finishes with a newline-terminated summary.
    """

    def __init__(self, stream=None, label: str = "runner"):
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._line_open = False

    def __call__(self, event: dict) -> None:
        kind = event.get("type")
        if kind in ("heartbeat", "group-done", "dispatch"):
            self._status(event)
        elif kind == "stuck":
            self._break_line()
            print(
                f"[{self.label}] worker quiet "
                f"{_format_seconds(event['quiet_seconds'])}: "
                f"still running {event['group']}",
                file=self.stream, flush=True,
            )
        elif kind == "finish":
            self._break_line()
            print(
                f"[{self.label}] {event['done']}/{event['total']} groups "
                f"in {_format_seconds(event['elapsed'])}",
                file=self.stream, flush=True,
            )

    def _status(self, event: dict) -> None:
        done = event.get("done")
        if done is None:
            return
        text = (f"[{self.label}] {done}/{event['total']} groups, "
                f"{event.get('busy', 0)} busy")
        if event.get("type") == "heartbeat":
            eta = event.get("eta_seconds")
            if event.get("elapsed") is not None:
                text += f", elapsed {_format_seconds(event['elapsed'])}"
            if eta:
                text += f", eta ~{_format_seconds(eta)}"
        print(f"\r{text}", end="", file=self.stream, flush=True)
        self._line_open = True

    def _break_line(self) -> None:
        if self._line_open:
            print(file=self.stream)
            self._line_open = False
