"""Live runner-fleet telemetry: heartbeats, progress/ETA, stuck watchdog.

The experiment runner executes work in *groups* (one functional run plus
its timing configs).  :class:`FleetMonitor` tracks every group from
dispatch to completion -- identically for the serial ``--jobs 1`` path
and the multiprocessing fan-out -- and periodically emits heartbeat
events carrying busy-worker counts, completion counts, and an ETA.

Every event is published to one :class:`repro.obs.EventBus` as
``source="runner"``: the run ledger.  The ``--progress`` line
(:class:`ProgressReporter`), the metrics snapshot and the Perfetto trace
(:mod:`repro.obs.views`) are sinks on that bus.

Event data (the ledger event's ``type`` selects the shape)::

    start       {"total_groups": N, "total_experiments": M, "busy": 0}
    dispatch    {"group": label, "busy": B, "done": D, "total": N}
    group-done  {"group": label, "elapsed": seconds, "busy": B,
                 "done": D, "total": N}
    heartbeat   {"busy": B, "done": D, "total": N, "elapsed": seconds,
                 "eta_seconds": T | None}
    stuck       {"group": label, "quiet_seconds": seconds}
    finish      {"done": D, "total": N, "elapsed": seconds, "busy": 0}

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
    thread, near-zero cost) without a bus.
    """

    def __init__(
        self,
        *,
        total_groups: int = 0,
        total_experiments: int = 0,
        jobs: int = 1,
        bus=None,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stuck_after: float = DEFAULT_STUCK_AFTER,
        clock=time.monotonic,
    ):
        self.total_groups = total_groups
        self.total_experiments = total_experiments
        self.jobs = max(1, int(jobs))
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
        return self.bus is not None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FleetMonitor":
        self._started_at = self._clock()
        self._last_progress = self._started_at
        if not self.enabled:
            return self
        self._emit("start", total_groups=self.total_groups,
                   total_experiments=self.total_experiments, busy=0)
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
        self._emit("finish", done=self.done, total=self.total_groups,
                   elapsed=self._clock() - self._started_at, busy=0)

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
        self._emit("dispatch", group=label, busy=busy, done=self.done,
                   total=self.total_groups)

    def complete(self, label: str) -> None:
        now = self._clock()
        with self._lock:
            dispatched = self._inflight.pop(label, now)
            self._warned.discard(label)
            self.done += 1
            done = self.done
            self._last_progress = now
            busy = min(len(self._inflight), self.jobs)
        self._emit("group-done", group=label, elapsed=now - dispatched,
                   busy=busy, done=done, total=self.total_groups)

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
        event = self._emit("heartbeat", busy=busy, done=done,
                           total=self.total_groups, elapsed=elapsed,
                           eta_seconds=eta)
        if self.stuck_after > 0 and now - quiet_since >= self.stuck_after:
            for label, dispatched in running:
                if label in self._warned:
                    continue
                self._warned.add(label)
                quiet = now - max(dispatched, quiet_since)
                self._emit("stuck", group=label, quiet_seconds=quiet)
        return event

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.heartbeat()

    def _emit(self, type: str, **data) -> dict:
        """Publish one fleet event; returns it as ``{"type": ..., **data}``."""
        if self.bus is not None:
            self.bus.publish("runner", type, data)
        return {"type": type, **data}


def _format_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressReporter:
    """Bus sink: a live progress/ETA line for humans (``--progress``).

    Reads the runner's fleet events.  Rewrites one status line in place
    (``\\r``) on heartbeats and completions, breaks the line for
    stuck-worker warnings so they stay visible, and finishes with a
    newline-terminated summary.
    """

    def __init__(self, stream=None, label: str = "runner"):
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._line_open = False

    def __call__(self, event: dict) -> None:
        if event["source"] != "runner":
            return
        kind = event["type"]
        data = event["data"]
        if kind in ("heartbeat", "group-done", "dispatch"):
            self._status(kind, data)
        elif kind == "stuck":
            self._break_line()
            print(
                f"[{self.label}] worker quiet "
                f"{_format_seconds(data['quiet_seconds'])}: "
                f"still running {data['group']}",
                file=self.stream, flush=True,
            )
        elif kind == "finish":
            self._break_line()
            print(
                f"[{self.label}] {data['done']}/{data['total']} groups "
                f"in {_format_seconds(data['elapsed'])}",
                file=self.stream, flush=True,
            )

    def _status(self, kind: str, data: dict) -> None:
        done = data.get("done")
        if done is None:
            return
        text = (f"[{self.label}] {done}/{data['total']} groups, "
                f"{data.get('busy', 0)} busy")
        if kind == "heartbeat":
            eta = data.get("eta_seconds")
            if data.get("elapsed") is not None:
                text += f", elapsed {_format_seconds(data['elapsed'])}"
            if eta:
                text += f", eta ~{_format_seconds(eta)}"
        print(f"\r{text}", end="", file=self.stream, flush=True)
        self._line_open = True

    def _break_line(self) -> None:
        if self._line_open:
            print(file=self.stream)
            self._line_open = False
