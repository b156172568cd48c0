"""The CLI-facing observability bundle.

Every experiment-running tool accepts ``--metrics-out`` / ``--trace-out``
(see :func:`repro.tools.cli.add_observability_arguments`) plus the
``--profile`` family, ``--events-out`` and ``--progress``; this class
turns those optional flags into one :class:`EventBus`, the only channel
instrumented code reports to, with one sink per output: the JSONL
ledger, the views of :mod:`repro.obs.views` (``metrics``, ``tracer``)
and the progress line.  :meth:`write` writes the files.  When no
telemetry was requested, ``metrics``, ``tracer``, ``profiler`` and
``bus`` stay ``None`` and the instrumented code paths cost nothing.

Use the session as a context manager around the tool's work so the
sampling profiler covers exactly the measured region::

    obs = observability_from_args(args, tool="riscasim")
    with obs:
        ...run experiments...
    for line in obs.report():
        print(line)
    for path in obs.write():
        print(f"wrote {path}")

Written metrics snapshots are stamped with the environment fingerprint
(:func:`environment_fingerprint`: git sha, python version, platform,
hostname, plus the resolved simulator backend and timing engine) under
``extra.environment`` so exported telemetry artifacts are attributable
to a commit.

The bus is installed as the process-wide *active bus*
(:mod:`repro.obs.events`) for the duration of the session, so deep
publishers (the compiled backend's codegen, the lint and analysis CLIs)
reach the same sinks as the runner and cache.
``repro.tools.dash`` renders an ``--events-out`` ledger live
(``--follow``) or after the fact (``--replay``).
"""

from __future__ import annotations

import os
import platform

from repro.obs.events import EventBus, JsonlSink, set_active_bus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import DEFAULT_HZ, SamplingProfiler
from repro.obs.tracing import Tracer
from repro.obs.views import MetricsView, TraceView


def environment_fingerprint(cwd: str | None = None) -> dict:
    """Str->str description of where a measurement was taken.

    ``socket`` and ``subprocess`` load on call, so a session that writes
    no snapshot loads neither.
    """
    import socket

    return {
        "git_sha": _git_sha(cwd),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": str(os.cpu_count() or 0),
        "hostname": socket.gethostname(),
    }


def _git_sha(cwd: str | None = None) -> str:
    """HEAD of the checkout holding ``cwd`` (this package by default)."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


class Observability:
    """An optional event bus, its sinks, and the sampling profiler."""

    def __init__(
        self,
        metrics_out: str | None = None,
        trace_out: str | None = None,
        tool: str | None = None,
        profile: bool = False,
        profile_hz: int = DEFAULT_HZ,
        profile_out: str | None = None,
        events_out: str | None = None,
        run_id: str | None = None,
        progress: bool = False,
    ):
        self.metrics_out = metrics_out
        self.trace_out = trace_out
        self.tool = tool
        self.profile_out = profile_out
        self.events_out = events_out
        #: Resolved simulator backend name; the CLI layer stamps this so
        #: metrics snapshots name the engine that produced them.
        self.backend: str | None = None
        #: Resolved timing-engine name, stamped the same way.
        self.timing_engine: str | None = None
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics_out else None
        )
        self.tracer: Tracer | None = Tracer() if trace_out else None
        sinks = []
        if events_out:
            sinks.append(JsonlSink(events_out))
        if self.metrics is not None:
            sinks.append(MetricsView(self.metrics))
        if self.tracer is not None:
            sinks.append(TraceView(self.tracer))
        if progress:
            from repro.runner.telemetry import ProgressReporter
            sinks.append(ProgressReporter())
        self.bus: EventBus | None = None
        if sinks:
            self.bus = EventBus(run_id=run_id)
            for sink in sinks:
                self.bus.subscribe(sink)
        self.profiler: SamplingProfiler | None = None
        if profile or profile_out:
            bus = self.bus  # samples on the bus clock, beside the spans
            self.profiler = SamplingProfiler(
                hz=profile_hz,
                now_us=(lambda: bus.now() * 1e6) if bus is not None else None,
            )
        self._previous_bus: EventBus | None = None
        self._finished = False

    @property
    def enabled(self) -> bool:
        return self.bus is not None or self.profiler is not None

    # -- profiled region ---------------------------------------------------

    def __enter__(self) -> "Observability":
        if self.profiler is not None and not self.profiler.running:
            self.profiler.start()
        if self.bus is not None:
            self._previous_bus = set_active_bus(self.bus)
        return self

    def __exit__(self, *exc) -> None:
        self.finish()

    def finish(self) -> None:
        """Stop the profiler, publish its snapshot, close the bus."""
        if self._finished:
            return
        self._finished = True
        if self.profiler is not None:
            self.profiler.stop()
            if self.tracer is not None:
                self.tracer.add_events(
                    self.profiler.trace_events(pid=self.tracer.pid)
                )
            if self.bus is not None:
                self.bus.publish("profiler", "snapshot",
                                 self.profiler.snapshot())
        if self.bus is not None:
            set_active_bus(self._previous_bus)
            self._previous_bus = None
            self.bus.close()

    def report(self) -> list[str]:
        """Human-readable summary lines (profiler breakdown, when on)."""
        if self.profiler is None:
            return []
        self.finish()
        lines = self.profiler.subsystem_table().splitlines()
        if self.profiler.samples:
            lines.extend(self.profiler.top_table(5).splitlines())
        return lines

    # -- export ------------------------------------------------------------

    def write(self) -> list[str]:
        """Write whichever outputs were requested; returns written paths."""
        self.finish()
        written: list[str] = []
        if self.metrics is not None and self.metrics_out:
            environment = environment_fingerprint()
            if self.backend:
                environment["backend"] = self.backend
            if self.timing_engine:
                environment["timing_engine"] = self.timing_engine
            self.metrics.write(
                self.metrics_out,
                generated_by=self.tool,
                extra={"environment": environment},
            )
            written.append(self.metrics_out)
        if self.tracer is not None and self.trace_out:
            self.tracer.write(self.trace_out)
            written.append(self.trace_out)
        if self.profiler is not None and self.profile_out:
            self.profiler.write_collapsed(self.profile_out)
            written.append(self.profile_out)
        if self.events_out and self.events_out not in written:
            written.append(self.events_out)
        return written
