"""Pure-stdlib sampling profiler: where does host wall time go?

The simulators explain *simulated* cycles down to the issue slot, but
nothing explained the *host* seconds a run costs.  This module closes the
loop: a daemon thread wakes ``hz`` times per second, walks
``sys._current_frames()`` for the profiled thread(s), and attributes each
sample to a repro subsystem (cipher reference code, functional machine,
timing pipeline, cache I/O, ...) by matching stack filenames against
:data:`SUBSYSTEMS`.

Outputs, all derived from the same sample store:

* :meth:`SamplingProfiler.subsystem_table` -- the headline "where did the
  time go" breakdown printed by ``--profile`` on the CLI tools;
* :meth:`SamplingProfiler.collapsed` -- collapsed-stack text in the
  ``frame;frame;frame count`` format flamegraph.pl and speedscope load;
* :meth:`SamplingProfiler.top_functions` -- self-sample top-N table;
* :meth:`SamplingProfiler.snapshot` -- the ``profiler``/``snapshot``
  ledger event, from which the metrics view folds ``profiler.*``;
* :meth:`SamplingProfiler.trace_events` -- Perfetto counter samples on
  whatever clock ``now_us`` is bound to (an :class:`repro.obs.Observability`
  session binds the event bus's, the clock its trace view uses).

The profiler measures its own cost: every sampling pass is timed, and
:meth:`overhead_fraction` reports sampler seconds over profiled wall
seconds.  At the default ``DEFAULT_HZ`` the overhead is well under 5% of
wall time (asserted in ``tests/obs/test_profiler.py``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter

#: Default sampling rate.  Prime, so the sampler does not phase-lock with
#: periodic behavior in the profiled workload.
DEFAULT_HZ = 97

#: Ordered ``(subsystem, path fragments)`` classification table.  A stack
#: is attributed to the first subsystem whose fragment matches a frame
#: filename, scanning the stack innermost-out; unmatched stacks fall into
#: ``"other"``.
SUBSYSTEMS = (
    ("cipher", ("repro/ciphers/",)),
    # Code generation for the compiled execution backend.  Stacks *running*
    # generated code carry the synthetic "<repro-compiled:...>" (or, for
    # the interpreter's generated loop, "<repro-interpreter>") filename and
    # land in "functional"; only codegen/cache time lands here.
    ("compile", ("repro/sim/backends/compiled",)),
    ("functional", ("repro/sim/machine", "repro/sim/backends",
                    "<repro-compiled", "<repro-interpreter",
                    "repro/kernels/", "repro/isa/")),
    ("timing", ("repro/sim/timing", "repro/sim/caches", "repro/sim/branch",
                "repro/sim/sboxcache", "repro/sim/memory",
                "repro/sim/trace", "repro/sim/config")),
    ("cache_io", ("repro/runner/cache",)),
    ("runner", ("repro/runner/",)),
    ("analysis", ("repro/analysis/",)),
    ("obs", ("repro/obs/",)),
)

OTHER = "other"

#: Library code several subsystems call: the static analyses and the
#: opcode emitters serve code generation, lint and analysis alike, so a
#: frame here is attributed to its caller.
SHARED = ("repro/isa/analysis/", "repro/isa/semantics")


def _match(normalized: str, subsystems) -> "str | None":
    for subsystem, fragments in subsystems:
        for fragment in fragments:
            if fragment in normalized:
                return subsystem
    return None


def classify_stack(filenames, subsystems=SUBSYSTEMS) -> str:
    """Attribute one stack (innermost filename first) to a subsystem.

    The innermost frame that matches wins, except that frames of
    :data:`SHARED` library code defer to their callers; a stack of
    nothing but shared frames keeps the innermost one's subsystem.
    """
    fallback = None
    for filename in filenames:
        normalized = filename.replace("\\", "/")
        subsystem = _match(normalized, subsystems)
        if any(fragment in normalized for fragment in SHARED):
            fallback = fallback or subsystem
        elif subsystem is not None:
            return subsystem
    return fallback or OTHER


def _frame_label(frame) -> str:
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Background-thread statistical profiler for one (or all) threads.

    By default only the thread that calls :meth:`start` is sampled -- the
    CLI work thread -- so unrelated interpreter threads do not pollute the
    account.  Pass ``all_threads=True`` to sample every thread except the
    sampler itself.
    """

    def __init__(
        self,
        hz: int = DEFAULT_HZ,
        *,
        subsystems=SUBSYSTEMS,
        all_threads: bool = False,
        max_stack: int = 64,
        clock=time.perf_counter,
        now_us=None,
    ):
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = hz
        self.interval = 1.0 / hz
        self.subsystems = tuple(subsystems)
        self.all_threads = all_threads
        self.max_stack = max_stack
        self._clock = clock
        #: Timestamp source for exported trace events (microseconds); pass
        #: the trace's clock to share its timeline.
        self._now_us = now_us
        self._epoch = clock()
        self.samples = 0
        self.subsystem_samples: Counter = Counter()
        self.stack_samples: Counter = Counter()
        self.leaf_samples: Counter = Counter()
        #: Per-sample ``(ts_us, subsystem)`` timeline for trace export.
        self.timeline: list[tuple[float, str]] = []
        #: Seconds the sampler itself spent walking frames.
        self.overhead_seconds = 0.0
        #: Profiled wall seconds (start to stop).
        self.wall_seconds = 0.0
        self._target_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.wall_seconds += self._clock() - self._started_at
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the sampling loop -------------------------------------------------

    def _default_now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    def _sample_loop(self) -> None:
        clock = self._clock
        own_ident = threading.get_ident()
        now_us = self._now_us or self._default_now_us
        while not self._stop.is_set():
            began = clock()
            frames = sys._current_frames()
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                if not self.all_threads and ident != self._target_ident:
                    continue
                self._record(frame, now_us())
            del frames
            self.overhead_seconds += clock() - began
            pause = self.interval - (clock() - began)
            if pause > 0:
                self._stop.wait(pause)

    def _record(self, frame, ts_us: float) -> None:
        filenames = []
        labels = []
        depth = 0
        while frame is not None and depth < self.max_stack:
            filenames.append(frame.f_code.co_filename)
            labels.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        subsystem = classify_stack(filenames, self.subsystems)
        self.samples += 1
        self.subsystem_samples[subsystem] += 1
        # Collapsed-stack keys run root -> leaf, the flamegraph order.
        self.stack_samples[tuple(reversed(labels))] += 1
        self.leaf_samples[labels[0]] += 1
        self.timeline.append((ts_us, subsystem))

    # -- derived views -----------------------------------------------------

    def overhead_fraction(self) -> float:
        """Sampler seconds per profiled wall second (0.0 before any run)."""
        wall = self.wall_seconds
        if self.running:
            wall += self._clock() - self._started_at
        return self.overhead_seconds / wall if wall > 0 else 0.0

    def estimated_seconds(self, subsystem: str) -> float:
        """Wall-seconds estimate for one subsystem (samples / hz)."""
        return self.subsystem_samples.get(subsystem, 0) * self.interval

    def subsystem_table(self) -> str:
        """The headline time breakdown, one subsystem per line."""
        lines = [
            f"profiler: {self.samples} samples @ {self.hz} Hz over "
            f"{self.wall_seconds:.2f}s wall "
            f"(sampler overhead {self.overhead_fraction():.2%})"
        ]
        if not self.samples:
            lines.append("  (no samples -- workload too short for this hz)")
            return "\n".join(lines)
        for subsystem, count in self.subsystem_samples.most_common():
            share = count / self.samples
            lines.append(
                f"  {subsystem:<12} {share:>6.1%}  "
                f"~{count * self.interval:.2f}s  ({count} samples)"
            )
        return "\n".join(lines)

    def top_functions(self, limit: int = 10) -> list[tuple[str, int]]:
        """The ``limit`` functions with the most self (leaf) samples."""
        return self.leaf_samples.most_common(limit)

    def top_table(self, limit: int = 10) -> str:
        lines = [f"top {limit} functions by self samples:"]
        for label, count in self.top_functions(limit):
            share = count / self.samples if self.samples else 0.0
            lines.append(f"  {label:<40} {count:>6}  {share:>6.1%}")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame count`` per line).

        Feed to flamegraph.pl or paste into https://www.speedscope.app.
        """
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stack_samples.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed())

    # -- exports --------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``profiler``/``snapshot`` ledger event's data.

        Estimated seconds per subsystem (keyed by subsystem name), the
        samples behind each (``samples.<subsystem>``), the sampling rate,
        and the profiled wall and sampler overhead seconds.
        """
        counts = self.subsystem_samples.most_common()
        return {
            **{name: round(self.estimated_seconds(name), 6)
               for name, _count in counts},
            **{f"samples.{name}": count for name, count in counts},
            "hz": self.hz, "wall_seconds": self.wall_seconds,
            "overhead_seconds": self.overhead_seconds,
        }

    def trace_events(self, pid: int | None = None) -> list[dict]:
        """Perfetto counter samples: cumulative samples per subsystem.

        Stacked on one ``profiler.samples`` counter track; timestamps are
        on whatever clock ``now_us`` was bound to (the event bus's, when
        the profiler came from an :class:`repro.obs.Observability` session
        with a bus).
        """
        pid = os.getpid() if pid is None else pid
        cumulative: Counter = Counter()
        events = []
        for ts_us, subsystem in self.timeline:
            cumulative[subsystem] += 1
            events.append({
                "name": "profiler.samples", "cat": "profiler", "ph": "C",
                "ts": ts_us, "pid": pid, "tid": 0,
                "args": {name: cumulative[name] for name in sorted(cumulative)},
            })
        return events
