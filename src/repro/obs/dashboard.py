"""Deterministic dashboard state for the unified run ledger.

:class:`DashState` consumes :mod:`repro.obs.events` events one at a time
and :func:`render` turns the accumulated state into a fixed-width text
frame.  Both are pure with respect to the event stream -- no wall clock,
no randomness -- so replaying a recorded ledger produces *exactly* the
frame a live dashboard showed at the same point in the stream.  That
property is the contract behind ``repro.tools.dash --replay`` (and is
asserted in ``tests/tools/test_dash.py``).

Panels rendered, each fed by one event source:

* run header -- run id, ledger clock, running/finished status;
* workers -- groups done/total progress bar, busy workers, ETA
  (``runner`` heartbeats);
* experiments -- completed-result count and the most recent results
  (``runner``/``result`` events);
* stalls -- issue-slot categories aggregated over every result,
  weighted by cycles (the ``slots.<category>`` fractions);
* cache -- hit/miss/write counts and the hit-rate bar;
* compile, timing -- one panel per code cache (compiled backend, timing
  block schedulers; :data:`repro.obs.views.CODEGEN`): functions
  generated, codegen wall time, cache hits and the counters their
  ``compile`` events carry;
* analysis -- static cost-bound estimates (``analysis``/``estimate``
  events from ``repro.tools.analyze``): cells bracketed, unsound cells,
  and the median upper/lower gap;
* diff -- recent run-comparison verdicts (``diff``/``report`` events
  from :mod:`repro.obs.diffing`), flagged when the runs differ;
* alerts -- stuck-worker warnings, newest last.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.views import CODEGEN

#: Width every frame is rendered at unless the caller overrides it.
DEFAULT_WIDTH = 78

#: Recent results kept for the experiments panel.
RECENT_RESULTS = 5

#: Recent comparison verdicts kept for the diff panel.
RECENT_DIFFS = 3

#: Profiler snapshot fields that are not a subsystem's seconds.
_PROFILE_TOTALS = ("hz", "wall_seconds", "overhead_seconds")


class DashState:
    """Accumulates one run's events into renderable aggregates."""

    def __init__(self):
        self.run_id: str | None = None
        self.last_ts = 0.0
        self.total_groups = 0
        self.total_experiments = 0
        self.done = 0
        self.busy = 0
        self.eta_seconds: float | None = None
        self.started = False
        self.finished = False
        self.results = 0
        self.recent: list[dict] = []
        self.stall_cycles: Counter = Counter()   # category -> weighted cycles
        self.total_cycles = 0
        self.cached_results = 0
        self.shared_results = 0
        self.cache = Counter()                   # hit / miss / write
        #: Codegen source -> functions, seconds, hits and the counters
        #: summed over its ``compile`` events.
        self.codegen = {source: Counter() for source in CODEGEN}
        self.analysis_estimates = 0
        self.analysis_unsound = 0
        self.analysis_gaps: list[float] = []
        self.diffs: list[dict] = []
        self.stuck: list[tuple[str, float]] = []
        self.profile: dict[str, float] = {}

    def consume(self, event: dict) -> None:
        """Fold one ledger event into the state."""
        if self.run_id is None:
            self.run_id = event.get("run_id")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = max(self.last_ts, float(ts))
        source = event.get("source")
        type_ = event.get("type")
        data = event.get("data") or {}
        if source == "runner":
            self._consume_runner(type_, data)
        elif source == "cache":
            if type_ in ("hit", "miss", "write"):
                self.cache[type_] += 1
        elif source in CODEGEN:
            panel = self.codegen[source]
            if type_ == "compile":
                panel["functions"] += 1
                for key, value in data.items():
                    if isinstance(value, (int, float)) and value:
                        panel[key] += value
            elif type_ == "cache-hit":
                panel["hits"] += 1
        elif source == "analysis" and type_ == "estimate":
            self.analysis_estimates += 1
            if data.get("sound") is False:
                self.analysis_unsound += 1
            gap = data.get("gap")
            if isinstance(gap, (int, float)):
                self.analysis_gaps.append(float(gap))
        elif source == "diff" and type_ == "report":
            self.diffs.append(data)
            del self.diffs[:-RECENT_DIFFS]
        elif source == "profiler" and type_ == "snapshot":
            # Estimated seconds per subsystem; the sample counts, rate and
            # wall/overhead seconds beside them are for the metrics view.
            self.profile = {
                key: float(value) for key, value in data.items()
                if isinstance(value, (int, float)) and "." not in key
                and key not in _PROFILE_TOTALS
            }

    def _consume_runner(self, type_: str, data: dict) -> None:
        if type_ == "start":
            # A driver may run several sweeps on one bus; a new start
            # reopens the run so the header drops back to "running".
            self.started = True
            self.finished = False
            self.total_groups = data.get("total_groups") or 0
            self.total_experiments = data.get("total_experiments") or 0
            self.done = 0
            self.eta_seconds = None
        elif type_ in ("dispatch", "group-done", "heartbeat"):
            if data.get("busy") is not None:
                self.busy = data["busy"]
            if data.get("done") is not None:
                self.done = data["done"]
            if data.get("total"):
                self.total_groups = data["total"]
            if type_ == "heartbeat":
                self.eta_seconds = data.get("eta_seconds")
        elif type_ == "stuck":
            self.stuck.append(
                (data.get("group", "?"), data.get("quiet_seconds") or 0.0)
            )
        elif type_ == "finish":
            self.finished = True
            self.busy = 0
            if data.get("done") is not None:
                self.done = data["done"]
        elif type_ == "result":
            self.results += 1
            if data.get("cached"):
                self.cached_results += 1
            if data.get("shared_with"):
                self.shared_results += 1
            cycles = data.get("cycles") or 0
            self.total_cycles += cycles
            for key, value in data.items():
                if key.startswith("slots.") and isinstance(
                        value, (int, float)):
                    self.stall_cycles[key[len("slots."):]] += value * cycles
            self.recent.append(data)
            del self.recent[:-RECENT_RESULTS]


def build_state(events) -> DashState:
    """Consume an entire (single-run) event list into one state."""
    state = DashState()
    for event in events:
        state.consume(event)
    return state


# -- rendering -------------------------------------------------------------

def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render(state: DashState, width: int = DEFAULT_WIDTH) -> str:
    """One text frame -- a pure function of the consumed events."""
    lines: list[str] = []
    rule = "=" * width
    status = ("finished" if state.finished
              else "running" if state.started else "idle")
    lines.append(rule)
    title = f" run {state.run_id or '?'} -- {status} "
    lines.append(title.center(width, "="))
    lines.append(rule)

    # workers / progress
    total = state.total_groups
    done = state.done
    fraction = (done / total) if total else 0.0
    bar_width = max(10, width - 30)
    progress = (f"groups {done}/{total}" if total
                else f"groups {done}")
    eta = ""
    if state.eta_seconds and not state.finished:
        eta = f"  eta ~{_fmt_seconds(state.eta_seconds)}"
    lines.append(
        f"[{_bar(fraction, bar_width)}] {progress}  "
        f"busy {state.busy}{eta}"
    )
    lines.append(f"ledger clock {state.last_ts:.3f}s")

    # experiments
    if state.results:
        lines.append("")
        notes = []
        if state.cached_results:
            notes.append(f"{state.cached_results} cached")
        if state.shared_results:
            notes.append(f"{state.shared_results} shared")
        notes_text = f" ({', '.join(notes)})" if notes else ""
        lines.append(f"experiments: {state.results} results{notes_text}")
        for data in state.recent:
            cipher = data.get("cipher", "?")
            config = data.get("config", "?")
            cycles = data.get("cycles")
            ipc = data.get("ipc")
            flag = ""
            if data.get("cached"):
                flag = " [cache]"
            elif data.get("shared_with"):
                flag = f" [shared {data['shared_with']}]"
            lines.append(
                f"  {cipher:<10} {config:<6} "
                f"{cycles if cycles is not None else '?':>12} cycles  "
                f"ipc {ipc if ipc is not None else '?'}{flag}"
            )

    # stall attribution (cycle-weighted across every result)
    if state.total_cycles and state.stall_cycles:
        lines.append("")
        lines.append("issue slots (cycle-weighted):")
        bar_width = max(10, width - 36)
        for category, weighted in state.stall_cycles.most_common():
            fraction = weighted / state.total_cycles
            lines.append(
                f"  {category:<14} {_bar(fraction, bar_width)} "
                f"{fraction * 100:5.1f}%"
            )

    # cache
    hits, misses = state.cache["hit"], state.cache["miss"]
    if hits or misses or state.cache["write"]:
        lines.append("")
        lookups = hits + misses
        rate = (hits / lookups) if lookups else 0.0
        lines.append(
            f"cache: {hits} hit / {misses} miss / "
            f"{state.cache['write']} write  "
            f"[{_bar(rate, 20)}] {rate * 100:.0f}% hit rate"
        )

    # code caches
    for source, (family, _module) in CODEGEN.items():
        panel = state.codegen[source]
        if not (panel["functions"] or panel["hits"]):
            continue
        lines.append("")
        lines.append(
            f"{family}: {panel['functions']} function(s), "
            f"{panel['seconds'] * 1000:.1f} ms codegen, "
            f"{panel['hits']} cache hit(s)"
        )
        row = "  "
        for key, value in sorted(panel.items()):
            if key in ("functions", "seconds", "hits"):
                continue
            part = f"{key.replace('_', ' ')} {int(value)}"
            if len(row) > 2 and len(row) + len(part) + 2 > width:
                lines.append(row)
                row = "  "
            row += part if row == "  " else f", {part}"
        if row.strip():
            lines.append(row)

    # static cost-bound estimates
    if state.analysis_estimates:
        lines.append("")
        soundness = (f"{state.analysis_unsound} UNSOUND"
                     if state.analysis_unsound else "all sound")
        gap = ""
        if state.analysis_gaps:
            ordered = sorted(state.analysis_gaps)
            middle = len(ordered) // 2
            median = (ordered[middle] if len(ordered) % 2
                      else (ordered[middle - 1] + ordered[middle]) / 2)
            gap = f", median gap {median:.2f}x"
        lines.append(
            f"analysis: {state.analysis_estimates} estimate(s), "
            f"{soundness}{gap}"
        )

    # run comparisons
    if state.diffs:
        lines.append("")
        lines.append("diff:")
        for data in state.diffs:
            mark = "==" if data.get("identical") else "!="
            pair = f"{data.get('a', '?')} vs {data.get('b', '?')}"
            lines.append(f"  {mark} [{data.get('kind', '?')}] {pair}")
            verdict = data.get("verdict")
            if verdict:
                lines.append(f"     {verdict}")

    # profiler snapshot
    if state.profile:
        lines.append("")
        parts = [f"{subsystem} {seconds:.2f}s" for subsystem, seconds
                 in sorted(state.profile.items(),
                           key=lambda item: -item[1])[:6]]
        lines.append("profile: " + ", ".join(parts))

    # alerts
    if state.stuck:
        lines.append("")
        for group, quiet in state.stuck[-3:]:
            lines.append(
                f"! stuck: {group} quiet {_fmt_seconds(quiet)}"
            )

    lines.append(rule)
    return "\n".join(line[:width] for line in lines)
