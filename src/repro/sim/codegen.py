"""Generated source to functions: one compiler and one code cache.

Four forms of generated Python run in this simulator: the interpreter's
dispatch loop and the timing model's per-entry loop, one of each per
process, and per program the compiled backend's functions and the
timing engine's block schedulers.  All four are compiled by
:func:`compile_source`, which registers each under a ``<repro-...>``
filename in :mod:`linecache`, so tracebacks and the sampling profiler
see real lines.  The lines are regenerated the first time one is read,
so no function keeps its source resident.

Each per-program generator keeps its functions in one
:class:`CodeCache`: a :class:`CodegenReport` per function, the cache
hits that found it, ``compile`` and ``cache-hit`` events on the run
ledger under the cache's source (folded into metrics by
:class:`repro.obs.views.MetricsView`), and the ``riscasim --explain``
table.
"""

from __future__ import annotations

import linecache
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field


class _LazyLines(Sequence):
    """A linecache line list that generates its source on first access."""

    def __init__(self, generate):
        self._generate = generate
        self._lines: "list[str] | None" = None

    def _get(self) -> "list[str]":
        if self._lines is None:
            self._lines = self._generate().splitlines(True)
            self._generate = None
        return self._lines

    def __len__(self) -> int:
        return len(self._get())

    def __getitem__(self, index):
        return self._get()[index]


def compile_source(source: str, filename: str, func_name: str,
                   namespace: dict, regenerate):
    """Compile a generated source, registered in linecache as ``filename``;
    returns its function ``func_name``.

    ``regenerate()`` returns ``source`` again: linecache holds it, not the
    lines, and calls it the first time a traceback or profiler reads a
    line, so the function does not keep its source resident.
    """
    linecache.cache[filename] = (len(source), None, _LazyLines(regenerate),
                                 filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[func_name]


@dataclass
class CodegenReport:
    """What generating one function did: its size, wall time and the
    generator's optimization counters; ``hits`` counts the later requests
    the cache served."""

    digest: str
    mode: str
    instructions: int
    blocks: int
    source_lines: int = 0
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    hits: int = 0


class CodeCache:
    """One generator's functions by key, each with its report.

    ``source`` names the ledger source its events go to, ``title`` heads
    its ``--explain`` table, and ``counter_keys`` are the optimization
    counters each report carries.
    """

    def __init__(self, source: str, title: str,
                 counter_keys: "tuple[str, ...]"):
        self.source = source
        self.title = title
        self.counter_keys = counter_keys
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def reports(self) -> "list[CodegenReport]":
        """Every function's report, in generation order."""
        return [report for _, report in self._entries.values()]

    def clear(self) -> None:
        """Drop every function and report (for tests and benchmarks)."""
        self._entries.clear()

    def get(self, key):
        """``(function, report)`` cached under ``key``, counted as a hit;
        None when there is none."""
        entry = self._entries.get(key)
        if entry is not None:
            report = entry[1]
            report.hits += 1
            self.publish("cache-hit", {"digest": report.digest[:12],
                                       "mode": report.mode})
        return entry

    def compile(self, key, report: CodegenReport, filename: str,
                func_name: str, generate):
        """Generate, compile and cache ``key``'s function; returns
        ``(function, report)``.

        ``generate()`` returns ``(source, counters, namespace)``.  It is
        called again, for the source only, when a traceback first reads
        a line, so it must not capture more than the source needs.
        """
        began = time.perf_counter()
        source, report.counters, namespace = generate()
        function = compile_source(source, filename, func_name, namespace,
                                  lambda: generate()[0])
        report.source_lines = source.count("\n")
        report.seconds = time.perf_counter() - began
        self._entries[key] = function, report
        self.publish("compile", {
            "digest": report.digest[:12],
            "mode": report.mode,
            "instructions": report.instructions,
            "blocks": report.blocks,
            "source_lines": report.source_lines,
            "seconds": round(report.seconds, 6),
            **{k: report.counters.get(k, 0) for k in self.counter_keys},
        })
        return function, report

    def publish(self, type: str, data: dict) -> None:
        """Ledger event on the process's active bus, if one is installed.

        No bus can be active before the ledger module is loaded, so a
        process without telemetry never imports :mod:`repro.obs` here.
        """
        ledger = sys.modules.get("repro.obs.events")
        if ledger is not None:
            ledger.publish_event(self.source, type, data)

    def explain(self) -> str:
        """The ``riscasim --explain`` table of this cache."""
        reports = self.reports()
        if not reports:
            return f"{self.title}: nothing generated in this process"
        lines = [
            f"{self.title}: {len(reports)} function(s), "
            f"{sum(r.seconds for r in reports) * 1e3:.1f} ms codegen, "
            f"{sum(r.hits for r in reports)} cache hit(s)",
            f"  {'program':<10} {'mode':<10} {'instr':>6} {'lines':>6} "
            f"{'ms':>6} {'hits':>5}  optimizations",
        ]
        for report in reports:
            opts = ", ".join(
                f"{key.replace('_', ' ')} {report.counters[key]}"
                for key in self.counter_keys if report.counters.get(key)
            ) or "none"
            lines.append(
                f"  {report.digest[:8]:<10} {report.mode:<10} "
                f"{report.instructions:>6} {report.source_lines:>6} "
                f"{report.seconds * 1e3:>6.1f} {report.hits:>5}  {opts}"
            )
        return "\n".join(lines)
