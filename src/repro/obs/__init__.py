"""Observability layer: metrics, structured traces, and stall accounting.

The paper's evaluation rests on *explaining* cycle counts, not just
reporting them -- its SimpleView pipeline visualizations attribute each
cipher's time to operand waits, fetch limits and cache behavior.  This
package is that explanation machinery as reusable infrastructure:

* :mod:`repro.obs.metrics` -- a lightweight labeled-metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`) with a stable
  JSON snapshot schema.
* :mod:`repro.obs.tracing` -- a Chrome/Perfetto trace-event document
  with JSON and JSONL export (open the ``.json`` file at
  https://ui.perfetto.dev).
* :mod:`repro.obs.pipeline` -- the pipeline-schedule event stream shared
  by the ASCII viewer (:mod:`repro.sim.pipeview`) and the Perfetto
  exporter.
* :mod:`repro.obs.profiler` -- a pure-stdlib sampling profiler that
  attributes *host* wall time to repro subsystems and exports
  collapsed-stack flamegraph text (``--profile`` on the CLI tools).
* :mod:`repro.obs.events` -- the unified run ledger: one
  :class:`EventBus` (schema ``repro.obs.events/1``, per-invocation
  ``run_id`` + monotonic ``seq``), the only channel instrumented code
  reports to -- runner telemetry and span events, the cache, codegen,
  lint and analysis, and the profiler -- with pluggable sinks (JSONL
  ledger, ring buffer); rendered live or replayed by
  ``repro.tools.dash``.
* :mod:`repro.obs.views` -- the metrics snapshot and the Perfetto trace
  as bus sinks folding the ledger's events (:class:`MetricsView`,
  :class:`TraceView`); the one place the metric catalogue lives.
* :mod:`repro.obs.diffing` -- the run-diff engine (schema
  ``repro.obs.diff/1``): SimStats cycle-provenance deltas, ledger phase
  alignment, metrics deltas, and the verdict line; driven by
  ``repro.tools.diff``.  The first-divergence trace bisector is its
  sibling, :mod:`repro.sim.diverge`.
* :mod:`repro.obs.schema` -- validators for the exported documents (used
  by tests, CI, and ``repro.tools.obs --check``).
* :mod:`repro.obs.session` -- the :class:`Observability` bundle the CLI
  tools build from ``--metrics-out`` / ``--trace-out`` / ``--profile``,
  and the environment fingerprint stamped into metrics snapshots.

Stall-attribution itself lives in :mod:`repro.sim.timing`, which classifies
every issue slot of every cycle; see ``docs/observability.md`` for the
category definitions and their mapping to the paper's terminology.
"""

from __future__ import annotations

import importlib

# Attributes load on first use (PEP 562): publishing a ledger event needs
# only ``events`` and ``schema``, not the rest of the stack.
_SUBMODULE_EXPORTS = {
    "diffing": ("ProvenanceMismatch", "build_report", "diff_ledger_runs",
                "diff_metrics_docs", "diff_stats", "explain_stats_delta",
                "render_report"),
    "events": ("EventBus", "JsonlSink", "RingBufferSink",
               "active_bus", "load_ledger", "new_run_id", "publish_event",
               "set_active_bus", "split_runs"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "pipeline": ("schedule_spans", "schedule_trace_events"),
    "profiler": ("SamplingProfiler",),
    "schema": ("ANALYSIS_SCHEMA", "DIFF_SCHEMA", "EVENTS_SCHEMA",
               "LINT_SCHEMA", "METRICS_SCHEMA", "validate_analysis",
               "validate_diff", "validate_event", "validate_event_ledger",
               "validate_lint", "validate_metrics", "validate_trace_events"),
    "session": ("Observability", "environment_fingerprint"),
    "tracing": ("Tracer",),
    "views": ("MetricsView", "TraceView"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in names}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = sorted(_EXPORTS)
