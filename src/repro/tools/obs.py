"""Stall-attribution explorer: where did the issue slots go?

    python -m repro.tools.obs --cipher Blowfish RC6 --config 4W 8W+
    python -m repro.tools.obs --cipher IDEA --config 4W --hotspots 10
    python -m repro.tools.obs --cipher Blowfish --config 4W+ \
        --pipeline 100:140 --trace-out blowfish.json
    python -m repro.tools.obs --check metrics.json

For each cipher x machine model this prints the issue-slot account from
the timing simulator's per-cycle stall attribution: the fraction of slots
that issued instructions, and the fraction lost to each stall category
(fetch, window, operands, memory ordering, per-pool FU contention, ...).
The categories sum exactly to 100% of ``cycles * issue_width`` -- see
``docs/observability.md`` for definitions and the mapping to the paper's
bottleneck terminology.

``--hotspots N`` adds the N static instructions that accumulated the most
wait cycles.  ``--pipeline START:END`` renders the ASCII pipeline for a
trace window and, with ``--trace-out``, also emits the window as
Chrome/Perfetto trace events alongside the runner spans.  ``--check PATH``
validates a previously written metrics or trace file against the schema
and exits non-zero on errors.
"""

from __future__ import annotations

import argparse
import json

from repro.kernels import KERNEL_NAMES
from repro.obs import (
    ANALYSIS_SCHEMA,
    DIFF_SCHEMA,
    EVENTS_SCHEMA,
    LINT_SCHEMA,
    schedule_trace_events,
    validate_analysis,
    validate_diff,
    validate_event_ledger,
    validate_lint,
    validate_metrics,
    validate_trace_events,
)
from repro.runner import Experiment, ExperimentOptions
from repro.sim.pipeview import render_pipeline, stall_summary
from repro.sim.stats import STALL_CATEGORIES
from repro.sim.timing import simulate
from repro.tools.cli import (
    CONFIGS,
    FEATURE_LEVELS,
    add_config_argument,
    add_features_argument,
    add_runner_arguments,
    add_session_argument,
    observability_from_args,
    runner_from_args,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.obs",
                                     description=__doc__)
    parser.add_argument(
        "--cipher", nargs="+", default=list(KERNEL_NAMES),
        choices=KERNEL_NAMES, metavar="NAME",
        help="cipher kernel(s) to account (default: the full suite)",
    )
    add_features_argument(parser)
    add_config_argument(parser, multiple=True, default=["4W", "8W+"])
    add_session_argument(parser)
    parser.add_argument(
        "--hotspots", type=int, default=0, metavar="N",
        help="also print the N hottest static instructions per run",
    )
    parser.add_argument(
        "--pipeline", metavar="START:END",
        help="render the pipeline schedule for a dynamic-instruction "
             "window (single cipher/config only); with --trace-out the "
             "window is exported as Perfetto trace events too",
    )
    parser.add_argument(
        "--check", metavar="PATH",
        help="validate a metrics/trace JSON file against the documented "
             "schema and exit (all other arguments are ignored)",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    if args.check:
        return check_file(args.check)

    features = FEATURE_LEVELS[args.features]
    obs = observability_from_args(args, tool="obs")
    runner = runner_from_args(args, obs=obs)

    with obs:
        for cipher in args.cipher:
            options = ExperimentOptions(
                cipher=cipher, features=features,
                session_bytes=args.session_bytes,
            )
            results = runner.run([
                Experiment(options, CONFIGS[name]) for name in args.configs
            ])
            print(breakdown_table(cipher, features.label, args.session_bytes,
                                  list(zip(args.configs, results))))
            if args.hotspots:
                for name, result in zip(args.configs, results):
                    print(hotspot_table(name, result.stats, args.hotspots))
            print()

        if args.pipeline:
            if len(args.cipher) != 1 or len(args.configs) != 1:
                parser.error("--pipeline needs exactly one cipher and config")
            render_window(runner, obs, args.cipher[0], features,
                          args.session_bytes, CONFIGS[args.configs[0]],
                          args.pipeline)

    for line in obs.report():
        print(line)
    for path in obs.write():
        print(f"wrote {path}")
    return 0


def check_file(path: str) -> int:
    """Validate a written telemetry, report or ledger file.

    The document kind is sniffed from its content: a ``metrics`` key means
    the metrics schema, a ``repro.obs.diff/1`` stamp means a
    run-comparison report, a ``repro.obs.events/1`` stamp on JSONL lines
    means a run ledger, a ``repro.isa.verify/1`` stamp means a lint
    report, a ``repro.isa.analysis/1`` stamp means a static cost-bound
    report, anything else is checked as Chrome/Perfetto trace events.  A
    JSONL line that does not parse (a torn final write included) is an
    error.  Returns 0 iff valid.
    """
    errors: list[str] = []
    with open(path) as handle:
        if path.endswith(".jsonl"):
            document = []
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    document.append(json.loads(line))
                except ValueError as error:
                    errors.append(f"line {number}: not valid JSON ({error})")
        else:
            document = json.load(handle)
    if errors:
        kind = "JSONL"
    elif isinstance(document, dict) \
            and document.get("schema") == LINT_SCHEMA:
        errors, kind = validate_lint(document), "lint"
    elif isinstance(document, dict) \
            and document.get("schema") == ANALYSIS_SCHEMA:
        errors, kind = validate_analysis(document), "analysis"
    elif isinstance(document, dict) \
            and document.get("schema") == DIFF_SCHEMA:
        # Before the "metrics" key sniff: a diff report of kind
        # "metrics" carries delta rows under that key too.
        errors, kind = validate_diff(document), "diff report"
    elif isinstance(document, dict) and "metrics" in document:
        errors, kind = validate_metrics(document), "metrics"
    elif isinstance(document, list) and document and all(
        isinstance(entry, dict) and entry.get("schema") == EVENTS_SCHEMA
        for entry in document
    ):
        errors, kind = validate_event_ledger(document), "event ledger"
    else:
        errors, kind = validate_trace_events(document), "trace"
    if errors:
        print(f"{path}: {len(errors)} {kind} schema error(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"{path}: valid {kind} document")
    return 0


def breakdown_table(cipher, features_label, session_bytes, named) -> str:
    """The issue-slot account for one cipher across machine models."""
    lines = [f"{cipher} [{features_label}] {session_bytes}B"]
    width = max(len(name) for name, _ in named)
    header = f"  {'slots':<12}" + "".join(
        f" {name:>{max(width, 8)}}" for name, _ in named
    )
    lines.append(header)

    def row(label, cells):
        return f"  {label:<12}" + "".join(
            f" {cell:>{max(width, 8)}}" for cell in cells
        )

    fractions = [result.stats.stall_fractions() for _, result in named]
    for category in ("issued",) + STALL_CATEGORIES:
        if not any(category in f for f in fractions):
            continue
        lines.append(row(category, [
            f"{f[category]:.1%}" if category in f else "-"
            for f in fractions
        ]))
    lines.append(row("cycles", [
        str(result.stats.cycles) for _, result in named
    ]))
    lines.append(row("IPC", [
        f"{result.stats.ipc:.2f}" for _, result in named
    ]))
    return "\n".join(lines)


def hotspot_table(config_name, stats, limit: int) -> str:
    """The static instructions with the most accumulated wait cycles.

    The header names the owning program (digest prefix) and the timing
    engine that produced the table, so two printed tables can never be
    silently read as comparable when they came from different programs.
    """
    if not stats.hotspots:
        return f"  [{config_name}] no hot spots recorded"
    digest = stats.extra.get("program_digest", "")
    provenance = f" program {digest[:12]}" if digest else ""
    engine = stats.extra.get("timing_engine")
    if engine:
        provenance += f" engine {engine}"
    lines = [f"  [{config_name}]{provenance} "
             f"hot spots (wait cycles by category):"]
    for spot in stats.hotspots[:limit]:
        reasons = ", ".join(
            f"{category} {cycles}" for category, cycles
            in sorted(spot["wait_cycles"].items(),
                      key=lambda item: -item[1])
        )
        lines.append(
            f"    #{spot['static_index']:<4} {spot['text']:<36} "
            f"x{spot['executions']:<6} {reasons}"
        )
    return "\n".join(lines)


def render_window(runner, obs, cipher, features, session_bytes, config,
                  window: str) -> None:
    """ASCII-render (and optionally trace-export) a schedule window."""
    start, end = (int(part) for part in window.split(":"))
    options = ExperimentOptions(
        cipher=cipher, features=features, session_bytes=session_bytes
    )
    run = runner.functional(options)
    stats = simulate(run.trace, config, run.warm_ranges,
                     schedule_range=(start, end))
    schedule = stats.extra["schedule"]
    print(render_pipeline(run.trace, schedule))
    print(", ".join(f"{key}={value:.1f}"
                    for key, value in stall_summary(schedule).items()))
    if obs.tracer is not None:
        instructions = run.trace.program.instructions
        obs.tracer.add_events(schedule_trace_events(
            schedule,
            labels=lambda index: instructions[index].render(),
            pid=1,
            track_prefix=f"{cipher}:{config.name}",
        ))


if __name__ == "__main__":
    raise SystemExit(main())
