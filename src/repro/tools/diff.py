"""Regression forensics: diff two runs, or bisect to the first divergence.

    # Two fresh (cache-reusing) runner invocations, any stack combination:
    python -m repro.tools.diff run --cipher RC4 --config 4W \
        --a-backend interpreter --b-backend compiled \
        --a-engine generic --b-engine specialized
    # Where did the cycles go between two machine models?
    python -m repro.tools.diff run --cipher RC4 --config 4W 8W+
    # Phase alignment of two recorded run ledgers:
    python -m repro.tools.diff ledger before.jsonl after.jsonl
    # Two metrics snapshots:
    python -m repro.tools.diff metrics before.json after.json
    # First differing trace entry between two execution stacks:
    python -m repro.tools.diff bisect --cipher RC4 \
        --a-backend interpreter --b-backend compiled

Every comparison emits a schema-validated ``repro.obs.diff/1`` report
(``--format json`` / ``--out PATH``; validated by ``repro.tools.obs
--check``) whose verdict line says *where* the runs differ, not just
that they do.  Exit status follows ``diff(1)``: 0 when the sides are
identical, 1 when they differ, 2 on usage or input errors.  See
``docs/observability.md`` ("Regression forensics").
"""

from __future__ import annotations

import argparse
import json

from repro.obs.diffing import (
    ProvenanceMismatch,
    build_report,
    diff_ledger_runs,
    diff_metrics_docs,
    diff_stats,
    ledger_identical,
    ledger_verdict,
    metrics_identical,
    metrics_verdict,
    render_report,
    stats_identical,
    stats_verdict,
)
from repro.obs.events import load_ledger, split_runs
from repro.runner import Experiment, ExperimentOptions, ResultCache
from repro.sim.backends import DEFAULT_BACKEND, backend_names
from repro.sim.diverge import first_divergence, format_divergence
from repro.sim.timing import DEFAULT_ENGINE, engine_names
from repro.tools.cli import (
    CONFIGS,
    FEATURE_LEVELS,
    add_cipher_argument,
    add_features_argument,
    add_runner_arguments,
    add_session_argument,
    observability_from_args,
    runner_from_args,
)

#: diff(1)-style exit statuses.
IDENTICAL, DIFFERENT, TROUBLE = 0, 1, 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.diff",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="diff two runner invocations (cache-reusing)")
    add_cipher_argument(run)
    add_features_argument(run)
    add_session_argument(run)
    run.add_argument(
        "--config", "--configs", dest="configs", nargs="+", default=["4W"],
        choices=sorted(CONFIGS), metavar="NAME",
        help="one machine model for both sides, or two (side a, side b)",
    )
    for side in ("a", "b"):
        run.add_argument(
            f"--{side}-backend", default=None, choices=backend_names(),
            help=f"execution backend for side {side} (default: --backend)",
        )
        run.add_argument(
            f"--{side}-engine", default=None, choices=engine_names(),
            help=f"timing engine for side {side} (default: --timing-engine)",
        )
    add_runner_arguments(run)
    _add_output_arguments(run)

    ledger = sub.add_parser(
        "ledger", help="align two run ledgers phase by phase")
    ledger.add_argument("a", help="first ledger (JSONL)")
    ledger.add_argument("b", help="second ledger (JSONL)")
    ledger.add_argument(
        "--a-run", default=None, metavar="RUN_ID",
        help="run id inside the first file (default: its last run)",
    )
    ledger.add_argument(
        "--b-run", default=None, metavar="RUN_ID",
        help="run id inside the second file (default: its last run)",
    )
    _add_output_arguments(ledger)

    metrics = sub.add_parser(
        "metrics", help="diff two metrics snapshots")
    metrics.add_argument("a", help="first snapshot (JSON)")
    metrics.add_argument("b", help="second snapshot (JSON)")
    _add_output_arguments(metrics)

    bisect = sub.add_parser(
        "bisect", help="locate the first differing trace entry")
    add_cipher_argument(bisect)
    add_features_argument(bisect)
    add_session_argument(bisect)
    for side in ("a", "b"):
        bisect.add_argument(
            f"--{side}-backend", default=None, choices=backend_names(),
            help=f"execution backend for side {side}",
        )
    bisect.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="trace entries per compared window",
    )
    bisect.add_argument(
        "--context", type=int, default=3, metavar="N",
        help="surrounding trace entries to print (default %(default)s)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _diff_run(args)
        if args.command == "ledger":
            return _diff_ledger(args)
        if args.command == "metrics":
            return _diff_metrics(args)
        return _bisect(args)
    except (OSError, ValueError, ProvenanceMismatch) as error:
        print(f"error: {error}")
        return TROUBLE


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", default="table", choices=("table", "json"),
        help="report rendering on stdout (default %(default)s)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the repro.obs.diff/1 report as JSON",
    )


def _emit(report: dict, args) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return IDENTICAL if report["identical"] else DIFFERENT


# -- subcommands -----------------------------------------------------------

def _diff_run(args) -> int:
    """Two runner invocations: cycle-provenance deltas between stacks."""
    if len(args.configs) > 2:
        raise ValueError("--config takes one or two machine models")
    config_a = args.configs[0]
    config_b = args.configs[-1]
    features = FEATURE_LEVELS[args.features]
    stack_a = (args.a_backend or args.backend or DEFAULT_BACKEND,
               args.a_engine or args.timing_engine or DEFAULT_ENGINE)
    stack_b = (args.b_backend or args.backend or DEFAULT_BACKEND,
               args.b_engine or args.timing_engine or DEFAULT_ENGINE)

    options = ExperimentOptions(
        cipher=args.cipher, features=features,
        session_bytes=args.session_bytes,
    )
    experiment_a = Experiment(options, CONFIGS[config_a])
    experiment_b = Experiment(options, CONFIGS[config_b])
    obs = observability_from_args(args, tool="diff")
    with obs:
        if stack_a == stack_b:
            runner = runner_from_args(args, obs=obs, backend=stack_a[0],
                                      timing_engine=stack_a[1])
            if experiment_a == experiment_b:
                result_a = result_b = runner.run([experiment_a])[0]
            else:
                result_a, result_b = runner.run([experiment_a, experiment_b])
        else:
            # Cache keys leave the stack out, so any record -- from this
            # batch or from disk -- may be the other stack's: each side
            # is simulated on its own stack.
            result_a, result_b = (
                runner_from_args(args, obs=obs, backend=backend,
                                 timing_engine=engine,
                                 cache=ResultCache.disabled())
                .run([experiment])[0]
                for (backend, engine), experiment in (
                    (stack_a, experiment_a), (stack_b, experiment_b)))

        def label(config, stack):
            return f"{args.cipher}/{config} {stack[0]}+{stack[1]}"

        def side(config, stack, result):
            return {
                "label": label(config, stack),
                "cipher": args.cipher,
                "config": config,
                "features": features.label,
                "session_bytes": args.session_bytes,
                "backend": stack[0],
                "timing_engine": stack[1],
                "cached": bool(result.cached),
            }

        section = diff_stats(result_a.stats, result_b.stats)
        report = build_report(
            "stats",
            side(config_a, stack_a, result_a),
            side(config_b, stack_b, result_b),
            identical=stats_identical(section),
            verdict=stats_verdict(section, label(config_a, stack_a),
                                  label(config_b, stack_b)),
            generated_by="repro.tools.diff run",
            stats=section,
        )
    return _emit(report, args)


def _select_run(path: str, run_id: str | None):
    """One run's events from a (possibly multi-run) ledger file."""
    runs = split_runs(load_ledger(path))
    if not runs:
        if run_id is not None:
            raise ValueError(f"{path}: empty ledger has no run {run_id!r}")
        return "", []
    if run_id is None:
        return runs[-1]
    for found_id, events in runs:
        if found_id == run_id:
            return found_id, events
    known = ", ".join(found_id for found_id, _ in runs)
    raise ValueError(f"{path}: no run {run_id!r} (ledger holds: {known})")


def _diff_ledger(args) -> int:
    run_a, events_a = _select_run(args.a, args.a_run)
    run_b, events_b = _select_run(args.b, args.b_run)
    section = diff_ledger_runs(events_a, events_b)
    label_a = f"{args.a}:{run_a or '-'}"
    label_b = f"{args.b}:{run_b or '-'}"
    report = build_report(
        "ledger",
        {"label": label_a, "path": args.a, "run_id": run_a,
         "events": len(events_a)},
        {"label": label_b, "path": args.b, "run_id": run_b,
         "events": len(events_b)},
        identical=ledger_identical(section),
        verdict=ledger_verdict(section, label_a, label_b),
        generated_by="repro.tools.diff ledger",
        phases=section,
    )
    return _emit(report, args)


def _diff_metrics(args) -> int:
    with open(args.a, encoding="utf-8") as handle:
        document_a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        document_b = json.load(handle)
    rows = diff_metrics_docs(document_a, document_b)
    report = build_report(
        "metrics",
        {"label": args.a, "tool": (document_a.get("meta") or {}).get("tool")},
        {"label": args.b, "tool": (document_b.get("meta") or {}).get("tool")},
        identical=metrics_identical(rows),
        verdict=metrics_verdict(rows, args.a, args.b),
        generated_by="repro.tools.diff metrics",
        metrics=rows,
    )
    return _emit(report, args)


def _bisect(args) -> int:
    """Stream both stacks in lockstep and report the first divergence."""
    from repro.runner import Runner

    features = FEATURE_LEVELS[args.features]
    options = ExperimentOptions(
        cipher=args.cipher, features=features,
        session_bytes=args.session_bytes,
    )
    stream_a, stream_b = (
        Runner(jobs=1, backend=backend).kernel_stream(
            options, chunk_size=args.chunk_size)
        for backend in (args.a_backend, args.b_backend))
    label_a = f"{args.cipher}/{args.a_backend or DEFAULT_BACKEND}"
    label_b = f"{args.cipher}/{args.b_backend or DEFAULT_BACKEND}"
    divergence = first_divergence(
        stream_a.source, stream_b.source,
        chunk_size=args.chunk_size, context=args.context,
    )
    if divergence is None:
        print(f"identical: {label_a} and {label_b} produce bit-identical "
              f"traces ({args.session_bytes}B session, "
              f"{features.label} features)")
        return IDENTICAL
    print(format_divergence(divergence, label_a, label_b))
    return DIFFERENT


if __name__ == "__main__":
    raise SystemExit(main())
