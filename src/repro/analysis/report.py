"""Full-evaluation driver: regenerate every table and figure in one call.

``python -m repro.analysis.report [--session-bytes N] [--jobs N]
[--no-cache]`` prints the complete reproduction of the paper's evaluation
section.  Every experiment flows through one shared
:class:`repro.runner.Runner`, so functional traces are simulated once,
timing runs fan out across ``--jobs`` worker processes, and a re-run with a
warm on-disk cache touches no simulator at all.  The benchmark suite under
``benchmarks/`` calls the same entry points one experiment at a time.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import (
    bottlenecks,
    opmix,
    setup_cost,
    speedups,
    ssl_model,
    tables,
    throughput,
    value_prediction,
)
from repro.runner import Runner


def full_report(
    session_bytes: int = 1024,
    stream=sys.stdout,
    *,
    runner: Runner | None = None,
) -> None:
    """Run every experiment and print the paper-format results."""
    from repro.runner import default_runner

    runner = runner or default_runner()

    def emit(text: str) -> None:
        print(text, file=stream)
        print(file=stream)

    start = time.time()
    emit(tables.render_table1())
    emit(ssl_model.render_figure2(ssl_model.figure2()))
    emit(throughput.render_figure4(
        throughput.figure4(session_bytes, runner=runner)
    ))
    emit(bottlenecks.render_figure5(
        bottlenecks.figure5(session_bytes, runner=runner)
    ))
    emit(setup_cost.render_figure6(setup_cost.figure6(runner=runner)))
    emit(opmix.render_figure7(
        opmix.figure7(min(session_bytes, 512), runner=runner)
    ))
    emit(value_prediction.render(
        value_prediction.study(min(session_bytes, 512), runner=runner)
    ))
    emit(tables.render_table2())
    emit(speedups.render_figure10(
        speedups.figure10(session_bytes, runner=runner)
    ))
    print(f"[report generated in {time.time() - start:.1f}s, "
          f"session={session_bytes}B; {runner.stats.summary()}]",
          file=stream)


def main(argv: list[str] | None = None) -> int:
    from repro.tools.cli import (
        add_runner_arguments,
        add_session_argument,
        observability_from_args,
        runner_from_args,
    )

    parser = argparse.ArgumentParser(description=__doc__)
    add_session_argument(parser)
    add_runner_arguments(parser)
    args = parser.parse_args(argv)
    obs = observability_from_args(args, tool="report")
    with obs:
        start = obs.bus.now() if obs.bus is not None else 0.0
        full_report(
            session_bytes=args.session_bytes,
            runner=runner_from_args(args, obs=obs),
        )
        if obs.bus is not None:
            # One umbrella span: the whole report as a top-level track.
            obs.bus.publish("report", "full-report", {
                "session_bytes": args.session_bytes,
                "start": start, "seconds": obs.bus.now() - start,
            })
    for line in obs.report():
        print(line)
    for path in obs.write():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
