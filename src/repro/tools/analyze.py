"""Static cycle-cost bounds for the shipped kernels, checked against sim.

    python -m repro.tools.analyze --all
    python -m repro.tools.analyze --cipher RC4 IDEA --config 4W 8W+
    python -m repro.tools.analyze --all --format json --out analysis.json
    python -m repro.tools.analyze --cipher Blowfish --static-only

For each cipher x feature level x machine model this runs the functional
kernel once, brackets its cycle count with the static cost model
(:func:`repro.isa.analysis.estimate_cost`: dependence-height/throughput
lower bound, block-granular list-scheduling upper bound), runs the timing
simulator on the same trace, and asserts soundness::

    lower_bound <= simulated cycles <= upper_bound

``--all`` sweeps every cipher at every feature level over the paper's
4W / 8W+ / DF models -- the matrix CI enforces.  Any unsound cell makes
the exit status non-zero.  ``--static-only`` skips the simulations and
reports bounds alone (no soundness check, always exits 0).

``--format json`` emits a ``repro.isa.analysis/1`` report document (see
``docs/analysis.md``); ``--out`` writes it to a file that
``python -m repro.tools.obs --check`` can validate.  With ``--events-out``
each cell also lands on the run ledger as an ``analysis``/``estimate``
event (rendered by ``repro.tools.dash``); ``--metrics-out`` folds those
events into ``analysis.*`` counters and gap gauges.
"""

from __future__ import annotations

import argparse
import json

from repro.isa.analysis import analyses_for, estimate_cost
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.obs import ANALYSIS_SCHEMA, publish_event
from repro.tools.cli import (
    CONFIGS,
    FEATURE_LEVELS,
    add_observability_arguments,
    add_session_argument,
    observability_from_args,
)

#: Machine models ``--all`` sweeps: the paper's enhanced 4-wide and
#: 8-wide models plus the dataflow limit (the three the soundness matrix
#: in ``tests/isa/test_cost_model.py`` pins).
SWEEP_CONFIGS = ("4W", "8W+", "DF")

#: Default session length for the sweep: a multiple of every kernel's
#: block size, long enough to execute the steady-state loop several
#: times, short enough that the full 72-cell matrix stays interactive.
DEFAULT_SESSION = 128


def analyze_cell(cipher, features, config_name, session_bytes,
                 simulate_cycles=True):
    """Bracket (and optionally simulate) one cipher/features/config cell.

    Returns the cell as a plain ``repro.isa.analysis/1`` program entry.
    """
    kernel = make_kernel(cipher, features=features)
    run = kernel.encrypt(bytes(session_bytes))
    name = f"{cipher}[{features.label}]"
    report = estimate_cost(
        run.trace.program, CONFIGS[config_name], run.trace,
        run.warm_ranges,
        analyses=analyses_for(run.trace.program), name=name,
    )
    cell = {
        "program": name,
        "config": config_name,
        "instructions": report.instructions,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "gap": round(report.gap, 4),
        "components": dict(report.components),
    }
    if simulate_cycles:
        from repro.sim.timing import simulate

        stats = simulate(run.trace, CONFIGS[config_name], run.warm_ranges)
        cell["simulated_cycles"] = stats.cycles
        cell["sound"] = (
            report.lower_bound <= stats.cycles <= report.upper_bound
        )
    publish_event("analysis", "estimate", {
        "program": cell["program"],
        "config": cell["config"],
        "lower": cell["lower_bound"],
        "upper": cell["upper_bound"],
        "simulated": cell.get("simulated_cycles"),
        "sound": cell.get("sound"),
        "gap": cell["gap"],
    })
    return cell


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return None
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def analysis_document(cells, session_bytes,
                      *, tool="repro.tools.analyze") -> dict:
    """Render analyzed cells as a ``repro.isa.analysis/1`` document."""
    summary = {
        "programs": len(cells),
        "session_bytes": session_bytes,
        "unsound": sum(1 for cell in cells if cell.get("sound") is False),
    }
    for config_name in sorted({cell["config"] for cell in cells}):
        median = _median([
            cell["gap"] for cell in cells if cell["config"] == config_name
        ])
        if median is not None:
            summary[f"median_gap_{config_name}"] = round(median, 4)
    return {
        "schema": ANALYSIS_SCHEMA,
        "generated_by": tool,
        "programs": list(cells),
        "summary": summary,
    }


def render_table(cells) -> str:
    lines = [
        f"{'program':<20} {'config':<6} {'instr':>7} {'lower':>8} "
        f"{'sim':>8} {'upper':>8} {'gap':>7}  sound"
    ]
    for cell in cells:
        simulated = cell.get("simulated_cycles")
        sound = cell.get("sound")
        lines.append(
            f"{cell['program']:<20} {cell['config']:<6} "
            f"{cell['instructions']:>7} {cell['lower_bound']:>8} "
            f"{simulated if simulated is not None else '-':>8} "
            f"{cell['upper_bound']:>8} {cell['gap']:>6.2f}x  "
            f"{'-' if sound is None else 'yes' if sound else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.analyze",
                                     description=__doc__)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--all", action="store_true",
        help="analyze every cipher at every feature level over "
             f"{'/'.join(SWEEP_CONFIGS)} (the CI soundness matrix)",
    )
    what.add_argument(
        "--cipher", nargs="+", choices=KERNEL_NAMES, metavar="NAME",
        help="cipher kernel(s) to analyze",
    )
    parser.add_argument(
        "--features", nargs="+", choices=sorted(FEATURE_LEVELS),
        default=None, metavar="LEVEL",
        help="feature level(s) for --cipher (default: all three)",
    )
    parser.add_argument(
        "--config", "--configs", dest="configs", nargs="+",
        choices=sorted(CONFIGS), default=list(SWEEP_CONFIGS),
        metavar="NAME",
        help="machine model(s) (default %(default)s)",
    )
    add_session_argument(parser, default=DEFAULT_SESSION)
    parser.add_argument(
        "--static-only", action="store_true",
        help="skip the timing simulations; report bounds without the "
             "soundness check",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format on stdout (default %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report document to PATH",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    if args.all:
        ciphers = list(KERNEL_NAMES)
        levels = [FEATURE_LEVELS[key] for key in ("norot", "rot", "opt")]
    else:
        ciphers = args.cipher
        keys = args.features or sorted(FEATURE_LEVELS)
        levels = [FEATURE_LEVELS[key] for key in keys]

    obs = observability_from_args(args, tool="analyze")
    with obs:
        cells = [
            analyze_cell(cipher, features, config_name, args.session_bytes,
                         simulate_cycles=not args.static_only)
            for cipher in ciphers
            for features in levels
            for config_name in args.configs
        ]

    document = analysis_document(cells, args.session_bytes)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(render_table(cells))
        summary = document["summary"]
        gaps = ", ".join(
            f"{key[len('median_gap_'):]} {value:.2f}x"
            for key, value in summary.items()
            if key.startswith("median_gap_")
        )
        if gaps:
            print(f"median upper/lower gap: {gaps}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.out}")
    for path in obs.write():
        print(f"wrote {path}")

    unsound = [cell for cell in cells if cell.get("sound") is False]
    if unsound:
        print(f"FAIL: {len(unsound)} of {len(cells)} cell(s) violate "
              "lower <= simulated <= upper")
        for cell in unsound:
            print(f"  {cell['program']} {cell['config']}: "
                  f"{cell['lower_bound']} <= {cell['simulated_cycles']} "
                  f"<= {cell['upper_bound']} is false")
        return 1
    checked = sum(1 for cell in cells if cell.get("sound") is True)
    print(f"OK: {len(cells)} cell(s), {checked} checked against "
          "simulation, all sound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
