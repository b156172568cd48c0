"""Static lint for the shipped RISC-A kernels.

    python -m repro.tools.lint --all
    python -m repro.tools.lint --kernel Blowfish RC6 --features opt
    python -m repro.tools.lint --all --format json --out lint.json
    python -m repro.tools.lint --all --fail-on warning

Runs the :mod:`repro.isa.verify` checker suite (dataflow lints, branch and
encoding checks, feature gating, scratch discipline, SBox-cache coherence)
plus the static critical-path oracle over kernel and key-setup programs.
``--all`` covers every registered cipher kernel at every feature level, in
both directions, plus every key-setup program -- the configuration CI
enforces with ``--fail-on error``.

``--format json`` emits a ``repro.isa.verify/1`` report document (see
``docs/lint.md``); ``--out`` writes it to a file that
``python -m repro.tools.obs --check`` can validate.  With telemetry on
(``--events-out``, ``--metrics-out``), each program lands on the run
ledger as a ``lint``/``program`` event counting its diagnostics per
checker and severity.  The exit status is non-zero when any program has
a diagnostic at or above ``--fail-on``.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter

from repro.isa.verify import (
    VerifyResult,
    lint_document,
    severity_rank,
    verify_program,
)
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.kernels.setup_registry import SETUP_KERNELS, make_setup
from repro.tools.cli import (
    FEATURE_LEVELS,
    add_observability_arguments,
    observability_from_args,
)

#: Session length used to instantiate kernel programs for linting.  The
#: program shape is independent of the session length (it only changes the
#: loop-count immediate), so two blocks keep the loop structure while
#: staying cheap to analyze.
LINT_BLOCKS = 2


def iter_kernel_programs(names, levels):
    """Yield ``(name, program, features)`` for the requested kernels."""
    for name in names:
        for features in levels:
            kernel = make_kernel(name, features=features)
            session = max(kernel.block_bytes, 1) * LINT_BLOCKS
            if kernel.block_bytes <= 1:
                session = 64
            for decrypt in (False, True):
                direction = "decrypt" if decrypt else "encrypt"
                try:
                    program = kernel.program_for(session, decrypt=decrypt)
                except NotImplementedError:
                    continue
                yield (
                    f"{name}[{features.label}]/{direction}",
                    program,
                    features,
                )


def iter_setup_programs(names):
    """Yield ``(name, program, features)`` for the key-setup kernels."""
    for name in names:
        setup = make_setup(name)
        program = setup.build_program(setup.layout())
        yield f"setup/{name}", program, None


def lint_programs(programs) -> list[VerifyResult]:
    """Verify an iterable of ``(name, program, features)`` triples."""
    return [
        verify_program(program, features=features, name=name)
        for name, program, features in programs
    ]


def render_table(results: list[VerifyResult]) -> str:
    lines = [
        f"{'program':<28} {'instr':>6} {'cp':>5} {'err':>4} {'warn':>5}"
    ]
    for result in results:
        summary = result.summary()
        lines.append(
            f"{result.name:<28} {result.instructions:>6} "
            f"{result.critical_path if result.critical_path is not None else '-':>5} "
            f"{summary['error']:>4} {summary['warning']:>5}"
        )
        for diagnostic in result.diagnostics:
            lines.append(f"    {diagnostic.render()}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.lint",
                                     description=__doc__)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--all", action="store_true",
        help="lint every registered kernel (all feature levels, both "
             "directions) and every key-setup program",
    )
    what.add_argument(
        "--kernel", nargs="+", choices=KERNEL_NAMES, metavar="NAME",
        help="cipher kernel(s) to lint",
    )
    what.add_argument(
        "--setup", nargs="+", choices=sorted(SETUP_KERNELS), metavar="NAME",
        help="key-setup program(s) to lint",
    )
    parser.add_argument(
        "--features", nargs="+", choices=sorted(FEATURE_LEVELS),
        default=None, metavar="LEVEL",
        help="feature level(s) for --kernel (default: all three)",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format on stdout (default %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report document to PATH",
    )
    parser.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="exit non-zero when any diagnostic reaches this severity "
             "(default %(default)s)",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    if args.all:
        levels = [FEATURE_LEVELS[key] for key in ("norot", "rot", "opt")]
        programs = list(iter_kernel_programs(KERNEL_NAMES, levels))
        programs.extend(iter_setup_programs(sorted(SETUP_KERNELS)))
    elif args.kernel:
        keys = args.features or sorted(FEATURE_LEVELS)
        levels = [FEATURE_LEVELS[key] for key in keys]
        programs = list(iter_kernel_programs(args.kernel, levels))
    else:
        programs = list(iter_setup_programs(args.setup))

    obs = observability_from_args(args, tool="lint")
    with obs:
        results = lint_programs(programs)
        if obs.bus is not None:
            for result in results:
                obs.bus.publish("lint", "program", {
                    "program": result.name,
                    **Counter(f"diagnostics.{d.checker}.{d.severity}"
                              for d in result.diagnostics),
                })

    document = lint_document(results)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(render_table(results))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.out}")
    for path in obs.write():
        print(f"wrote {path}")

    floor = severity_rank(args.fail_on)
    failing = [
        result for result in results
        if any(severity_rank(d.severity) >= floor for d in result.diagnostics)
    ]
    if failing:
        print(
            f"FAIL: {len(failing)} of {len(results)} program(s) have "
            f"diagnostics at or above {args.fail_on!r}"
        )
        return 1
    print(f"OK: {len(results)} program(s), nothing at or above "
          f"{args.fail_on!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
