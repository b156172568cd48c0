"""RISC-A assembler/simulator CLI -- the reproduction's sim-outorder.

    python -m repro.tools.riscasim program.s                 # run + stats
    python -m repro.tools.riscasim program.s --config DF     # pick a machine
    python -m repro.tools.riscasim program.s --list          # disassemble
    python -m repro.tools.riscasim program.s --view 0:30     # pipeline view
    python -m repro.tools.riscasim program.s --bottlenecks   # Figure 5 sweep
    python -m repro.tools.riscasim --cipher Blowfish --profile --no-cache
    python -m repro.tools.riscasim --cipher RC4 --no-cache --explain

The program runs against a fresh 1 MB memory; use LDIQ-materialized
addresses and STL/STQ to produce observable results (dumped with --dump).
Timing results are cached on disk keyed by the assembled program's content
hash (bypass with --no-cache); the functional run and the --view pipeline
rendering always execute live.

``--cipher NAME`` runs a suite cipher kernel (with its table/key memory
image) instead of an assembly source -- combined with ``--profile`` it is
the quickest way to see where *host* wall time goes for one cipher run.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from repro.isa import assemble
from repro.kernels import KERNEL_NAMES
from repro.obs.views import CODEGEN
from repro.runner import Experiment, ExperimentOptions
from repro.sim import (
    BOTTLENECKS,
    DATAFLOW_BASEISA,
    Machine,
    Memory,
    bottleneck_config,
    simulate,
)
from repro.sim.pipeview import render_pipeline, stall_summary
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
    parser = argparse.ArgumentParser(prog="repro.tools.riscasim",
                                     description=__doc__)
    parser.add_argument("source", nargs="?",
                        help="assembly file, or - for stdin")
    parser.add_argument(
        "--cipher", choices=KERNEL_NAMES,
        help="run this suite cipher kernel instead of an assembly source",
    )
    add_features_argument(parser)
    add_session_argument(parser)
    add_config_argument(parser)
    parser.add_argument("--list", action="store_true",
                        help="print the disassembly and exit")
    parser.add_argument("--view", metavar="START:END",
                        help="render the pipeline for a trace window")
    parser.add_argument("--bottlenecks", action="store_true",
                        help="run the Figure 5 single-bottleneck sweep")
    parser.add_argument("--dump", metavar="ADDR:LEN",
                        help="hex-dump a memory range after the run")
    parser.add_argument("--memory", type=int, default=1 << 20,
                        help="memory size in bytes")
    parser.add_argument(
        "--explain", action="store_true",
        help="print every code cache's table: the functions the compiled "
             "backend and the timing block schedulers generated (elided "
             "checks, folded constants, codegen time)",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    if bool(args.source) == bool(args.cipher):
        parser.error("give exactly one of: an assembly source, or --cipher")
    if args.cipher and (args.view or args.bottlenecks
                        or args.dump or args.list):
        parser.error("--cipher supports plain stats runs only "
                     "(no --list/--view/--dump/--bottlenecks)")

    config = CONFIGS[args.config]
    obs = observability_from_args(args, tool="riscasim")
    runner = runner_from_args(args, obs=obs)

    if args.cipher:
        options = ExperimentOptions(
            cipher=args.cipher,
            features=FEATURE_LEVELS[args.features],
            session_bytes=args.session_bytes,
        )
        with obs:
            result = runner.run_one(Experiment(options, config))
        print(f"{args.cipher} [{options.features.label}] "
              f"{options.session_bytes}B on {config.name}: "
              f"{result.instructions} instructions; "
              f"{result.stats.summary()}")
        _print_slots(result.stats)
        if args.explain:
            _print_explain()
        _finish(obs)
        return 0

    text = (sys.stdin.read() if args.source == "-"
            else open(args.source).read())
    program = assemble(text)
    if args.list:
        print(program.listing())
        return 0

    memory = Memory(args.memory)
    machine = Machine(program, memory)
    key_base = ["riscasim", program.digest(), args.memory]
    # --view/--bottlenecks replay the trace and --dump needs the post-run
    # memory image, so those runs materialize; a plain stats run streams
    # chunk by chunk (bounded trace memory).
    with obs:
        if args.view or args.bottlenecks or args.dump:
            trace = source = machine.execute(backend=runner.backend).trace
        else:
            trace = None
            source = machine.execute(stream=True, backend=runner.backend,
                                     chunk_size=runner.chunk_size)
        stats = runner.simulate(source, [config], key_parts=key_base)[0]
        if args.bottlenecks:
            configs = [DATAFLOW_BASEISA,
                       *(bottleneck_config(which) for which in BOTTLENECKS)]
            dataflow, *limited = (
                result.cycles for result
                in runner.simulate(trace, configs, key_parts=key_base)
            )
    print(f"{stats.instructions} instructions; {stats.summary()}")
    _print_slots(stats)

    if args.dump:
        address, length = (int(part, 0) for part in args.dump.split(":"))
        print(memory.read_bytes(address, length).hex())

    if args.view:
        start, end = (int(part) for part in args.view.split(":"))
        window_stats = simulate(trace, config, schedule_range=(start, end))
        schedule = window_stats.extra["schedule"]
        print(render_pipeline(trace, schedule))
        print(", ".join(f"{k}={v:.1f}"
                        for k, v in stall_summary(schedule).items()))

    if args.bottlenecks:
        print(f"{'bottleneck':<10} rel-to-DF")
        for which, cycles in zip(BOTTLENECKS, limited):
            print(f"{which:<10} {dataflow / cycles:.3f}")

    if args.explain:
        _print_explain()
    _finish(obs)
    return 0


def _print_explain() -> None:
    for _family, module in CODEGEN.values():
        print(import_module(module).CODE.explain())


def _print_slots(stats) -> None:
    fractions = stats.stall_fractions()
    if fractions:
        print("issue slots: " + ", ".join(
            f"{name} {share:.1%}" for name, share in fractions.items()
        ))


def _finish(obs) -> None:
    for line in obs.report():
        print(line)
    for path in obs.write():
        print(f"wrote {path}")


if __name__ == "__main__":
    raise SystemExit(main())
