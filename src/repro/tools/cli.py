"""Shared command-line vocabulary for the repro tools.

Every experiment-running CLI in this repository speaks the same flags:

* ``--cipher``         -- suite cipher name (Table 1),
* ``--features``       -- ISA feature level (``norot``/``rot``/``opt``),
* ``--config``         -- machine model name (Table 2 plus the baselines),
* ``--session-bytes``  -- session length in bytes,
* ``--jobs``           -- worker processes for the experiment runner,
* ``--no-cache``       -- bypass the on-disk result cache,
* ``--metrics-out``    -- write a metrics-registry snapshot (JSON),
* ``--trace-out``      -- write a Perfetto trace (Chrome JSON or JSONL),
* ``--profile``        -- sample host stacks, print a subsystem breakdown
  (``--profile-hz`` rate, ``--profile-out`` collapsed stacks),
* ``--events-out``     -- append the unified run ledger (JSONL), rendered
  by ``repro.tools.dash``,
* ``--progress``       -- live progress/ETA line from the runner's fleet
  telemetry (heartbeats, stuck-worker warnings).

The helpers here add those arguments with consistent help text, defaults,
and backwards-compatible aliases, and build a configured
:class:`repro.runner.Runner` (plus an :class:`repro.obs.Observability`
session, whose event bus carries every telemetry output -- metrics,
trace, ledger and progress line are sinks on it) from the parsed
namespace.
"""

from __future__ import annotations

import argparse

from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.obs import Observability
from repro.obs.profiler import DEFAULT_HZ
from repro.runner import ResultCache, Runner
from repro.sim.backends import DEFAULT_BACKEND, backend_names
from repro.sim.timing import DEFAULT_ENGINE, engine_names
from repro.sim import (
    ALPHA21264,
    BASE4W,
    DATAFLOW,
    DEFAULT_CHUNK_SIZE,
    EIGHTW_PLUS,
    FOURW,
    FOURW_PLUS,
)

#: Machine model names accepted by ``--config`` everywhere.
CONFIGS = {
    "base": BASE4W,
    "alpha": ALPHA21264,
    "4W": FOURW,
    "4W+": FOURW_PLUS,
    "8W+": EIGHTW_PLUS,
    "DF": DATAFLOW,
}

#: ISA feature levels accepted by ``--features`` everywhere.
FEATURE_LEVELS = {
    "norot": Features.NOROT,
    "rot": Features.ROT,
    "opt": Features.OPT,
}


def add_cipher_argument(
    parser: argparse.ArgumentParser,
    *,
    required: bool = True,
    choices: tuple[str, ...] = KERNEL_NAMES,
) -> None:
    parser.add_argument(
        "--cipher", required=required, choices=choices,
        help="suite cipher name, e.g. Twofish",
    )


def add_features_argument(
    parser: argparse.ArgumentParser, *, default: str = "opt"
) -> None:
    parser.add_argument(
        "--features", default=default, choices=sorted(FEATURE_LEVELS),
        help="ISA feature level (default %(default)s)",
    )


def add_config_argument(
    parser: argparse.ArgumentParser,
    *,
    multiple: bool = False,
    default=None,
) -> None:
    """``--config NAME`` (or ``--config NAME...`` with ``multiple``).

    ``--configs`` stays as a hidden alias for older scripts.
    """
    if multiple:
        parser.add_argument(
            "--config", "--configs", dest="configs", nargs="+",
            default=list(default or ["4W", "DF"]), choices=sorted(CONFIGS),
            help="machine model(s) (default %(default)s)",
        )
    else:
        parser.add_argument(
            "--config", default=default or "4W", choices=sorted(CONFIGS),
            help="machine model (default %(default)s)",
        )


def add_session_argument(
    parser: argparse.ArgumentParser, *, default: int = 1024
) -> None:
    """``--session-bytes N`` with ``--session`` kept as an alias."""
    parser.add_argument(
        "--session-bytes", "--session", dest="session_bytes", type=int,
        default=default,
        help="session length in bytes (default %(default)s)",
    )


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for timing simulations (default 1: serial)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr (groups done, busy workers, "
             "ETA, stuck-worker warnings); works with any --jobs value",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="trace entries per streamed chunk (default "
             f"{DEFAULT_CHUNK_SIZE}); results are identical at any size",
    )
    add_backend_argument(parser)
    add_timing_engine_argument(parser)
    add_observability_arguments(parser)


def add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """``--backend NAME``: which execution backend runs functional sims.

    Backends are bit-identical (same traces, same cache records); the
    choice only affects speed.  See ``docs/backends.md``.
    """
    parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help="functional execution backend (default: "
             f"{DEFAULT_BACKEND}); results are identical either way",
    )


def add_timing_engine_argument(parser: argparse.ArgumentParser) -> None:
    """``--timing-engine NAME``: which engine runs the timing pipeline.

    Engines are bit-identical (same SimStats, same cache records); the
    choice only affects speed.  See ``docs/timing.md``.
    """
    parser.add_argument(
        "--timing-engine", default=None, choices=engine_names(),
        help="cycle-accurate timing engine (default: "
             f"{DEFAULT_ENGINE}, which tiers up to generated block code "
             "once a program is hot; generic never does); results are "
             "identical either way",
    )


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """``--metrics-out`` / ``--trace-out`` telemetry outputs.

    See ``docs/observability.md`` for the file formats.
    """
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics snapshot (counters, histograms) as JSON",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write runner/simulator spans and fleet activity: "
             "Chrome/Perfetto trace JSON, or one event per line if PATH "
             "ends in .jsonl",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="sample the host's Python stacks during the run and print a "
             "subsystem wall-time breakdown (see docs/observability.md)",
    )
    parser.add_argument(
        "--profile-hz", type=int, default=DEFAULT_HZ, metavar="HZ",
        help="profiler sampling rate (default %(default)s)",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="also write collapsed stacks (flamegraph.pl / speedscope "
             "format); implies --profile",
    )
    parser.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="append the unified run ledger (JSONL, schema "
             "repro.obs.events/1): runner, cache, codegen, bench and "
             "profiler events, with host seconds per phase; render with "
             "repro.tools.dash",
    )


def observability_from_args(
    args: argparse.Namespace, *, tool: str | None = None
) -> Observability:
    """Build an :class:`Observability` session from the telemetry flags.

    Inert (no bus, no profiler) unless an output path, ``--profile`` or
    ``--progress`` was given, so tools can call it unconditionally.
    """
    obs = Observability(
        metrics_out=getattr(args, "metrics_out", None),
        trace_out=getattr(args, "trace_out", None),
        tool=tool,
        profile=getattr(args, "profile", False),
        profile_hz=getattr(args, "profile_hz", DEFAULT_HZ),
        profile_out=getattr(args, "profile_out", None),
        events_out=getattr(args, "events_out", None),
        progress=getattr(args, "progress", False),
    )
    obs.backend = getattr(args, "backend", None) or DEFAULT_BACKEND
    obs.timing_engine = (getattr(args, "timing_engine", None)
                         or DEFAULT_ENGINE)
    return obs


def runner_from_args(
    args: argparse.Namespace, *, obs: Observability | None = None, **kwargs
) -> Runner:
    """Build a :class:`Runner` from ``add_runner_arguments`` flags.

    Pass the tool's :class:`Observability` session as ``obs`` to plumb its
    event bus into the runner; other keywords (``cache`` among them)
    override what the flags select.
    """
    cache = kwargs.pop("cache", None)
    if cache is None:
        cache = (ResultCache.disabled() if getattr(args, "no_cache", False)
                 else ResultCache.from_env())
    if obs is not None:
        kwargs.setdefault("bus", obs.bus)
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None:
        if chunk_size < 1:
            raise SystemExit("--chunk-size must be >= 1")
        kwargs.setdefault("chunk_size", chunk_size)
    kwargs.setdefault("backend", getattr(args, "backend", None))
    kwargs.setdefault("timing_engine", getattr(args, "timing_engine", None))
    return Runner(cache=cache, jobs=getattr(args, "jobs", 1), **kwargs)
