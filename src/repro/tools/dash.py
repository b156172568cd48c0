"""Live terminal dashboard for the unified run ledger.

    # attach to a running sweep (tail its --events-out ledger)
    python -m repro.tools.dash --follow telemetry/events.jsonl

    # replay a finished (or cancelled) run, animated
    python -m repro.tools.dash --replay telemetry/events.jsonl

    # deterministic single frame (CI, golden tests)
    python -m repro.tools.dash --once --replay telemetry/events.jsonl

Frames are a pure function of the events consumed so far (see
:mod:`repro.obs.dashboard`): replaying a ledger with ``--once`` prints
*exactly* the final frame a live ``--follow`` session showed, which makes
the output safe to diff in CI.

A ledger file appended to across several invocations holds several runs;
the newest run is rendered by default (``--run`` selects another).
``--follow`` exits when the run's ``runner``/``finish`` event arrives, or
on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.obs.dashboard import DEFAULT_WIDTH, DashState, build_state, render
from repro.obs.events import load_ledger, split_runs

#: Redraw cadence for --follow / animated --replay.
DEFAULT_INTERVAL = 0.5

_CLEAR = "\x1b[2J\x1b[H"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.dash",
                                     description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--follow", metavar="PATH",
        help="attach to a (possibly still growing) ledger and re-render "
             "as events arrive; exits when the run finishes",
    )
    mode.add_argument(
        "--replay", metavar="PATH",
        help="render a recorded ledger: animated frame-by-frame, or a "
             "single deterministic frame with --once",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one frame (the current/final state) and exit; no "
             "screen clearing, safe for CI logs and golden tests",
    )
    parser.add_argument(
        "--run", metavar="RUN_ID", default=None,
        help="render this run_id instead of the newest run in the ledger",
    )
    parser.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL, metavar="SEC",
        help="redraw cadence in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--width", type=int, default=DEFAULT_WIDTH, metavar="COLS",
        help="frame width in columns (default %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.replay:
        return replay(args.replay, run_id=args.run, once=args.once,
                      interval=args.interval, width=args.width)
    return follow(args.follow, run_id=args.run, once=args.once,
                  interval=args.interval, width=args.width)


def _select_run(events: list[dict], run_id: str | None) -> list[dict]:
    runs = split_runs(events)
    if not runs:
        return []
    if run_id is None:
        return runs[-1][1]
    for candidate, run_events in runs:
        if candidate == run_id or candidate.startswith(run_id):
            return run_events
    raise SystemExit(f"run {run_id!r} not found; ledger holds: "
                     + ", ".join(candidate for candidate, _ in runs))


def replay(path: str, *, run_id: str | None = None, once: bool = False,
           interval: float = DEFAULT_INTERVAL,
           width: int = DEFAULT_WIDTH, stream=None) -> int:
    """Render a recorded ledger; deterministic final frame with ``once``."""
    stream = stream or sys.stdout
    try:
        events = _select_run(load_ledger(path), run_id)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if once:
        print(render(build_state(events), width), file=stream)
        return 0
    state = DashState()
    for event in events:
        state.consume(event)
        print(_CLEAR + render(state, width), file=stream, flush=True)
        if interval > 0:
            time.sleep(min(interval, 0.1))
    return 0


def follow(path: str, *, run_id: str | None = None, once: bool = False,
           interval: float = DEFAULT_INTERVAL,
           width: int = DEFAULT_WIDTH, stream=None) -> int:
    """Tail a (possibly live) ledger, re-rendering as events arrive."""
    stream = stream or sys.stdout
    # Wait for the file to appear so `dash --follow` can be started
    # before the sweep it watches.
    while not os.path.exists(path):
        if once:
            raise SystemExit(f"{path}: no such ledger")
        time.sleep(interval or DEFAULT_INTERVAL)
    state = DashState()
    finished = False
    target_run = run_id
    try:
        with open(path, "r", encoding="utf-8") as handle:
            buffer = ""
            while True:
                chunk = handle.read()
                if chunk:
                    buffer += chunk
                    lines = buffer.split("\n")
                    buffer = lines.pop()  # partial trailing line, if any
                    for line in lines:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            event = json.loads(line)
                        except ValueError:
                            continue
                        event_run = event.get("run_id")
                        if target_run is None:
                            # Newest run wins: reset on a fresh run_id.
                            if state.run_id is not None \
                                    and event_run != state.run_id:
                                state = DashState()
                        elif event_run != target_run \
                                and not str(event_run).startswith(target_run):
                            continue
                        state.consume(event)
                        if event.get("source") == "runner" \
                                and event.get("type") == "finish":
                            finished = True
                if once:
                    print(render(state, width), file=stream)
                    return 0
                print(_CLEAR + render(state, width), file=stream, flush=True)
                if finished:
                    return 0
                time.sleep(interval or DEFAULT_INTERVAL)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
