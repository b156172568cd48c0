"""Timing-engine throughput: the specialized engine against the generic one.

This benchmark runs the repository's canonical timing run -- one RC4
session across the standard machine grid {4W, 8W+, DF} -- through both
engines over the full trace, asserts bit-identical SimStats on every leg,
measures timing-path instructions/second per leg, and records the numbers
to ``BENCH_timing.json``.

Both engines run one per-entry scheduler loop over the same stage state
(a byte-map store queue, a scalar retire frontier), so the generic
engine costs the same per entry at any session length on every config,
DF included, and every leg is measured, none extrapolated.  The
specialized engine's gain is its generated per-block code alone.

Session length defaults to 64 KiB so CI finishes in seconds; the
committed artifact was generated with ``REPRO_TIMING_BENCH_BYTES=1048576``
(the paper-scale 1 MiB session).  Specialized wall time *includes* code
generation: the code cache is cleared first, so the reported speedup is
what a cold run actually sees.

The floor, 1.6x at any session length, sits below the measured aggregate
speedups: 1.68x at 1 MiB (DF 2.8x) and 1.70-1.77x at 64 KiB over two
runs, on a 2-vCPU Xeon whose speed drifts by 10-80% over minutes.  The
ratio shrinks as the generic per-entry loop gets cheaper: it was
1.92-2.11x at 1 MiB and 2.16-2.34x at 64 KiB before the loop's per-static
op table, inline uncontended issue and flat cache-hierarchy access.  The
floors were 5x (1 MiB) and 2.5x (64 KiB) while the generic engine scanned
the whole store history per load, which made its DF leg quadratic in
session length and most of the generic total.
"""

import json
import os
import time
from pathlib import Path

from repro.kernels import make_kernel
from repro.obs.diffing import explain_stats_delta
from repro.sim.config import DATAFLOW, EIGHTW_PLUS, FOURW
from repro.sim.timing import make_pipeline, specialized as specialized_mod

BENCH_BYTES = int(os.environ.get("REPRO_TIMING_BENCH_BYTES", "65536"))
BENCH_OUT = Path(os.environ.get("REPRO_TIMING_BENCH_OUT",
                                "BENCH_timing.json"))
#: See the module docstring for the measurements behind it.
SPEEDUP_FLOOR = 1.6

CONFIGS = (FOURW, EIGHTW_PLUS, DATAFLOW)


def _feed(kernel_run, config, engine):
    """Time one pipeline over the whole trace; returns (stats, seconds)."""
    trace = kernel_run.trace
    pipe = make_pipeline(config, trace.static, trace.program,
                         warm_ranges=kernel_run.warm_ranges, engine=engine)
    start = time.perf_counter()
    for chunk in trace.chunks(4096):
        pipe.feed(chunk)
    stats = pipe.finish()
    return stats, time.perf_counter() - start


def test_specialized_timing_speedup(show):
    specialized_mod.CODE.clear()  # charge codegen to the specialized runs
    kernel_run = make_kernel("RC4").encrypt(bytes(BENCH_BYTES))
    total_instructions = len(kernel_run.trace)

    legs = {}
    seconds = {"generic": 0.0, "specialized": 0.0}
    for config in CONFIGS:
        stats = {}
        for engine in ("generic", "specialized"):
            stats[engine], elapsed = _feed(kernel_run, config, engine)
            seconds[engine] += elapsed
            legs[f"{config.name}/{engine}"] = {
                "instructions_measured": total_instructions,
                "seconds": round(elapsed, 3),
                "instructions_per_second": round(
                    total_instructions / elapsed),
            }
        assert stats["specialized"] == stats["generic"], (
            f"{config.name}: " + explain_stats_delta(
                stats["generic"], stats["specialized"],
                "generic", "specialized"))

    speedup = seconds["generic"] / seconds["specialized"]
    report = {
        "session_bytes": BENCH_BYTES,
        "cipher": "RC4",
        "configs": [config.name for config in CONFIGS],
        "instructions": total_instructions,
        "generic_seconds": round(seconds["generic"], 3),
        "specialized_seconds": round(seconds["specialized"], 3),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "legs": legs,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n")
    show(
        f"RC4 {BENCH_BYTES}B timing grid {{4W, 8W+, DF}}: generic "
        f"{seconds['generic']:.2f}s, specialized "
        f"{seconds['specialized']:.2f}s -> {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x) -> {BENCH_OUT}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"specialized timing engine only {speedup:.2f}x over generic "
        f"(generic {seconds['generic']:.3f}s, "
        f"specialized {seconds['specialized']:.3f}s)"
    )
