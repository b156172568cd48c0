"""Acceptance benchmark: streaming bounds trace memory at no throughput cost.

The runner times a group from whatever trace source it finds.  The batch
leg materializes the whole dynamic trace first (``runner.functional``,
then ``runner.run`` feeds it from memory: 16 bytes per entry, so a 1 MiB
RC4 session holds ~340 MB of trace); the streaming leg lets ``runner.run``
execute the kernel as a live stream, keeping one chunk plus the
pipeline's O(window + prune_interval) state.  This benchmark runs the
same session both ways, asserts the bounded-memory contract and
throughput parity, and records the numbers to ``BENCH_streaming.json``.

Throughput is measured without instrumentation; the ``tracemalloc``
whole-process assertion runs on a smaller session (tracing every
allocation slows the interpreter ~50x) -- the streaming state it bounds
does not grow with session length, which is exactly the claim.

Both paths run the fastest shipped stack (``backend="compiled"``,
``timing_engine="specialized"``): the claim under test is stream/batch
parity, which holds for any backend/engine pairing, and the committed
artifact should reflect what a current run costs.

Session length defaults to 16 KiB so CI finishes in seconds; the
committed artifact was generated with ``REPRO_STREAM_BENCH_BYTES=1048576``
(the paper-scale 1 MiB session).
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

from repro.runner import Experiment, ExperimentOptions, ResultCache, Runner
from repro.sim import FOURW

BENCH_BYTES = int(os.environ.get("REPRO_STREAM_BENCH_BYTES", "16384"))
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_streaming.json"))
TRACED_BYTES = min(BENCH_BYTES, 4096)
CHUNK_SIZE = 4096
#: Streaming must never hold more dynamic-trace payload than one chunk.
CHUNK_BYTES_CAP = CHUNK_SIZE * 16
#: Fixed tracemalloc ceiling for a whole streaming run: chunk buffers,
#: pipeline state, kernel memory image -- none of it scales with the
#: session, so the cap is a constant.
TRACEMALLOC_CAP = 24 * 1024 * 1024


def _run(session_bytes: int, stream: bool):
    runner = Runner(cache=ResultCache.disabled(), chunk_size=CHUNK_SIZE,
                    backend="compiled", timing_engine="specialized")
    options = ExperimentOptions(cipher="RC4", session_bytes=session_bytes)
    start = time.perf_counter()
    if not stream:
        runner.functional(options)
    results = runner.run([Experiment(options, FOURW)])
    elapsed = time.perf_counter() - start
    return results[0], elapsed, runner.stats.peak_trace_bytes


def test_streaming_bounds_trace_memory(show):
    streamed, stream_time, stream_peak = _run(BENCH_BYTES, stream=True)
    batch, batch_time, batch_peak = _run(BENCH_BYTES, stream=False)

    # Bit-identical results either way.
    assert streamed.stats == batch.stats
    assert streamed.instructions == batch.instructions

    # The bounded-memory contract: one chunk, regardless of session size.
    assert 0 < stream_peak <= CHUNK_BYTES_CAP
    memory_ratio = batch_peak / stream_peak
    assert memory_ratio >= 10.0, (
        f"streaming only {memory_ratio:.1f}x below batch trace memory"
    )

    # Throughput: streaming must not meaningfully regress.  The committed
    # BENCH_streaming.json records the precise ratio at 1 MiB (the <= 5%
    # acceptance bound); here a loose cap keeps CI robust to timer noise.
    slowdown = stream_time / batch_time if batch_time else 1.0
    assert slowdown <= 1.25, (
        f"streaming {slowdown:.2f}x slower than batch"
    )

    # Whole-process bound under tracemalloc: streaming state is constant,
    # so a fixed cap holds no matter the session length.
    tracemalloc.start()
    traced_result, _, traced_peak_trace = _run(TRACED_BYTES, stream=True)
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced_result.stats.cycles > 0
    assert traced_peak_trace <= CHUNK_BYTES_CAP
    assert traced_peak <= TRACEMALLOC_CAP, (
        f"streaming run traced {traced_peak} bytes, cap {TRACEMALLOC_CAP}"
    )

    report = {
        "session_bytes": BENCH_BYTES,
        "cipher": "RC4",
        "config": "4W",
        "chunk_size": CHUNK_SIZE,
        "instructions": streamed.instructions,
        "cycles": streamed.stats.cycles,
        "stream_seconds": round(stream_time, 3),
        "batch_seconds": round(batch_time, 3),
        "stream_over_batch": round(slowdown, 4),
        "stream_peak_trace_bytes": stream_peak,
        "batch_peak_trace_bytes": batch_peak,
        "trace_memory_ratio": round(memory_ratio, 1),
        "tracemalloc_session_bytes": TRACED_BYTES,
        "tracemalloc_peak_bytes": traced_peak,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n")
    show(
        f"streaming {BENCH_BYTES}B session: trace memory "
        f"{stream_peak}B vs {batch_peak}B ({memory_ratio:.0f}x), "
        f"wall {stream_time:.2f}s vs {batch_time:.2f}s "
        f"({slowdown:.2f}x) -> {BENCH_OUT}"
    )
