"""Tests for the inter-session parallelism harness (section 8 study)."""

import pytest

from repro.analysis import multisession
from repro.sim import FOURW


def test_interleave_preserves_instruction_count():
    from repro.isa import Features
    from repro.kernels import make_kernel

    runs = []
    for thread in range(2):
        kernel = make_kernel("RC6", Features.OPT)
        kernel.base_offset = multisession.SESSION_STRIDE * thread
        runs.append(kernel.encrypt(bytes(64)))
    merged = multisession.interleave_traces([run.trace for run in runs])
    assert len(merged) == sum(len(run.trace) for run in runs)


def test_interleave_remaps_registers_per_thread():
    from repro.isa import Features
    from repro.kernels import make_kernel

    runs = []
    for thread in range(2):
        kernel = make_kernel("RC6", Features.OPT)
        kernel.base_offset = multisession.SESSION_STRIDE * thread
        runs.append(kernel.encrypt(bytes(32)))
    merged = multisession.interleave_traces([run.trace for run in runs])
    offset = len(runs[0].trace.static.klass)
    # Thread 1's static entries live past the offset with registers >= 32.
    thread1_dests = [d for d in merged.static.dest[offset:] if d >= 0]
    assert thread1_dests and all(d >= 32 for d in thread1_dests)


def test_interleave_taken_flags_preserved():
    from repro.isa import Features
    from repro.kernels import make_kernel

    kernel = make_kernel("RC6", Features.OPT)
    run = kernel.encrypt(bytes(64))
    merged = multisession.interleave_traces([run.trace])
    # Single-thread interleave: flags must agree with adjacency inference.
    for position in range(len(run.trace) - 1):
        if run.trace.static.is_branch[run.trace.seq[position]]:
            assert merged.taken(position) == run.trace.taken(position)


def test_interleave_rejects_empty():
    with pytest.raises(ValueError):
        multisession.interleave_traces([])


def test_two_sessions_beat_one():
    rows = multisession.measure(cipher="Blowfish", thread_counts=(1, 2),
                                session_bytes=128)
    assert rows[1].speedup_vs_one > 1.2
    assert rows[1].total_bytes == 2 * rows[0].total_bytes


def test_merged_trace_simulates_on_any_config():
    rows = multisession.measure(cipher="RC6", thread_counts=(2,),
                                session_bytes=64, config=FOURW)
    assert rows[0].cycles > 0


def test_render():
    rows = {"RC6": multisession.measure(cipher="RC6", thread_counts=(1, 2),
                                        session_bytes=64)}
    text = multisession.render(rows)
    assert "RC6" in text and "thr" in text
