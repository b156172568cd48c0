"""Section 8 future-work benchmark: inter-session parallelism.

The paper closes by proposing cryptographic processors that use fine-grained
multithreading to extract parallelism *between* sessions, since one CBC
session is inherently serial.  This benchmark interleaves N independent
sessions on the 8W+ machine: aggregate throughput should scale well past a
single session's recurrence limit, saturating only at shared resources
(issue width, S-box bandwidth).
"""

from conftest import run_once

from repro.analysis import multisession

CIPHERS = ("3DES", "Blowfish", "Twofish", "RC6")
THREADS = (1, 2, 4, 8)


def _measure(session_bytes):
    return {
        name: multisession.measure(
            cipher=name, thread_counts=THREADS, session_bytes=session_bytes
        )
        for name in CIPHERS
    }


def test_inter_session_parallelism(benchmark, session_bytes, show):
    rows = run_once(benchmark, _measure, min(session_bytes, 256))
    show(multisession.render(rows))

    for name, cipher_rows in rows.items():
        by_threads = {row.threads: row for row in cipher_rows}
        # Two independent sessions always beat one (the recurrence breaks).
        assert by_threads[2].speedup_vs_one > 1.3, name
        # Scaling continues to 4 threads for every cipher.
        assert by_threads[4].speedup_vs_one > by_threads[2].speedup_vs_one, name
        # And never regresses catastrophically at 8 (shared-resource
        # saturation is expected; collapse is not).
        assert by_threads[8].speedup_vs_one > 1.5, name

    # The serial-recurrence ciphers scale superbly: at least one reaches 4x.
    best = max(rows[name][-1].speedup_vs_one for name in CIPHERS)
    assert best > 3.5
