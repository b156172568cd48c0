"""Inter-session parallelism study (the paper's section 8 future work).

The paper closes by proposing *cryptographic processors* that use
fine-grained multithreading to extract inter-session parallelism: one CBC
session is a serial recurrence, but a secure web server or VPN router
encrypts many independent sessions concurrently.

This harness builds that experiment on the existing substrate: N sessions
of the same cipher (disjoint keys-by-layout address spaces, per-thread
architectural registers) are interleaved round-robin -- the instruction mix
a fine-grained multithreaded fetch stage would supply -- and run through the
shared-resource timing model.  Aggregate throughput versus thread count
shows how quickly independent sessions fill the machine that a single
session cannot.

Per-session functional traces come from the runner (deduped with every
other harness that touches the same cipher/key/offset combination), and the
interleaved timing simulations are disk-cached keyed by the component
session fingerprints plus the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.rows import Row, coerce_options
from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.runner import ExperimentOptions, Runner, default_runner
from repro.sim import MachineConfig, EIGHTW_PLUS
from repro.sim.trace import StaticInfo, Trace

#: Address-space stride between sessions: ~1 MB apart (disjoint), staggered
#: by a non-power-of-two amount so sessions do not alias onto the same cache
#: sets, and 1KB-aligned as the SBOX instruction requires.
SESSION_STRIDE = 0x100000 + 0x4C00

DEFAULT_SESSION_BYTES = 512
DEFAULT_THREAD_COUNTS = (1, 2, 4, 8)


def interleave_traces(traces: list[Trace]) -> Trace:
    """Round-robin merge of per-session traces into one multithreaded trace.

    Each thread gets its own 32-register window (the per-thread register
    file of a fine-grained MT core) and its own copy of the static arrays;
    branch outcomes are precomputed since adjacency no longer encodes them.
    """
    if not traces:
        raise ValueError("need at least one trace")
    merged_static = StaticInfo([], [], [], [], [], [], [], [], [], [], [],
                               [], [], [])
    offsets = []
    for thread, trace in enumerate(traces):
        source = trace.static
        offsets.append(len(merged_static.klass))
        reg_base = 32 * thread
        merged_static.klass.extend(source.klass)
        merged_static.dest.extend(
            d if d < 0 else d + reg_base for d in source.dest
        )
        merged_static.srcs.extend(
            tuple(r + reg_base for r in sources) for sources in source.srcs
        )
        merged_static.addr_srcs.extend(
            tuple(r + reg_base for r in sources)
            for sources in source.addr_srcs
        )
        for name in ("is_load", "is_store", "is_branch", "is_cond_branch",
                     "mem_size", "sbox_table", "sbox_aliased", "is_sync",
                     "category", "is_flag"):
            getattr(merged_static, name).extend(getattr(source, name))

    seq: list[int] = []
    addrs: list[int] = []
    taken: list[bool] = []
    cursors = [0] * len(traces)
    live = True
    while live:
        live = False
        for thread, trace in enumerate(traces):
            position = cursors[thread]
            if position >= len(trace.seq):
                continue
            live = True
            seq.append(trace.seq[position] + offsets[thread])
            addrs.append(trace.addrs[position])
            taken.append(trace.taken(position))
            cursors[thread] = position + 1
    return Trace(
        program=traces[0].program,
        static=merged_static,
        seq=seq,
        addrs=addrs,
        instructions_executed=len(seq),
        taken_flags=taken,
    )


@dataclass
class MultisessionRow(Row):
    cipher: str
    threads: int
    total_bytes: int
    cycles: int
    aggregate_rate: float          # bytes / 1000 cycles across all sessions
    speedup_vs_one: float = 1.0


def session_options(
    base: ExperimentOptions, thread: int
) -> ExperimentOptions:
    """The options for session *thread* of a multisession run: its own key,
    payload, and a disjoint slice of the address space."""
    return base.with_(
        key=bytes(
            (thread * 31 + i) & 0xFF or 1
            for i in range(_key_bytes(base.cipher))
        ),
        plaintext=bytes(
            (thread * 17 + i) & 0xFF for i in range(base.session_bytes)
        ),
        base_offset=SESSION_STRIDE * thread,
    )


def default_options(
    session_bytes: int = DEFAULT_SESSION_BYTES,
    ciphers: tuple[str, ...] = KERNEL_NAMES,
    features: Features = Features.OPT,
) -> list[ExperimentOptions]:
    return [
        ExperimentOptions(
            cipher=name, features=features, session_bytes=session_bytes
        )
        for name in ciphers
    ]


def run(
    options=None,
    *,
    thread_counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS,
    config: MachineConfig = EIGHTW_PLUS,
    runner: Runner | None = None,
) -> list[MultisessionRow]:
    """Aggregate throughput of N interleaved sessions per option, one row
    per (cipher, thread count)."""
    runner = runner or default_runner()
    option_list = coerce_options(options, default_options)
    rows = []
    for opt in option_list:
        max_threads = max(thread_counts)
        per_thread = [
            session_options(opt, thread) for thread in range(max_threads)
        ]
        runs = [runner.functional(o) for o in per_thread]
        fingerprints = [runner.fingerprint(o) for o in per_thread]
        base_rate = None
        for threads in thread_counts:
            merged = interleave_traces([run.trace for run in runs[:threads]])
            warm = [r for run in runs[:threads] for r in run.warm_ranges]
            stats = runner.simulate(
                merged,
                [config],
                warm,
                key_parts=["multisession", fingerprints[:threads], threads],
            )[0]
            total_bytes = threads * opt.session_bytes
            rate = stats.bytes_per_kilocycle(total_bytes)
            if base_rate is None:
                base_rate = rate
            rows.append(MultisessionRow(
                cipher=opt.cipher,
                threads=threads,
                total_bytes=total_bytes,
                cycles=stats.cycles,
                aggregate_rate=rate,
                speedup_vs_one=rate / base_rate,
            ))
    return rows


def measure(
    *,
    cipher: str,
    thread_counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS,
    session_bytes: int = DEFAULT_SESSION_BYTES,
    config: MachineConfig = EIGHTW_PLUS,
    features: Features = Features.OPT,
    runner: Runner | None = None,
) -> list[MultisessionRow]:
    """Aggregate throughput of N interleaved sessions of one cipher."""
    return run(
        ExperimentOptions(
            cipher=cipher, features=features, session_bytes=session_bytes
        ),
        thread_counts=thread_counts,
        config=config,
        runner=runner,
    )


def _key_bytes(name: str) -> int:
    from repro.ciphers.suite import SUITE_BY_NAME

    return SUITE_BY_NAME[name].key_bytes


def render(rows_by_cipher: dict[str, list[MultisessionRow]]) -> str:
    thread_counts = [row.threads for row in next(iter(rows_by_cipher.values()))]
    lines = [
        "Inter-session parallelism (sec 8): aggregate bytes/1000cyc on 8W+",
        f"{'Cipher':<10}" + "".join(f"{t:>4} thr" for t in thread_counts)
        + "   scaling",
    ]
    for name, rows in rows_by_cipher.items():
        cells = "".join(f"{row.aggregate_rate:>8.1f}" for row in rows)
        lines.append(f"{name:<10}{cells}   x{rows[-1].speedup_vs_one:.2f}")
    return "\n".join(lines)
