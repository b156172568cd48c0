"""Acceptance benchmark: the compiled backend beats the interpreter >= 10x.

The tentpole claim for the execution-backend redesign is that compiling a
finalized program into a specialized Python generator buys an order of
magnitude of functional-simulation throughput with *bit-identical*
results.  This benchmark runs the same traceless RC4 session through both
backends, asserts identity (ciphertext, final memory, instruction count),
measures instructions/second, and records the numbers to
``BENCH_compiled.json``.

Session length defaults to 64 KiB so CI finishes in seconds; the
committed artifact was generated with ``REPRO_BACKEND_BENCH_BYTES=1048576``
(the paper-scale 1 MiB session), where the >= 10x acceptance bar applies.
Compiled wall time *includes* code generation: the cache is cleared first,
so the reported speedup is what a cold run actually sees.
"""

import json
import os
import time
from pathlib import Path

from repro.kernels import make_kernel
from repro.sim import Machine
from repro.sim.backends import compiled as compiled_mod

BENCH_BYTES = int(os.environ.get("REPRO_BACKEND_BENCH_BYTES", "65536"))
BENCH_OUT = Path(os.environ.get("REPRO_BACKEND_BENCH_OUT",
                                "BENCH_compiled.json"))
#: The paper-scale acceptance bar.  Short CI sessions amortize the one-time
#: code generation over fewer instructions, so the floor scales down.
SPEEDUP_FLOOR = 10.0 if BENCH_BYTES >= 1 << 20 else 2.5


def _run(backend: str):
    kernel = make_kernel("RC4")
    program, memory, layout = kernel.prepare(bytes(BENCH_BYTES), None)
    machine = Machine(program, memory)
    start = time.perf_counter()
    result = machine.execute(backend=backend, record_trace=False)
    elapsed = time.perf_counter() - start
    output = memory.read_bytes(layout.output, BENCH_BYTES)
    return result, elapsed, output, machine


def test_compiled_backend_speedup(show):
    compiled_mod.CODE.clear()  # charge codegen to the compiled run
    interp, interp_time, interp_out, interp_machine = _run("interpreter")
    compiled, compiled_time, compiled_out, compiled_machine = _run("compiled")

    # Bit-identical: same ciphertext, same counters, same final state.
    assert compiled_out == interp_out
    assert compiled.instructions == interp.instructions
    assert compiled_machine.regs == interp_machine.regs
    assert bytes(compiled_machine.memory.data) == \
        bytes(interp_machine.memory.data)

    interp_ips = interp.instructions / interp_time
    compiled_ips = compiled.instructions / compiled_time
    speedup = compiled_ips / interp_ips

    report = {
        "session_bytes": BENCH_BYTES,
        "cipher": "RC4",
        "record_trace": False,
        "instructions": compiled.instructions,
        "interpreter_seconds": round(interp_time, 3),
        "compiled_seconds": round(compiled_time, 3),
        "interpreter_instructions_per_second": round(interp_ips),
        "compiled_instructions_per_second": round(compiled_ips),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n")
    show(
        f"RC4 {BENCH_BYTES}B traceless: interpreter "
        f"{interp_ips / 1e6:.2f}M instr/s, compiled "
        f"{compiled_ips / 1e6:.2f}M instr/s -> {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x) -> {BENCH_OUT}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled backend only {speedup:.2f}x over the interpreter "
        f"(interpreter {interp_time:.3f}s, compiled {compiled_time:.3f}s)"
    )
