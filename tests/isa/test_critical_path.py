"""The static critical-path oracle must lower-bound the DF machine.

``critical_path`` chases unique-dominating-def chains with per-class
minimum latencies; its bound must never exceed the cycles the dataflow
(infinite-resource) timing simulation reports for the same program --
for every shipped cipher, in both directions, at every feature level.
"""

import pytest

from repro.isa import Features, assemble
from repro.isa.verify import critical_path, verify_program
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.sim import DATAFLOW, Machine, Memory, simulate


def _cases():
    for name in KERNEL_NAMES:
        for features in (Features.NOROT, Features.ROT, Features.OPT):
            yield pytest.param(name, features, id=f"{name}-{features.label}")


@pytest.mark.parametrize("name, features", _cases())
def test_bound_is_sound_for_every_cipher(name, features):
    kernel = make_kernel(name, features=features)
    session = kernel.block_bytes * 2 if kernel.block_bytes > 1 else 32
    run = kernel.encrypt(bytes(range(session % 256)).ljust(session, b"\0"))
    bound = critical_path(run.trace.program)
    simulated = simulate(run.trace, DATAFLOW, run.warm_ranges).cycles
    assert 0 < bound.cycles <= simulated, (
        f"{name}[{features.label}]: static bound {bound.cycles} exceeds "
        f"DF cycles {simulated}"
    )


def test_chain_is_a_dependence_chain():
    program = assemble("""
        ldiq r1, 1
        ldiq r2, 2
        addq r3, r1, r2
        mull r4, r3, r1
        stl  r4, 0(r31)
        halt
    """)
    bound = critical_path(program)
    # ldiq -> addq -> mull -> stl, each producer before its consumer.
    assert bound.chain == sorted(bound.chain)
    assert 3 in bound.chain and 4 in bound.chain
    # 4 chained ops at >= 1 cycle each, mull costs its multiplier latency.
    assert bound.cycles >= 4


def test_bound_covers_only_guaranteed_blocks():
    # The expensive mull sits on a conditional arm: it must not inflate
    # the guaranteed lower bound.
    arm = critical_path(assemble("""
        ldiq r1, 1
        beq  r1, skip
        mull r2, r1, r1
        mull r2, r2, r2
        mull r2, r2, r2
        stl  r2, 0(r31)
    skip:
        halt
    """))
    # Guaranteed path is ldiq -> beq (2 chained cycles); the mull chain on
    # the arm would add >= 3 multiplier latencies if it were counted.
    assert arm.cycles == 2
    assert all(instr_index in (0, 1) for instr_index in arm.chain)


def test_bound_ignores_code_after_an_early_halt():
    # The ten chained multiplies never run: the bound must not count them.
    program = assemble("ldiq r1, 5\nhalt\n" + "mulq r1, r1, r1\n" * 10
                       + "halt")
    trace = Machine(program, Memory(1 << 12)).execute().trace
    simulated = simulate(trace, DATAFLOW).cycles
    assert critical_path(program).cycles <= simulated


def test_verify_result_carries_the_bound():
    result = verify_program(assemble("ldiq r1, 1\nstl r1, 0(r31)\nhalt"))
    assert result.critical_path == critical_path(
        assemble("ldiq r1, 1\nstl r1, 0(r31)\nhalt")
    ).cycles


def test_as_dict_is_json_shaped():
    bound = critical_path(assemble("ldiq r1, 1\nhalt"))
    payload = bound.as_dict()
    assert payload["config"] == DATAFLOW.name
    assert isinstance(payload["cycles"], int)
    assert all(isinstance(index, int) for index in payload["chain"])
