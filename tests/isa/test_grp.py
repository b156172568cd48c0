"""Tests for the GRP instruction and its permutation decomposition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, KernelBuilder
from repro.isa.grp import grp_apply, grp_controls, grp_controls_for_transform
from repro.sim import Memory
from tests.isa.backend_run import every_backend, execute, run_source


def test_grp_semantics_basic():
    # Control 0b0101: bits 0,2 have control 1 -> they pack above bits 1,3.
    # value bits: b0..b3; zeros group = (b1, b3) at positions 0,1;
    # ones group = (b0, b2) at positions 2,3.
    value = 0b1010  # b1=1, b3=1
    assert grp_apply(value, 0b0101, 4) == 0b0011


def test_grp_identity_control_zero():
    assert grp_apply(0xDEADBEEF, 0, 32) == 0xDEADBEEF


def test_grp_control_all_ones_is_identity():
    assert grp_apply(0xDEADBEEF, 0xFFFFFFFF, 32) == 0xDEADBEEF


@every_backend
def test_grp_instruction_matches_reference(backend, operands):
    """The simulator's GRPQ and GRPL against the independent ``grp_apply``."""
    for opname, width in (("grpq", 64), ("grpl", 32)):
        random.seed(8)
        for _ in range(10):
            value = random.getrandbits(64)
            control = random.getrandbits(64)
            memory = Memory(1 << 16)
            run_source(f"""
            ldiq r1, {value}
            ldiq r2, {control}
            {opname} r3, r1, r2
            stq r3, 0x400(r31)
            halt
            """, memory, backend, operands)
            assert memory.read(0x400, 8) == grp_apply(value, control, width)


@every_backend
def test_grpl_is_32_bit(backend, operands):
    memory = Memory(1 << 16)
    run_source("""
    ldiq r1, 0x80000001
    ldiq r2, 0x80000001
    grpl r3, r1, r2
    stq r3, 0x400(r31)
    halt
    """, memory, backend, operands)
    # Zeros group: bits 1..30 (all zero); ones group: bits 0 and 31 (both 1)
    # packed on top -> value 0b11 << 30.
    assert memory.read(0x400, 8) == 0b11 << 30


@given(st.randoms())
@settings(max_examples=25, deadline=None)
def test_decomposition_realizes_any_permutation(rng):
    width = rng.choice([32, 64])
    permutation = list(range(width))
    rng.shuffle(permutation)
    controls = grp_controls(permutation, width)
    assert len(controls) == width.bit_length() - 1
    value = rng.getrandbits(width)
    staged = value
    for control in controls:
        staged = grp_apply(staged, control, width)
    expected = 0
    for i in range(width):
        expected |= ((value >> i) & 1) << permutation[i]
    assert staged == expected


def test_decomposition_rejects_non_permutation():
    with pytest.raises(ValueError):
        grp_controls([0, 0, 1, 2], 4)
    with pytest.raises(ValueError):
        grp_controls(list(range(48)), 48)  # not a power of two


def test_controls_for_transform():
    controls = grp_controls_for_transform(lambda x: ((x << 1) | (x >> 63))
                                          & 0xFFFFFFFFFFFFFFFF)
    value = 0x0123456789ABCDEF
    staged = value
    for control in controls:
        staged = grp_apply(staged, control, 64)
    assert staged == ((value << 1) | (value >> 63)) & 0xFFFFFFFFFFFFFFFF


@every_backend
def test_builder_permute64_grp(backend):
    random.seed(9)
    permutation = list(range(64))
    random.shuffle(permutation)
    controls = grp_controls(permutation, 64)
    kb = KernelBuilder(Features.OPT)
    src, dst = kb.reg("src"), kb.reg("dst")
    value = random.getrandbits(64)
    kb.ldiq(src, value)
    kb.permute64_grp(dst, src, controls)
    kb.stq(dst, kb.zero, 0x400)
    kb.halt()
    memory = Memory(4096)
    execute(kb.build(), memory, backend)
    expected = 0
    for i in range(64):
        expected |= ((value >> i) & 1) << permutation[i]
    assert memory.read(0x400, 8) == expected


def test_grp_requires_opt_features():
    kb = KernelBuilder(Features.ROT)
    with pytest.raises(RuntimeError):
        kb.grpq(kb.reg("a"), kb.reg("b"), kb.reg("c"))


@every_backend
def test_des3_grp_coding_validates(backend):
    from repro.kernels.des3_kernel import TripleDESKernel

    kernel = TripleDESKernel(bytes(range(24)), Features.OPT, use_grp=True)
    # Validates against the reference cipher internally.
    run = kernel.encrypt(bytes(32), bytes(8), backend=backend)
    baseline = TripleDESKernel(bytes(range(24)), Features.OPT)
    assert run.instructions < baseline.encrypt(bytes(32), bytes(8)).instructions
