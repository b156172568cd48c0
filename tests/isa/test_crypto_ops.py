"""Semantics tests for the paper's crypto ISA extensions.

Every test runs on every backend, operands from ``ldiq`` and from memory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ciphers.idea import mul_mod
from repro.sim import Memory
from tests.isa.backend_run import every_backend, run_source

words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
words16 = st.integers(min_value=0, max_value=0xFFFF)


def run_expr(source: str, backend: str, operands: str) -> int:
    memory = Memory(1 << 16)
    run_source(source + "\n    stq r9, 0x400(r31)\n    halt\n", memory,
               backend, operands)
    return memory.read(0x400, 8)


@every_backend
@given(words32, st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_roll_matches_reference(backend, operands, value, amount):
    from repro.util.bits import rotl32

    got = run_expr(f"""
    ldiq r1, {value}
    ldiq r2, {amount}
    roll r9, r1, r2
    """, backend, operands)
    assert got == rotl32(value, amount & 31)


@every_backend
@given(words32, st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_rorl_matches_reference(backend, operands, value, amount):
    from repro.util.bits import rotr32

    got = run_expr(f"""
    ldiq r1, {value}
    roll r9, r1, #0
    rorl r9, r1, #{amount}
    """, backend, operands)
    assert got == rotr32(value, amount & 31)


@every_backend
def test_rolq_rorq(backend, operands):
    assert run_expr("""
    ldiq r1, 0x0123456789ABCDEF
    rolq r9, r1, #8
    """, backend, operands) == 0x23456789ABCDEF01
    assert run_expr("""
    ldiq r1, 0x0123456789ABCDEF
    rorq r9, r1, #8
    """, backend, operands) == 0xEF0123456789ABCD
    # Register amounts, including 0 and one past the 6-bit field.
    for amount, left, right in ((8, 0x23456789ABCDEF01, 0xEF0123456789ABCD),
                                (0, 0x0123456789ABCDEF, 0x0123456789ABCDEF),
                                (68, 0x123456789ABCDEF0, 0xF0123456789ABCDE)):
        for opname, expected in (("rolq", left), ("rorq", right)):
            assert run_expr(f"""
    ldiq r1, 0x0123456789ABCDEF
    ldiq r2, {amount}
    {opname} r9, r1, r2
    """, backend, operands) == expected


@every_backend
@given(words32, st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_rorl_register_amount(backend, operands, value, amount):
    from repro.util.bits import rotr32

    got = run_expr(f"""
    ldiq r1, {value}
    ldiq r2, {amount}
    rorl r9, r1, r2
    """, backend, operands)
    assert got == rotr32(value, amount & 31)


@every_backend
@given(words32, words32, st.integers(min_value=0, max_value=31))
@settings(max_examples=30, deadline=None)
def test_rolxl_semantics(backend, operands, value, accum, amount):
    """ROLX: dest <- rotl32(src, #amount) ^ dest (paper Figure 8)."""
    from repro.util.bits import rotl32

    got = run_expr(f"""
    ldiq r1, {value}
    ldiq r9, {accum}
    rolxl r9, r1, #{amount}
    """, backend, operands)
    assert got == rotl32(value, amount) ^ accum


@every_backend
@given(words32, words32, st.integers(min_value=0, max_value=31))
@settings(max_examples=30, deadline=None)
def test_rorxl_semantics(backend, operands, value, accum, amount):
    from repro.util.bits import rotr32

    got = run_expr(f"""
    ldiq r1, {value}
    ldiq r9, {accum}
    rorxl r9, r1, #{amount}
    """, backend, operands)
    assert got == rotr32(value, amount) ^ accum


@every_backend
@given(words16, words16)
@settings(max_examples=50, deadline=None)
def test_mulmod_matches_idea_multiply(backend, operands, a, b):
    got = run_expr(f"""
    ldiq r1, {a}
    ldiq r2, {b}
    mulmod r9, r1, r2
    """, backend, operands)
    assert got == mul_mod(a, b)


@every_backend
def test_mulmod_zero_convention(backend, operands):
    # 0 represents 2^16: 0 (*) 1 = 2^16 -> represented as 0.
    assert run_expr("""
    ldiq r1, 0
    ldiq r2, 1
    mulmod r9, r1, r2
    """, backend, operands) == 0


@every_backend
def test_sbox_instruction_indexes_table(backend, operands):
    memory = Memory(1 << 16)
    table_base = 0x1000  # 1 KB aligned
    for i in range(256):
        memory.write(table_base + 4 * i, 0xAA000000 | i, 4)
    source = f"""
    ldiq r1, {table_base}
    ldiq r2, 0x00CC4711
    sbox.0.1 r1, r2, r9    ; byte 1 of index = 0x47
    stq r9, 0x400(r31)
    halt
    """
    run_source(source, memory, backend, operands)
    assert memory.read(0x400, 8) == 0xAA000047


@every_backend
def test_sbox_ignores_low_table_bits(backend, operands):
    """The table base is masked to a 1 KB boundary (paper Figure 8)."""
    memory = Memory(1 << 16)
    table_base = 0x1000
    for i in range(256):
        memory.write(table_base + 4 * i, i * 3, 4)
    source = f"""
    ldiq r1, {table_base + 0x3FF}   ; low bits must be ignored
    ldiq r2, 5
    sbox.2.0 r1, r2, r9
    stq r9, 0x400(r31)
    halt
    """
    run_source(source, memory, backend, operands)
    assert memory.read(0x400, 8) == 15


@every_backend
def test_xbox_partial_permutation(backend, operands):
    """XBOX writes 8 permuted bits into its destination byte, rest zero."""
    memory = Memory(1 << 16)
    # Map: destination bits j=0..7 take source bits 8..15 (byte swap).
    perm_map = 0
    for j in range(8):
        perm_map |= (8 + j) << (6 * j)
    source = f"""
    ldiq r1, 0x0000000000BB00
    ldiq r2, {perm_map}
    xbox.0 r1, r2, r9
    stq r9, 0x400(r31)
    halt
    """
    run_source(source, memory, backend, operands)
    assert memory.read(0x400, 8) == 0xBB


@every_backend
def test_xbox_byte_position(backend, operands):
    perm_map = 0
    for j in range(8):
        perm_map |= j << (6 * j)  # identity on low byte
    memory = Memory(1 << 16)
    source = f"""
    ldiq r1, 0xCD
    ldiq r2, {perm_map}
    xbox.3 r1, r2, r9
    stq r9, 0x400(r31)
    halt
    """
    run_source(source, memory, backend, operands)
    assert memory.read(0x400, 8) == 0xCD << 24


@every_backend
def test_xbox_pair_composes_full_permutation(backend, operands):
    """Two XBOXes with an OR reproduce a 16-bit permutation (paper's idiom)."""
    import random

    random.seed(3)
    permutation = list(range(16))
    random.shuffle(permutation)
    maps = []
    for byte_index in range(2):
        m = 0
        for j in range(8):
            m |= permutation[8 * byte_index + j] << (6 * j)
        maps.append(m)
    value = 0xB3C5
    source = f"""
    ldiq r1, {value}
    ldiq r2, {maps[0]}
    ldiq r3, {maps[1]}
    xbox.0 r1, r2, r4
    xbox.1 r1, r3, r5
    bis r9, r4, r5
    stq r9, 0x400(r31)
    halt
    """
    memory = Memory(1 << 16)
    run_source(source, memory, backend, operands)
    expected = 0
    for out_bit in range(16):
        expected |= ((value >> permutation[out_bit]) & 1) << out_bit
    assert memory.read(0x400, 8) == expected


@every_backend
def test_sboxsync_is_functionally_neutral(backend, operands):
    memory = Memory(1 << 16)
    source = """
    ldiq r9, 7
    sboxsync.2
    stq r9, 0x400(r31)
    halt
    """
    run_source(source, memory, backend, operands)
    assert memory.read(0x400, 8) == 7
