"""Unit tests for MARS internals: E-function, mixing inverses, key fixing."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ciphers.mars import (
    MARS,
    _backward_mix,
    _forward_mix,
    _inverse_backward_mix,
    _inverse_forward_mix,
    e_function,
    expand_key,
    sbox,
)

words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
state_st = st.lists(words32, min_size=4, max_size=4)


def test_sbox_shape_and_source():
    table = sbox()
    assert len(table) == 512
    # Drawn from pi digits past the Blowfish range: disjoint from Blowfish's
    # first table word.
    assert table[0] != 0x243F6A88


def test_sbox_differs_between_halves():
    table = sbox()
    assert table[:256] != table[256:]


@given(state_st)
@settings(max_examples=50)
def test_forward_mix_invertible(state):
    assert _inverse_forward_mix(_forward_mix(list(state))) == list(state)


@given(state_st)
@settings(max_examples=50)
def test_backward_mix_invertible(state):
    assert _inverse_backward_mix(_backward_mix(list(state))) == list(state)


@given(words32, words32)
def test_e_function_outputs_are_32_bit(word, key_add):
    left, m, r = e_function(word, key_add, 0x2545F491 | 1)
    for value in (left, m, r):
        assert 0 <= value <= 0xFFFFFFFF


def test_e_function_deterministic():
    assert e_function(1, 2, 3) == e_function(1, 2, 3)


def test_multiplication_keys_are_odd():
    """The key fixing step must leave every multiplication subkey odd."""
    random.seed(5)
    for _ in range(10):
        keys = expand_key(random.randbytes(16))
        assert len(keys) == 40
        for i in range(5, 36, 2):
            assert keys[i] & 1 == 1


def test_multiplication_keys_have_no_long_runs_at_fix_positions():
    """Spot-check the run-breaking: fixed keys should rarely be all-ones."""
    keys = expand_key(bytes(16))
    for i in range(5, 36, 2):
        assert keys[i] not in (0xFFFFFFFF,)


def test_expand_key_supports_long_keys():
    for size in (16, 24, 32):
        assert len(expand_key(bytes(size))) == 40


@given(
    key=st.binary(min_size=16, max_size=16),
    block=st.binary(min_size=16, max_size=16),
)
@settings(max_examples=10, deadline=None)
def test_mars_roundtrip(key, block):
    cipher = MARS(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
