"""Unit tests for Rijndael internals: S-box derivation, T-tables, key expansion."""

from repro.ciphers.rijndael import (
    Rijndael,
    expand_key,
    inv_sbox,
    sbox,
    t_tables,
)
from repro.util.gf import GF2_8


def test_sbox_known_entries():
    s = sbox()
    assert s[0x00] == 0x63
    assert s[0x01] == 0x7C
    assert s[0x53] == 0xED
    assert s[0xFF] == 0x16


def test_sbox_is_permutation():
    assert sorted(sbox()) == list(range(256))


def test_inv_sbox_inverts():
    s, s_inv = sbox(), inv_sbox()
    assert all(s_inv[s[x]] == x for x in range(256))


def test_sbox_has_no_fixed_points():
    s = sbox()
    assert all(s[x] != x for x in range(256))
    assert all(s[x] != (x ^ 0xFF) for x in range(256))


def test_t_table_rotation_structure():
    t = t_tables()
    for x in (0, 1, 0x53, 0xFF):
        base = t[0][x]
        for i in range(1, 4):
            rotated = ((base >> (8 * i)) | (base << (32 - 8 * i))) & 0xFFFFFFFF
            assert t[i][x] == rotated


def test_t_table_first_entry():
    # T0[0] packs (2*0x63, 0x63, 0x63, 3*0x63) = (c6, 63, 63, a5).
    assert t_tables()[0][0] == 0xC66363A5


def test_key_expansion_fips_worked_example():
    # FIPS-197 Appendix A.1 key expansion for 2b7e1516...
    words = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert words[4] == 0xA0FAFE17
    assert words[5] == 0x88542CB1
    assert words[43] == 0xB6630CA6


def test_key_expansion_shape():
    words = expand_key(bytes(16))
    assert len(words) == 44


def test_mixcolumns_matrices_are_inverse():
    """The (2,3,1,1) and (e,b,d,9) circulant matrices must be inverses."""
    field = GF2_8()
    forward = [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]]
    inverse = [
        [0x0E, 0x0B, 0x0D, 0x09],
        [0x09, 0x0E, 0x0B, 0x0D],
        [0x0D, 0x09, 0x0E, 0x0B],
        [0x0B, 0x0D, 0x09, 0x0E],
    ]
    for i in range(4):
        for j in range(4):
            acc = 0
            for k in range(4):
                acc ^= field.mul(forward[i][k], inverse[k][j])
            assert acc == (1 if i == j else 0)

def test_encrypt_decrypt_many_keys():
    for seed in range(5):
        key = bytes((seed * 17 + i) & 0xFF for i in range(16))
        block = bytes((seed * 29 + i * 3) & 0xFF for i in range(16))
        cipher = Rijndael(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
