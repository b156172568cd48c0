"""Tests for the kernel runtime layer: layout, packing, validation plumbing."""

import pytest

from repro.isa import Features
from repro.kernels import make_kernel
from repro.kernels.runtime import (
    TABLES_BASE,
    pack_words_be,
)


def test_pack_words_be_roundtrip():
    data = bytes(range(16))
    packed = pack_words_be(data)
    assert packed == bytes([3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8,
                            15, 14, 13, 12])
    assert pack_words_be(packed) == data


def test_pack_words_be_width_2():
    assert pack_words_be(b"\x01\x02\x03\x04", 2) == b"\x02\x01\x04\x03"


def test_pack_rejects_ragged():
    with pytest.raises(ValueError):
        pack_words_be(b"\x01\x02\x03")


def test_layout_regions_are_ordered_and_disjoint():
    kernel = make_kernel("Twofish", Features.OPT)
    layout = kernel.layout_for(1024)
    assert TABLES_BASE <= layout.tables < layout.keys < layout.iv
    assert layout.iv < layout.input < layout.output
    assert layout.output >= layout.input + 1024
    # Tables must be 1KB-aligned for the SBOX instruction.
    assert layout.tables % 1024 == 0


def test_layout_base_offset_shifts_everything():
    kernel = make_kernel("Twofish", Features.OPT)
    kernel.base_offset = 0x100000
    shifted = kernel.layout_for(256)
    base = make_kernel("Twofish", Features.OPT).layout_for(256)
    for field in ("tables", "keys", "iv", "input", "output"):
        assert getattr(shifted, field) == getattr(base, field) + 0x100000


def test_memory_sized_to_layout():
    kernel = make_kernel("Blowfish", Features.OPT)
    layout = kernel.layout_for(4096)
    memory = kernel.make_memory(layout)
    assert memory.size >= layout.output + 4096


def test_validation_catches_corruption():
    """Force a wrong reference to prove validation is live."""
    kernel = make_kernel("RC6", Features.OPT)
    kernel.reference_encrypt = lambda pt, iv: bytes(len(pt))
    with pytest.raises(AssertionError, match="diverges"):
        kernel.encrypt(bytes(32))


def test_validation_can_be_skipped():
    kernel = make_kernel("RC6", Features.OPT)
    kernel.reference_encrypt = lambda pt, iv: bytes(len(pt))
    run = kernel.encrypt(bytes(32), validate=False)
    assert run.instructions > 0


def test_default_iv_is_zero_block():
    kernel = make_kernel("Blowfish", Features.OPT)
    explicit = kernel.encrypt(bytes(32), iv=bytes(8)).ciphertext
    implicit = kernel.encrypt(bytes(32)).ciphertext
    assert explicit == implicit


def test_program_cache_reuses_by_block_count_and_direction():
    kernel = make_kernel("RC6", Features.OPT)
    p1, _, _ = kernel.prepare(bytes(32), bytes(16))
    p2, _, _ = kernel.prepare(bytes(32), bytes(16))
    p3, _, _ = kernel.prepare(bytes(64), bytes(16))
    p4, _, _ = kernel.prepare(bytes(32), bytes(16), decrypt=True)
    assert p1 is p2
    assert p1 is not p3
    assert p1 is not p4


def test_warm_ranges_cover_tables_and_keys():
    kernel = make_kernel("Rijndael", Features.OPT)
    run = kernel.encrypt(bytes(64))
    layout = kernel.layout_for(64)
    starts = [start for start, _ in run.warm_ranges]
    assert layout.tables in starts
    assert layout.keys in starts


def test_instructions_per_byte():
    kernel = make_kernel("RC4", Features.OPT)
    run = kernel.encrypt(bytes(100))
    assert run.instructions_per_byte == run.instructions / 100
