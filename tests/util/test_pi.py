"""Tests for the from-scratch pi hex digit generator."""

import pytest

from repro.ciphers.mars import _PI_OFFSET
from repro.util.pi import _pi_fraction_hex, pi_hex_words


def _machin_fraction_hex(num_digits):
    """Reference: pi = 16 atan(1/5) - 4 atan(1/239), by Taylor series."""
    scale_digits = num_digits + 12
    one = 1 << (4 * scale_digits)

    def atan_inv(x):
        power = total = one // x
        divisor, sign = 1, -1
        while power:
            power //= x * x
            divisor += 2
            total += sign * (power // divisor)
            sign = -sign
        return total

    fraction = 16 * atan_inv(5) - 4 * atan_inv(239) - 3 * one
    return format(fraction, "x").zfill(scale_digits)[:num_digits]


@pytest.mark.parametrize("num_digits", [1, 8, 100, 8336, 12432])
def test_digits_match_machin_reference(num_digits):
    # 8336 digits = Blowfish's P-array and S-boxes (18 + 1024 words);
    # 12432 = the MARS substitute's words at its offset.
    assert _pi_fraction_hex(num_digits) == _machin_fraction_hex(num_digits)


def test_mars_offset_words_match_machin_reference():
    digits = _machin_fraction_hex(8 * (_PI_OFFSET + 512))
    assert pi_hex_words(512, offset=_PI_OFFSET) == [
        int(digits[8 * i:8 * i + 8], 16)
        for i in range(_PI_OFFSET, _PI_OFFSET + 512)
    ]


def test_first_words_match_known_pi_digits():
    # pi = 3.243F6A88 85A308D3 13198A2E 03707344 ...
    words = pi_hex_words(4)
    assert words == [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344]


def test_blowfish_p_array_constants():
    # The first 18 words are Blowfish's published initial P-array.
    words = pi_hex_words(18)
    assert words[8] == 0x452821E6
    assert words[16] == 0x9216D5D9
    assert words[17] == 0x8979FB1B


def test_offset_slices_consistently():
    full = pi_hex_words(32)
    assert pi_hex_words(8, offset=24) == full[24:32]
    assert pi_hex_words(1, offset=0) == full[:1]


def test_words_are_32_bit():
    for word in pi_hex_words(64, offset=1000):
        assert 0 <= word <= 0xFFFFFFFF


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        pi_hex_words(-1)
    with pytest.raises(ValueError):
        pi_hex_words(1, offset=-1)


def test_zero_count():
    assert pi_hex_words(0) == []
