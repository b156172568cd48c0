"""Hexadecimal digits of pi, computed from scratch with integer arithmetic.

Blowfish initializes its P-array and S-boxes from the fractional hexadecimal
digits of pi (a classic "nothing up my sleeve" constant source).  This module
computes those digits locally -- the repository has no network access and ships
no constant blobs -- using the Chudnovsky series

    1/pi = 12 * sum_k (-1)^k (6k)! (13591409 + 545140134 k)
                 / ((3k)! (k!)^3 640320^(3k + 3/2))

summed exactly by binary splitting and scaled with ``math.isqrt``.  Each
term adds about 47 bits, so Blowfish's 8336 digits take ~710 terms.  The
same digit stream (at a disjoint offset) seeds this repository's documented
substitute for the MARS S-box (see DESIGN.md, substitution #4).
"""

from __future__ import annotations

import math
from functools import lru_cache

_GUARD_HEX_DIGITS = 12
_C3_OVER_24 = 640320 ** 3 // 24
#: Bits of precision each Chudnovsky term adds: log2(640320**3 / 1728).
_BITS_PER_TERM = 47.11


def _split(a: int, b: int) -> tuple[int, int, int]:
    """``(P, Q, T)`` of the Chudnovsky terms ``a <= k < b``."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p_am, q_am, t_am = _split(a, m)
    p_mb, q_mb, t_mb = _split(m, b)
    return p_am * p_mb, q_am * q_mb, q_mb * t_am + p_am * t_mb


@lru_cache(maxsize=8)
def _pi_fraction_hex(num_digits: int) -> str:
    """Return the first ``num_digits`` hex digits of pi's fractional part."""
    scale_digits = num_digits + _GUARD_HEX_DIGITS
    bits = 4 * scale_digits
    one = 1 << bits
    _, q, t = _split(0, int(bits / _BITS_PER_TERM) + 2)
    pi_scaled = q * 426880 * math.isqrt(10005 * one * one) // t
    fraction = pi_scaled - 3 * one
    if not 0 < fraction < one:
        raise AssertionError("pi computation out of range")
    hex_digits = format(fraction, "x").zfill(scale_digits)
    return hex_digits[:num_digits]


def pi_hex_words(count: int, offset: int = 0) -> list[int]:
    """Return ``count`` 32-bit words of pi's fractional hex expansion.

    Word ``i`` packs fractional hex digits ``8*(offset+i) .. 8*(offset+i)+7``
    big-endian, so ``pi_hex_words(1)[0] == 0x243F6A88`` -- the first Blowfish
    P-array entry.
    """
    if count < 0 or offset < 0:
        raise ValueError("count and offset must be non-negative")
    digits = _pi_fraction_hex(8 * (offset + count))
    return [
        int(digits[8 * i : 8 * i + 8], 16) for i in range(offset, offset + count)
    ]
