"""Small helpers for working with hex-encoded test vectors."""

from __future__ import annotations


def h2b(hex_string: str) -> bytes:
    """Convert a hex string (spaces/newlines allowed) to bytes."""
    return bytes.fromhex("".join(hex_string.split()))
