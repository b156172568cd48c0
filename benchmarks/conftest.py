"""Shared benchmark configuration.

Session length defaults to 512 bytes so the whole suite regenerates in
minutes on a laptop; set ``REPRO_SESSION_BYTES=4096`` for the paper's
full session length.
"""

import os

import pytest

SESSION_BYTES = int(os.environ.get("REPRO_SESSION_BYTES", "512"))


@pytest.fixture
def session_bytes() -> int:
    return SESSION_BYTES


@pytest.fixture
def show(capsys):
    """Print a result table to the terminal from inside a test."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic, expensive simulation exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
