"""Session-wide isolation of the result cache, for every suite.

The default runner and every ``ResultCache()`` without an explicit root
resolve their directory from ``REPRO_CACHE_DIR``.  Pointing it at a fresh
per-session directory keeps ``tests/`` and ``benchmarks/`` from reading
records a user's earlier runs left behind -- a timing change the content
key cannot see would otherwise pass a test or a paper claim on stale
records -- and from filling the user's cache.
"""

import pytest

from repro.runner import set_default_runner


@pytest.fixture(autouse=True, scope="session")
def isolated_result_cache(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
    previous = set_default_runner(None)
    yield
    set_default_runner(previous)
    patch.undo()
