"""Shared fixtures."""

import pytest

from sqftori import exact, sqfree, tori


def _clear_symbolic_caches():
    """Empty every memo of the symbolic layers: each lru_cache of `exact`
    (the render memo among them), `sqfree` and `tori`."""
    for module in (exact, sqfree, tori):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.fixture
def clear_symbolic_caches():
    """Run the test on empty symbolic memos, and empty them again after it,
    since it may have filled them under a patch.  The fixture's value is
    the clearing function, for a test that clears part-way."""
    _clear_symbolic_caches()
    yield _clear_symbolic_caches
    _clear_symbolic_caches()
