import pytest

from wml.weingarten import _content_terms, _wg_over_common_denominator


@pytest.fixture(scope="module", autouse=True)
def clear_weingarten_caches():
    """Leave the Weingarten tables empty after each module, so that a suite
    run later in the same process (the benchmark's tracer tests) sees every
    table built through the module's own bindings again."""
    yield
    for cached in (_wg_over_common_denominator, _content_terms):
        cached.cache_clear()
