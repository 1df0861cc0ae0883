from functools import lru_cache

import pytest

from orthokit import build_field


@lru_cache(maxsize=None)
def cached_field(p, r, modulus=None, gamma=None):
    return build_field(p, r, modulus, gamma)


@pytest.fixture(scope="session")
def field():
    """Session-cached field builder; moduli must be passed as tuples."""
    return cached_field
