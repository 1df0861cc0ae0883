from functools import lru_cache

import pytest

from orthokit import FieldSpec, build_field


@lru_cache(maxsize=None)
def cached_field(p, r, modulus=None, gamma=None):
    return build_field(p, r, modulus, gamma)


@pytest.fixture(scope="session")
def field():
    """Session-cached field builder; moduli must be passed as tuples."""
    return cached_field


@pytest.fixture
def kernel_rows(monkeypatch):
    """Patch FieldSpec.power_sums, the kernel every degree read calls, to
    record the rows each call reads; the list of row counts, one per call,
    from the start of the test."""
    rows = []
    power_sums = FieldSpec.power_sums

    def counting(fs, w, m, lo, hi):
        rows.append(hi - lo)
        return power_sums(fs, w, m, lo, hi)

    monkeypatch.setattr(FieldSpec, "power_sums", counting)
    return rows
