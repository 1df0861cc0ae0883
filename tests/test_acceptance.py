"""Acceptance gate: one test per shipping criterion, each printing a single
ACCEPTANCE line on success (run with -s to see them; a failed criterion
surfaces as the test's own failure line)."""

import random
import time
from functools import lru_cache

import pytest

from orthokit import (build_bitrade, build_field, complete_partial,
                      cubic_unique_root, census, distance3_pair,
                      enumerate_orthomorphisms, even_char_theta, interpolate,
                      is_irregular, is_orthomorphism, linear_map,
                      map_table, max_degree_orthomorphism, pair_f125,
                      prime_powers, reduced_poly, tabulate, translate,
                      validate_homogeneous)

from oracles import OracleField, all_orthomorphisms, cubic_root_count

SWEEP_LIMIT = 343
SKIPPED_ORDERS = {2, 5, 8}


PRIME_POWERS = [(p, r, q) for p, r, q in prime_powers(SWEEP_LIMIT)
                if q not in SKIPPED_ORDERS]


@lru_cache(maxsize=None)
def _census(p, r):
    return census(build_field(p, r))


@pytest.fixture(scope="module")
def sweep():
    pairs = {}
    t0 = time.perf_counter()
    for p, r, q in PRIME_POWERS:
        fs = build_field(p, r)
        pairs[q] = distance3_pair(fs)
    elapsed = time.perf_counter() - t0
    return pairs, elapsed


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_01_distance3_coverage(sweep):
    pairs, elapsed = sweep
    assert sorted(pairs) == [q for _, _, q in PRIME_POWERS]
    assert len(pairs) == 83
    for q, pair in pairs.items():
        assert is_orthomorphism(pair.f), q
        assert is_orthomorphism(pair.g), q
        assert sum(a != b for a, b in zip(pair.f.values.tolist(), pair.g.values.tolist())) == 3, q
    assert elapsed < 120.0, f"pair sweep took {elapsed:.1f}s"
    _ok(1, "distance-3 coverage to 343")


def test_criterion_02_maximal_degree(sweep):
    pairs, _ = sweep
    for q, pair in pairs.items():
        if q == 3:
            continue
        df = interpolate(pair.f).degree
        dg = interpolate(pair.g).degree
        assert max(df, dg) == q - 3, (q, df, dg)
        if pair.provenance == "ONE_MOD3":
            assert dg == 1 and df == q - 3, (q, df, dg)
    _ok(2, "maximal reduced degree q-3")


def test_criterion_03_boundary_censuses():
    assert _census(2, 1).total == 0
    c3 = _census(3, 1)
    assert max(c3.degree_histogram) == 1
    c5 = _census(5, 1)
    assert max(c5.degree_histogram) == 1
    assert c5.min_pairwise_distance == 4
    c8 = _census(2, 3)
    assert max(c8.degree_histogram) == 4
    assert c8.min_pairwise_distance == 4
    _ok(3, "boundary censuses q in {2,3,5,8}")


@pytest.mark.slow
def test_criterion_03_census_gf11():
    rep = _census(11, 1)
    assert rep.total == 37851
    assert max(rep.degree_histogram) == 8
    assert rep.min_pairwise_distance == 3
    assert rep.irregular_count == 29040
    _ok(3, "GF(11) census statistics")


def test_criterion_04_f125_golden_values():
    pair = pair_f125()
    fs = pair.f.field
    assert fs.modulus == (3, 3, 0, 1)
    y2 = 25                       # code of y^2
    c = 3 + 0 * 5 + 4 * 25       # 4y^2 + 3
    e = 3 + 0 * 5 + 3 * 25       # 3y^2 + 3
    assert fs.exp_table[118] == c == 103
    assert pair.f[0] == 0
    assert pair.f[y2] == c
    assert pair.f[c] == e == 78
    _ok(4, "GF(125) golden values")


def test_criterion_05_bitrades(sweep):
    pairs, _ = sweep
    for q, pair in pairs.items():
        b = build_bitrade(pair.f, pair.g)
        assert b.k == 3, q
        assert len(b.first) == len(b.second) == 3 * q, q
        assert not set(map(tuple, b.first.tolist())) & \
            set(map(tuple, b.second.tolist())), q
        assert validate_homogeneous(b), q
    f5 = build_field(5, 1)
    b = build_bitrade(linear_map(f5, 2), linear_map(f5, 3))
    assert b.k == 4 and validate_homogeneous(b)
    assert len(b.first) == len(b.second) == 20
    _ok(5, "homogeneous bitrades")


def test_criterion_06_irregularity():
    t0 = time.perf_counter()
    for r in (4, 5, 6):           # q = 16, 32, 64
        fs = build_field(2, r)
        found = False
        for a in range(2, fs.q):
            for c in range(1, fs.q):
                if c in (1, a, a ^ 1):
                    continue
                if is_irregular(even_char_theta(fs, a, c)):
                    found = True
                    break
            if found:
                break
        assert found, f"no irregular theta_a witness for q={fs.q}"
    for p, r in ((11, 1), (17, 1), (23, 1), (29, 1), (2, 5)):
        fs = build_field(p, r)
        assert fs.q > 7 and fs.q % 3 != 1
        poly = max_degree_orthomorphism(fs)
        assert poly.degree == fs.q - 3
        assert is_irregular(tabulate(poly)), fs.q
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"irregularity suite took {elapsed:.1f}s"
    _ok(6, "irregular orthomorphism witnesses")


def test_criterion_07_partial_completion():
    rng = random.Random(7)
    for q in (11, 13, 19, 191):
        fs = build_field(q, 1)
        for trial in range(20):
            z = rng.randrange(2, q)
            k = rng.randrange(2, q)
            e = rng.randrange(q)
            while e in (0, z, k, fs.add(k, fs.sub(z, 1))):
                e = rng.randrange(q)
            t0 = time.perf_counter()
            theta = complete_partial(fs, z, k, e, seed=trial)
            elapsed = time.perf_counter() - t0
            assert theta[0] == 0 and theta[1] == z and theta[k] == e
            assert is_orthomorphism(theta)
            if q == 191:
                assert elapsed < 30.0, f"instance took {elapsed:.1f}s"
    _ok(7, "pinned-value completion")


def test_criterion_08_cubic_criterion():
    for p, r in ((2, 3), (2, 4)):
        fs = build_field(p, r)
        of = OracleField(p, r, fs.modulus)
        for a in range(fs.q):
            for b in range(1, fs.q):
                assert cubic_unique_root(fs, a, b) == \
                    (cubic_root_count(of, a, b) == 1), (fs.q, a, b)
    _ok(8, "unique-root cubic criterion")


def test_criterion_09_property_suites():
    # interpolation round-trip on seeded random tables, every q <= 64
    for p, r, q in prime_powers(64):
        fs = build_field(p, r)
        rng = random.Random(q)
        for _ in range(3):
            vals = list(range(q))
            rng.shuffle(vals)
            t = map_table(fs, vals)
            poly = interpolate(t)
            assert tabulate(poly).values.tolist() == t.values.tolist()
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, q + 1))]
            poly2 = reduced_poly(fs, coeffs)
            assert interpolate(tabulate(poly2)).coeffs == poly2.coeffs
    # translation closure, exhaustive over q <= 9
    for p, r, q in prime_powers(9):
        fs = build_field(p, r)
        for t in enumerate_orthomorphisms(fs):
            for g in range(q):
                assert is_orthomorphism(translate(t, g))
    # enumerated degree and distance floors
    for p, r in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        fs = build_field(p, r)
        q = fs.q
        tables = [tuple(t.values.tolist()) for t in enumerate_orthomorphisms(fs)]
        if q > 3:
            for vals in tables:
                assert interpolate(map_table(fs, vals)).degree <= q - 3
        for i, a in enumerate(tables):
            for b in tables[i + 1:]:
                assert sum(x != y for x, y in zip(a, b)) >= 3
    # census count against the permutation-filter oracle
    f7 = build_field(7, 1)
    of = OracleField(7, 1, f7.modulus)
    assert len(list(enumerate_orthomorphisms(f7))) == \
        len(all_orthomorphisms(of)) == 133
    _ok(9, "interpolation/translation/degree/distance properties")


def test_criterion_10_counting_bound():
    for p, r in ((7, 1), (3, 2), (11, 1)):
        rep = _census(p, r)
        regular = rep.total - rep.irregular_count
        q = rep.q
        assert 4 * regular * regular <= q ** (q + 4), q
    _ok(10, "non-irregular counting bound")
